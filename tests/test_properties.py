"""Property-based tests: rule counts add over corpora, the counting reader
counts what the reference reader's trees hold, the incremental curve built
from running counts ends where SITE of the merged corpus does, no scalar
depends on the order of the non-terminals, grammar files keep every
label, probability and frequency, and bracketed text and the dependency
conversion invert for arbitrary labels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RuleCounts, random_projective_graph, reference_read
from test_trees import READ_OPTIONS
from treebank_entropy.analysis import incremental
from treebank_entropy.conllu import DepGraph
from treebank_entropy.depconv import ConversionConfig, dep_to_tree, tree_to_dep
from treebank_entropy.entropy import count_totals, entropy_rate
from treebank_entropy.errors import StructuralError
from treebank_entropy.estimators import SmootherKind, site, site_rows
from treebank_entropy.grammar import (
    SYNTHETIC_ROOT,
    Pcfg,
    Rule,
    dumps,
    induce,
    loads,
)
from treebank_entropy.trees import (
    Corpus,
    CountedCorpus,
    Tree,
    corpus_mlu,
    counted_bracketed,
    derivation,
    parse_bracketed,
    write_bracketed,
)

# Disjoint alphabets, so no generated corpus has an alphabet clash.
_PHRASES = ("S", "A", "B")
_WORDS = ("a", "b", "c")


def _node(children):
    return st.builds(
        Tree, st.sampled_from(_PHRASES), st.lists(children, min_size=1, max_size=3)
    )


_LEAVES = st.sampled_from(_WORDS).map(Tree)
TREES = _node(st.recursive(_LEAVES, _node, max_leaves=10))
CORPORA = st.lists(TREES, min_size=1, max_size=8)

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(CORPORA, CORPORA)
def test_counts_of_union_are_sums(a, b):
    union, left, right = (RuleCounts(map(derivation, c)) for c in (a + b, a, b))
    assert union.rules == left.rules + right.rules
    assert union.roots == left.roots + right.roots
    induced = {
        (r.lhs, r.rhs): r.freq
        for r in induce(Corpus(a + b)).rules
        if r.lhs != SYNTHETIC_ROOT
    }
    assert induced == left.rules + right.rules


#: Labels with anything but whitespace and parentheses, and labels that the
#: drop and function-tag options act on.
_LABELS = st.one_of(
    st.sampled_from(["-NONE-", "NP-SBJ", "VP=2", "S-TPC-1=3", "-", "="]),
    st.text(
        st.characters().filter(lambda c: not c.isspace() and c not in "()"),
        min_size=1,
        max_size=4,
    ),
)


def _labeled_node(children):
    return st.builds(Tree, _LABELS, st.lists(children, min_size=1, max_size=3))


LABELED_TREES = _labeled_node(
    st.recursive(_LABELS.map(Tree), _labeled_node, max_leaves=12)
)

@SETTINGS
@given(st.lists(st.tuples(LABELED_TREES, st.booleans()), min_size=1, max_size=5))
def test_counting_reader_counts_reference_trees(sentences):
    # Some sentences sit in the unlabeled wrapper of treebank files.
    text = "\n".join(
        f"( {write_bracketed(t)} )" if wrapped else write_bracketed(t)
        for t, wrapped in sentences
    )
    for options in READ_OPTIONS:
        try:
            trees = reference_read(text, **options)
        except StructuralError:  # a node mixing words and phrases
            with pytest.raises(StructuralError):
                counted_bracketed(text, **options)
            continue
        derivations = counted_bracketed(text, **options).derivations()
        got, want = RuleCounts(derivations), RuleCounts(map(derivation, trees))
        assert list(got.rules.items()) == list(want.rules.items())
        assert list(got.roots.items()) == list(want.roots.items())
        assert got.leaves == want.leaves
        assert len(derivations) == len(trees)
        assert sum(d.terminals for d in derivations) == sum(
            len(t.frontier()) for t in trees
        )


@st.composite
def split_corpora(draw):
    """A corpus cut at random points into at least two non-empty files."""
    sentences = draw(st.lists(TREES, min_size=2, max_size=12))
    cuts = draw(
        st.lists(st.integers(1, len(sentences) - 1), min_size=1, max_size=4, unique=True)
    )
    bounds = [0, *sorted(cuts), len(sentences)]
    return [Corpus(sentences[i:j]) for i, j in zip(bounds, bounds[1:])]


@SETTINGS
@given(split_corpora(), st.integers(0, 2**32 - 1))
def test_incremental_endpoints_equal_site_of_merged(files, seed):
    merged = Corpus([t for f in files for t in f.sentences])
    expected = site(merged).value
    original = incremental(files, order="original")
    shuffled = incremental(files, order="shuffled", seed=seed)
    assert original[-1].entropy == expected
    # Shuffling changes the first-encounter order of the rules, so a local
    # entropy may round differently in the last bits.
    assert abs(shuffled[-1].entropy - expected) <= 1e-9 * max(1.0, abs(expected))
    assert original[-1].cumulative_sentences == shuffled[-1].cumulative_sentences
    assert shuffled[-1].cumulative_sentences == len(merged)


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


@st.composite
def permuted_grammars(draw):
    """An induced grammar and the same rules in a random order, which
    renumbers the non-terminals and reorders every frequency table."""
    grammar = induce(Corpus(draw(CORPORA)))
    rules = draw(st.permutations(grammar.rules))
    return grammar, Pcfg(grammar.root, rules)


@SETTINGS
@given(permuted_grammars())
def test_scalars_invariant_under_nonterminal_permutation(grammars):
    grammar, permuted = grammars
    want, got = entropy_rate(grammar), entropy_rate(permuted)
    assert _close(got.entropy, want.entropy)
    assert _close(got.mlu, want.mlu)
    assert _close(got.rate, want.rate)
    assert _close(got.spectral_radius, want.spectral_radius)
    smoothers = list(SmootherKind)
    for got, want in zip(site_rows(permuted, permuted.freq[None], smoothers)[0],
                         site_rows(grammar, grammar.freq[None], smoothers)[0]):
        assert _close(got, want)


@SETTINGS
@given(CORPORA)
def test_corpus_mlu_of_trees_equals_that_of_derivations(trees):
    counted = CountedCorpus([derivation(t) for t in trees])
    assert corpus_mlu(Corpus(trees)) == corpus_mlu(counted)


#: Any label a grammar file can hold: no whitespace, and not the arrow.
_SYMBOLS = st.text(st.characters().filter(lambda c: not c.isspace()),
                   min_size=1, max_size=5).filter(lambda s: s != "->")


@st.composite
def serializable_grammars(draw):
    """A proper grammar over arbitrary labels, with arbitrary frequencies."""
    symbols = draw(st.lists(_SYMBOLS, min_size=2, max_size=8, unique=True))
    k = draw(st.integers(1, len(symbols) - 1))
    nonterminals = symbols[:k]
    rules = []
    for lhs in nonterminals:
        rhss = draw(st.lists(
            st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(rhss),
                                max_size=len(rhss)))
        freqs = draw(st.lists(st.integers(0, 2**70), min_size=len(rhss),
                              max_size=len(rhss)))
        rules.extend(Rule(lhs, rhs, w / sum(weights), f)
                     for rhs, w, f in zip(rhss, weights, freqs))
    return Pcfg(draw(st.sampled_from(nonterminals)), rules)


@SETTINGS
@given(serializable_grammars())
def test_grammar_file_round_trip(grammar):
    back = loads(dumps(grammar))
    assert back.root == grammar.root
    assert [(r.lhs, r.rhs, r.freq) for r in back.rules] == [
        (r.lhs, r.rhs, r.freq) for r in grammar.rules]
    assert [r.prob.hex() for r in back.rules] == [r.prob.hex() for r in grammar.rules]


@SETTINGS
@given(CORPORA, st.data())
def test_grammar_file_of_induced_grammar_takes_count_path(trees, data):
    # An induced grammar read back from its file is still the relative-
    # frequency grammar of its counts; move probability between two of a
    # non-terminal's rules and it is not.
    text = dumps(induce(Corpus(trees)))
    assert count_totals(loads(text)) is not None
    lines = text.splitlines()
    rules = loads(text).rules
    choices = [lhs for lhs in {r.lhs for r in rules}
               if sum(r.lhs == lhs for r in rules) > 1]
    if not choices:
        return
    lhs = data.draw(st.sampled_from(sorted(choices)))
    first, second = [i for i, r in enumerate(rules) if r.lhs == lhs][:2]
    shift = min(rules[first].prob, rules[second].prob) / 2
    for i, delta in ((first, -shift), (second, shift)):
        _, freq, rule = lines[i + 1].split("\t")
        lines[i + 1] = f"{rules[i].prob + delta!r}\t{freq}\t{rule}"
    edited = loads("\n".join(lines))
    assert count_totals(edited) is None


@SETTINGS
@given(LABELED_TREES)
def test_bracketed_round_trip(tree):
    assert parse_bracketed(write_bracketed(tree)) == [tree]


def _any_node(children):
    return st.builds(
        Tree, st.text(max_size=3), st.lists(children, min_size=1, max_size=3)
    )


@SETTINGS
@given(_any_node(
    st.recursive(st.text(max_size=3).map(Tree), _any_node, max_leaves=8)
))
def test_bracketed_writer_rejects_what_does_not_read_back(tree):
    # Any label at all: the writer refuses it, or the text reads back as the
    # same tree.
    try:
        text = write_bracketed(tree)
    except StructuralError:
        return
    assert parse_bracketed(text) == [tree]


@st.composite
def labeled_graphs(draw):
    """A random projective graph with arbitrary forms, tags and relations."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = random_projective_graph(rng, n)
    forms, tags, rels = (
        draw(st.lists(st.text(max_size=4), min_size=n, max_size=n)) for _ in range(3)
    )
    labels = [None if head == 0 else rel for head, rel in zip(shape.heads, rels)]
    return DepGraph(list(zip(forms, tags)), shape.heads, labels)


@SETTINGS
@given(labeled_graphs(), st.booleans())
def test_dependency_round_trip(graph, use_pos):
    config = ConversionConfig(labeled=True, use_pos=use_pos)
    if "" in graph.labels:
        # An empty relation would give a relation node that names none.
        with pytest.raises(StructuralError, match="has no relation"):
            dep_to_tree(graph, config)
        return
    tree = dep_to_tree(graph, config)
    # The tree keeps one label per token, so both slots come back as it.
    kept = [pos if use_pos else form for form, pos in graph.tokens]
    expected = DepGraph([(label, label) for label in kept], graph.heads, graph.labels)
    assert tree_to_dep(tree) == expected
