"""Differential tests of the array grammar: every view of a :class:`Pcfg`
and every value computed from it equals, bit for bit, what the
implementation that kept a grammar as :class:`Rule` objects and walked them
gives (``tests/oracles.py``), for grammars built from rules, from rule
counts and from grammar files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferencePcfg,
    RuleCounts,
    reference_count_totals,
    reference_counts_grammar,
    reference_dumps,
    reference_entropy_rate,
    reference_lengths,
    reference_loads,
    reference_local_entropies,
    reference_matrix,
    reference_root_row,
    reference_rule_arrays,
    reference_rule_freq_tables,
    reference_sampler_tables,
    reference_smoothed_local_entropies,
    reference_tree_probability,
)
from test_properties import CORPORA, _SYMBOLS
from treebank_entropy import entropy
from treebank_entropy.errors import TreebankEntropyError
from treebank_entropy.estimators import _RUNS, SmootherKind, site_rows
from treebank_entropy.grammar import (
    SYNTHETIC_ROOT,
    Pcfg,
    Rule,
    Sampler,
    dumps,
    induce,
    loads,
    tree_probability,
)
from treebank_entropy.trees import Corpus, derivation

SETTINGS = settings(max_examples=150, deadline=None)

#: Frequencies that keep a grammar off the count path: unobserved,
#: negative, beyond int64, and beyond a float.
ODD_FREQS = (0, -3, 2**70, 10**400)


def outcome(compute, *args):
    """What `compute` returns, or the type and message of what it raises
    (an `OverflowError` too, which `assert_same` rules out for every
    smoother)."""
    try:
        return compute(*args)
    except (TreebankEntropyError, OverflowError) as err:
        return type(err), str(err)


def bits(values):
    """The exact bytes of a float array, its dtype and its shape."""
    values = np.asarray(values)
    return values.dtype.str, values.shape, values.tobytes()


def float_bits(values):
    return [float(v).hex() for v in values]


@st.composite
def rule_lists(draw):
    """A root and rules over arbitrary labels, the left-hand sides
    interleaved, sometimes under a synthetic root.  The probabilities are a
    relative-frequency table, or weights with no frequencies, or weights
    with frequencies off the count path; a terminal may come before a
    non-terminal it precedes on a right-hand side."""
    symbols = draw(st.lists(_SYMBOLS.filter(lambda s: s != SYNTHETIC_ROOT),
                            min_size=2, max_size=8, unique=True))
    k = draw(st.integers(1, len(symbols) - 1))
    nonterminals, terminals = symbols[:k], symbols[k:]
    rhss = {}
    if draw(st.booleans()):  # a terminal first, then the last non-terminal
        rhss[nonterminals[0]] = [(terminals[0], nonterminals[-1])]
    for lhs in nonterminals:
        rhss.setdefault(lhs, []).extend(draw(st.lists(
            st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=3)))
    root = draw(st.sampled_from(nonterminals))
    if draw(st.booleans()):
        root = SYNTHETIC_ROOT
        rhss[root] = [(nt,) for nt in draw(st.lists(
            st.sampled_from(nonterminals), min_size=1, max_size=3))]
    kind = draw(st.sampled_from(("relative", "weights", "odd")))
    rules = []
    for lhs, options in rhss.items():
        options = list(dict.fromkeys(options))
        weights = draw(st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.3, 1.0, 7.0)),
                                min_size=len(options), max_size=len(options)))
        freqs = draw(st.lists(st.integers(1, 40), min_size=len(options),
                              max_size=len(options)))
        if kind == "relative":
            probs = [f / sum(freqs) for f in freqs]
        else:
            total = sum(weights) or 1.0
            probs = [w / total for w in weights]
            freqs = [0] * len(options) if kind == "weights" else [
                draw(st.sampled_from((*ODD_FREQS, f))) for f in freqs]
        rules.extend(Rule(lhs, rhs, p, f) for rhs, p, f in zip(options, probs, freqs))
    return root, draw(st.permutations(rules))


def assert_same(grammar: Pcfg, reference: ReferencePcfg, through_file=True):
    # The views.
    assert grammar.root == reference.root
    assert grammar.nonterminals == reference.nonterminals
    assert grammar.nt_index == reference.nt_index
    assert grammar.terminals == reference.terminals
    assert len(grammar) == len(reference.rules)
    assert grammar.rules == reference.rules
    assert [float_bits([r.prob]) for r in grammar.rules] == [
        float_bits([r.prob]) for r in reference.rules]
    assert [type(r.freq) for r in grammar.rules] == [type(r.freq) for r in reference.rules]
    for nt in reference.nonterminals:
        assert grammar.rules_for(nt) == reference.rules_for(nt)
    for rule in reference.rules:
        assert grammar.lookup(rule.lhs, rule.rhs) == rule
    assert grammar.lookup(grammar.root, ("->",)) is None
    assert outcome(grammar.validate) == outcome(reference.validate)

    # M, the expected terminals and the local entropies.
    arrays = reference_rule_arrays(reference)
    rule, child, emitted = entropy._children(grammar)
    assert bits(rule) == bits(arrays.rule)
    assert bits(child) == bits(arrays.child)
    assert bits(emitted) == bits(arrays.emitted)
    entries = entropy._entries(grammar, rule, child)
    for got, want in zip(entries, (arrays.rows, arrays.cols, arrays.weights)):
        assert bits(got) == bits(want)
    assert bits(entropy.characteristic_matrix(grammar)) == bits(reference_matrix(reference))
    assert bits(entropy.local_lengths(grammar)) == bits(reference_lengths(reference))
    assert bits(entropy.local_entropies(grammar)) == bits(
        reference_local_entropies(reference))

    # Every smoother's kernel over the frequency tables, where each count is
    # positive, and SITE where the frequencies are the counts of whole trees.
    tables = outcome(reference_rule_freq_tables, reference)
    totals = outcome(reference_count_totals, reference)
    for smoother in SmootherKind:
        want = outcome(reference_smoothed_local_entropies, reference, smoother)
        if isinstance(tables, dict):
            got = outcome(_RUNS[smoother], grammar.freq[grammar.order], grammar.starts)
            if isinstance(want, np.ndarray):
                assert bits(got) == bits(want)
            else:
                assert got == want
            # Counts beyond int64 (CWJ) or beyond a float (ML, CAE) are an input error.
            assert not isinstance(got, tuple) or got[0] is not OverflowError
        if isinstance(totals, entropy.CountTotals):
            got = site_rows(grammar, grammar.freq[None], [smoother])[0]
            assert float_bits(got) == float_bits([reference_root_row(reference, want, totals)[1]])
        elif totals is not None:  # a block of M that nothing feeds
            assert outcome(site_rows, grammar, grammar.freq[None], [smoother])[0] is totals[0]

    # The count path, the rate and the radius.
    got, want = outcome(entropy.count_totals, grammar), outcome(
        reference_count_totals, reference)
    if isinstance(want, entropy.CountTotals):
        assert bits(got.occurrences) == bits(want.occurrences)
        assert (got.sentences, got.terminals) == (want.sentences, want.terminals)
    else:
        assert got == want
    got, want = outcome(entropy.entropy_rate, grammar), outcome(
        reference_entropy_rate, reference)
    if isinstance(want, entropy.RateReport):
        assert float_bits([got.entropy, got.mlu, got.rate, got.spectral_radius]) == (
            float_bits([want.entropy, want.mlu, want.rate, want.spectral_radius]))
    else:
        assert got == want

    # The sampler's tables.
    if outcome(reference.validate) is None:
        tables = Sampler(grammar)._tables
        want = reference_sampler_tables(reference)
        assert list(tables) == list(want)
        for nt, (cum, picks) in want.items():
            assert float_bits(tables[nt][0]) == float_bits(cum)
            assert tables[nt][1] == picks

    # The grammar file, written and read back.
    text = outcome(dumps, grammar)
    assert text == outcome(reference_dumps, reference)
    if through_file and isinstance(text, str):
        loaded = outcome(loads, text)
        want = outcome(reference_loads, text)
        if isinstance(want, ReferencePcfg):
            assert_same(loaded, want, through_file=False)
        else:
            assert loaded == want


@SETTINGS
@given(rule_lists())
def test_grammar_of_rules_equals_reference(spec):
    root, rules = spec
    grammar = outcome(Pcfg, root, rules)
    reference = outcome(ReferencePcfg, root, rules)
    if isinstance(reference, ReferencePcfg):
        assert_same(grammar, reference)
    else:
        assert grammar == reference


@SETTINGS
@given(CORPORA, CORPORA)
def test_grammar_of_counts_equals_reference(trees, others):
    # Several root labels give a synthetic root.
    grammar = induce(Corpus(trees))
    reference = reference_counts_grammar(RuleCounts(derivation(t) for t in trees))
    assert_same(grammar, reference)
    for tree in trees + others:  # the others may use rules it lacks
        got = outcome(tree_probability, grammar, tree)
        want = outcome(reference_tree_probability, reference, tree)
        assert got == want
        if isinstance(want, tuple) and not isinstance(want[0], type):
            assert float_bits(got) == float_bits(want)


def test_terminal_before_nonterminals_and_synthetic_root():
    rules = [Rule("A", ("t", "B"), 0.5, 1), Rule(SYNTHETIC_ROOT, ("A",), 1.0, 2),
             Rule("B", ("u",), 1.0, 3), Rule("A", ("t",), 0.5, 1)]
    grammar = Pcfg(SYNTHETIC_ROOT, rules)
    assert grammar.symbols == ("A", SYNTHETIC_ROOT, "B", "t", "u")
    assert grammar.lhs.tolist() == [0, 1, 2, 0]
    assert grammar.rhs_offsets.tolist() == [0, 2, 3, 4, 5]
    assert grammar.rhs.tolist() == [3, 2, 0, 4, 3]
    assert grammar.order.tolist() == [0, 3, 1, 2]
    assert grammar.starts.tolist() == [0, 2, 3, 4]
    assert_same(grammar, ReferencePcfg(SYNTHETIC_ROOT, rules))


@pytest.mark.parametrize("freqs", [(10**400, -3), (2**70, 3)])
def test_frequencies_beyond_int64_kept_exactly(freqs):
    rules = [Rule("S", ("a", "S"), 0.5, freqs[0]), Rule("S", ("a",), 0.5, freqs[1])]
    grammar = loads(dumps(Pcfg("S", rules)))
    assert grammar.rules == tuple(rules)
    assert entropy.count_totals(grammar) is None
    assert_same(grammar, ReferencePcfg("S", rules))
