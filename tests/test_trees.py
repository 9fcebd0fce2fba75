import itertools

import numpy as np
import pytest

from oracles import reference_parse_bracketed, reference_read
from synthetic import sample_corpus, scaffold_grammar
from treebank_entropy.errors import EmptyInputError, ParseError, StructuralError
from treebank_entropy import trees
from treebank_entropy.grammar import Pcfg, Rule, Sampler
from treebank_entropy.trees import (
    DEFAULT_DROP_LABELS,
    Corpus,
    RuleTable,
    Tree,
    corpus_mlu,
    counted_bracketed,
    derivation,
    parse_bracketed,
    read_bracketed,
    write_bracketed,
)


def leaf(label):
    return Tree(label)


def depth(tree):
    """Number of edges on the longest root-to-leaf path."""
    best = 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if node.is_leaf:
            best = max(best, d)
        else:
            stack.extend((c, d + 1) for c in node.children)
    return best


class TestParseBracketed:
    def test_two_level_tree(self):
        (tree,) = parse_bracketed("(S (NP (PRP I)) (VP (VBP do)))")
        assert tree.label == "S"
        assert tree.frontier() == ["I", "do"]

    def test_single_rule_tree(self):
        (tree,) = parse_bracketed("(A a)")
        assert tree.label == "A"
        assert tree.children == (Tree("a"),)
        assert tree.frontier() == ["a"]

    def test_unbalanced_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_bracketed("((S (X x))")
        assert exc.value.offset == 11

    def test_offset_counts_characters_not_bytes(self):
        # 'é' is two bytes in UTF-8: the stray ')' is character 13, byte 15.
        text = "(S (A éé) ) )"
        for read in (parse_bracketed, counted_bracketed):
            with pytest.raises(ParseError) as exc:
                read(text)
            assert exc.value.offset == 13
        assert text[12] == ")" and len(text[:13].encode("utf-8")) == 15

    def test_close_without_open(self):
        with pytest.raises(ParseError):
            parse_bracketed("(A a)) ")

    def test_empty_node_label(self):
        with pytest.raises(StructuralError):
            parse_bracketed("((A a) (B b))")

    def test_node_without_children(self):
        with pytest.raises(StructuralError):
            parse_bracketed("(A)")

    def test_multiple_top_level_trees(self):
        trees = parse_bracketed("(A a)\n(B b) (C c)")
        assert [t.label for t in trees] == ["A", "B", "C"]

    def test_file_style_wrapper_unwraps(self):
        (tree,) = parse_bracketed("( (S (NP (PRP I)) (VP (VBP do))) )")
        assert tree.label == "S"

    def test_labels_kept_verbatim(self):
        (tree,) = parse_bracketed("(NP-SBJ-1 (PRP$ mine))")
        assert tree.label == "NP-SBJ-1"
        assert tree.children[0].label == "PRP$"


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        text = "(S (NP-SBJ (PRP I)) (VP (VBP do) (RB n't) (VP (VB have) (NP (DT any) (NNS kids)))))"
        (tree,) = parse_bracketed(text)
        assert parse_bracketed(write_bracketed(tree))[0] == tree

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(99)

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.3:
                return Tree(f"w{rng.integers(10)}")
            width = int(rng.integers(1, 4))
            return Tree(
                f"X{rng.integers(5)}", [random_tree(depth - 1) for _ in range(width)]
            )

        for _ in range(200):
            tree = random_tree(5)
            if tree.is_leaf:
                continue
            assert parse_bracketed(write_bracketed(tree))[0] == tree

    def test_deep_tree_no_recursion_limit(self):
        grammar = Pcfg(
            "S", [Rule("S", ("a", "S"), 0.99, 99), Rule("S", ("a",), 0.01, 1)]
        )
        tree = Sampler(grammar, max_nodes=100_000).sample_tree(
            np.random.default_rng(3)
        )
        assert parse_bracketed(write_bracketed(tree))[0] == tree


class TestSerializationGuard:
    def test_bad_labels_rejected(self):
        for label in ("has space", "pa(ren", ""):
            with pytest.raises(StructuralError, match="serializable"):
                write_bracketed(Tree("S", [Tree(label, [Tree("x")])]))

    def test_every_whitespace_character_rejected(self):
        # Any code point that reading splits at would change the tree read
        # back, on a leaf as much as on an internal node.
        spaces = [chr(i) for i in range(0x110000) if chr(i).isspace()]
        assert len(spaces) > 4
        for space in spaces:
            for tree in (Tree("S", [Tree(f"a{space}b")]),
                         Tree(f"S{space}", [Tree("a")])):
                with pytest.raises(StructuralError, match="serializable"):
                    write_bracketed(tree)


class TestPreterminalize:
    def test_pos_becomes_leaf(self):
        (out,) = parse_bracketed("(NP (PRP I))", preterminalize=True)
        assert out == Tree("NP", [leaf("PRP")])

    def test_bare_preterminal_becomes_leaf(self):
        (out,) = parse_bracketed("(PRP I)", preterminalize=True)
        assert out == leaf("PRP")

    def test_frontier_is_pos_layer(self):
        (out,) = parse_bracketed("(NP (PRP I) (VP (V go)))", preterminalize=True)
        assert out.frontier() == ["PRP", "V"]

    def test_depth_drops_by_one_everywhere(self):
        text = (
            "(S (NP (PRP I)) (VP (VBP do) (RB n't) (VP (VB have) (NP (DT any) (NNS kids)))))"
        )
        (tree,) = parse_bracketed(text)
        (out,) = parse_bracketed(text, preterminalize=True)
        assert depth(out) == depth(tree) - 1
        assert len(out.frontier()) == len(tree.frontier())

    def test_mixed_node_rejected(self):
        with pytest.raises(StructuralError, match="NP"):
            parse_bracketed("(VP (VBP do) (NP (DT the) dog))", preterminalize=True)


class TestStripping:
    def test_trace_subtree_removed(self):
        (out,) = parse_bracketed(
            "(S (NP-SBJ (-NONE- *T*-1)) (VP (VB go)))",
            drop_labels=DEFAULT_DROP_LABELS,
        )
        assert out.frontier() == ["go"]
        assert all(n.label != "NP-SBJ" for n in out.iter_nodes())

    def test_whole_tree_dropped(self):
        assert parse_bracketed("(S (-NONE- 0))", drop_labels=DEFAULT_DROP_LABELS) == []

    def test_function_tags_cut(self):
        (out,) = parse_bracketed(
            "(S (NP-SBJ-1 (PRP I)) (VP=2 (VBP do)))", strip_tags=True
        )
        labels = sorted(n.label for n in out.iter_nodes() if not n.is_leaf)
        assert labels == ["NP", "PRP", "S", "VBP", "VP"]

    def test_dashed_special_labels_kept(self):
        (out,) = parse_bracketed("(S (-LRB- x))", strip_tags=True)
        assert out.children[0].label == "-LRB-"


class TestCorpusMlu:
    def test_single_tree(self):
        (tree,) = parse_bracketed("(S (A a) (A b) (A c) (A d) (A e) (A f))")
        assert corpus_mlu(Corpus([tree])) == 6.0

    def test_two_trees_mean(self):
        t1 = parse_bracketed("(S (A a) (A b))")[0]
        t2 = parse_bracketed("(S (A a) (A b) (A c) (A d))")[0]
        assert corpus_mlu(Corpus([t1, t2])) == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInputError):
            corpus_mlu(Corpus([]))

    def test_sampled_geometric_mean_length(self):
        # Mean frontier length of S -> a S (1/2) | a (1/2) is 1/(1-1/2) = 2.
        grammar = Pcfg(
            "S", [Rule("S", ("a", "S"), 0.5, 1), Rule("S", ("a",), 0.5, 1)]
        )
        corpus = sample_corpus(Sampler(grammar), 100, np.random.default_rng(42))
        assert corpus_mlu(corpus) == pytest.approx(2.0, abs=0.45)

    def test_concatenation_is_weighted_mean(self):
        rng = np.random.default_rng(5)
        grammar = Pcfg(
            "S", [Rule("S", ("a", "S"), 0.4, 2), Rule("S", ("a",), 0.6, 3)]
        )
        sampler = Sampler(grammar)
        parts = [sample_corpus(sampler, int(n), rng) for n in (3, 11, 6)]
        merged = Corpus([t for c in parts for t in c.sentences])
        weighted = sum(len(c) * corpus_mlu(c) for c in parts) / len(merged)
        assert corpus_mlu(merged) == pytest.approx(weighted, abs=1e-12)


#: Every combination of the reader's cleaning options.
READ_OPTIONS = [
    dict(drop_labels=drop, strip_tags=tags, preterminalize=pre)
    for drop, tags, pre in itertools.product(
        (DEFAULT_DROP_LABELS, frozenset()), (False, True), (False, True)
    )
]


def _outcome(read, text, options):
    """The trees read, or the error's type, message and offset."""
    try:
        return read(text, **options)
    except (ParseError, StructuralError) as err:
        return type(err), str(err), getattr(err, "offset", None)


def _derivations(text, **options):
    """The derivations of the sentences that :func:`counted_bracketed` reads."""
    return counted_bracketed(text, **options).derivations()


def assert_reads_like_reference(text):
    """Both readers agree with the reference: the tree reader on the trees,
    the counting reader on their derivations, and both on any error."""
    for options in READ_OPTIONS:
        expected = _outcome(reference_read, text, options)
        assert _outcome(parse_bracketed, text, options) == expected, options
        if isinstance(expected, list):
            expected = [derivation(t) for t in expected]
        assert _outcome(_derivations, text, options) == expected, options


def random_ptb(rng, sentences):
    """PTB-style text: tagged phrases over POS pre-terminals, -NONE- traces
    (some filling a whole phrase or sentence), bare words beside phrases,
    and the unlabeled file wrapper."""
    phrases = ("S", "NP", "VP", "PP", "SBAR")
    tags = ("", "", "-SBJ", "-TMP-1", "=2", "-PRD=3")
    pos = ("NN", "VB", "DT", "IN", "-LRB-", "PRP$")

    def phrase(depth):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            r = rng.random()
            if r < 0.15:
                parts.append("(-NONE- *T*-1)")
            elif r < 0.18:
                parts.append(f"w{rng.integers(9)}")
            elif depth > 0 and r < 0.55:
                parts.append(phrase(depth - 1))
            else:
                parts.append(f"({pos[rng.integers(len(pos))]} w{rng.integers(9)})")
        label = phrases[rng.integers(len(phrases))] + tags[rng.integers(len(tags))]
        return f"({label} {' '.join(parts)})"

    out = []
    for _ in range(sentences):
        tree = phrase(int(rng.integers(0, 4)))
        out.append(f"( {tree} )" if rng.random() < 0.5 else tree)
    return "\n".join(out)


class TestReaderMatchesReference:
    """The one-pass and counting readers against the parse-then-rebuild
    pipeline."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_ptb(self, seed):
        rng = np.random.default_rng(seed)
        # One sentence at a time, so a mixed node in one sentence does not
        # hide the others; then all together.
        texts = [random_ptb(rng, 1) for _ in range(40)]
        for text in texts:
            assert_reads_like_reference(text)
        assert_reads_like_reference("\n".join(texts))

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_scaffold_samples(self, seed):
        corpus = sample_corpus(
            Sampler(scaffold_grammar()), 30, np.random.default_rng(seed)
        )
        text = "\n".join(write_bracketed(t) for t in corpus.sentences)
        assert_reads_like_reference(text)
        for tree in corpus.sentences:
            assert parse_bracketed(write_bracketed(tree)) == [tree]

    @pytest.mark.parametrize(
        "text",
        [
            "( (S (NP (PRP I)) (VP (VBP do))) )",
            "(S (A-SBJ (-NONE- *)) (VP (VB go)))",
            "(S (NP (-NONE- *)) (-NONE- *T*)) (S (NN x))",
            "( (-NONE- *) ) (S (NN x))",
            "(S (-NONE- (X x) y) (B b))",
            "(S (-NONE- (-NONE- x)) (B b))",
            "(S-TPC=1 (NP-SBJ (-LRB- -LRB-) (NN x)) (VP=2 (VB go)))",
            "(S (NP-SBJ-1 (PRP I)) (VP=2 (VBP do)))",
        ],
        ids=["wrapper", "trace-only-phrase", "frontier-dropped",
             "wrapped-trace", "drop-label-mixed", "nested-drop-labels",
             "tags", "tags-and-indices"],
    )
    def test_edge_cases(self, text):
        assert_reads_like_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            "((S (X x))",
            "(A a)) ",
            "((A a) (B b))",
            "(A)",
            "(VP (VBP do) (NP (DT the) dog))",
            "x (A a)",
            "( (A a) b )",
            "( (-NONE- x) y )",
            "(A (B b) (C))",
            "(NP (DT the) dog) (A a",
            "",
            # Offsets count characters, and whitespace as str.isspace does.
            "(S é字)　\x85((A a) (B b))",
            "(S　é (\x85(A 字)))",
            "(S é　字 (A\x85))",
            "(字 é)\x85(S　(A a) (B))",
            "(S é字)　\x85 x (A a)",
            "(S (A é)　字)\x85)",
            "(S é　字\x85",
        ],
    )
    def test_malformed(self, text):
        assert_reads_like_reference(text)

    def test_read_bracketed_cleans_in_one_pass(self, tmp_path):
        path = tmp_path / "bank.mrg"
        path.write_text("(S (NN x) (-NONE- *))", encoding="utf-8")
        corpus = read_bracketed(path, preterminalize=True)
        assert corpus.sentences == [Tree("S", [Tree("NN")])]


class TestCountBracketed:
    def test_derivation_in_pre_order(self):
        (got,) = counted_bracketed("( (S (NP (DT a) (NN b)) (VP (VB c) (-NONE- *))) )",
                                   drop_labels=DEFAULT_DROP_LABELS,
                                   preterminalize=True).derivations()
        assert got.root == "S"
        assert got.rules == [("S", ("NP", "VP")), ("NP", ("DT", "NN")), ("VP", ("VB",))]
        assert got.leaves == ["DT", "NN", "VB"]
        assert got.terminals == 3

    def test_bare_preterminal_is_a_leaf_sentence(self):
        assert counted_bracketed("(NN x)", preterminalize=True).derivations() == [
            derivation(Tree("NN"))
        ]

    def test_split_tokenizes_like_the_reference(self):
        # Every code point but the parentheses between two letters: a
        # whitespace character separates them for both readers, any other
        # one for neither.
        points = (chr(c) for c in range(0x110000) if chr(c) not in "()")
        text = "(S a" + "a".join(points) + "a)"
        expected = reference_parse_bracketed(text)
        assert parse_bracketed(text) == expected
        assert counted_bracketed(text).derivations() == [derivation(t) for t in expected]


#: Each case's text, and whether the columnar scan counts it (True) or
#: leaves it to the tree builder (False).
HAND_CASES = {
    "CRLF line ends and tabs": (
        "( (S\r\n\t(NP-SBJ (DT the)\t(NN dog))\r\n\t(VP (VBD ran))) )\r\n", True),
    "vertical tabs and form feeds": ("(S\v(NN a)\f(VB b))", True),
    **{f"a {sep!r} separator": (f"(S (NN a) (VB b{sep}c))", False)
       for sep in ("\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028")},
    "a NUL in a word": ("(S (NN a\x00b) (VB c))", False),
    "a lone surrogate": ("(S (NN \ud800) (VB c))", False),
    "non-ASCII labels and words": ("(NP (NNÉ café) (字 東京))\n(S (Ωmega ça))", True),
    "non-ASCII labels, then a stray ')'": ("(NP (NNÉ café) (字 東京)) )", False),
    "non-ASCII labels, then an empty node": ("(NP (NNÉ café) (字))", False),
    "labels of 7 to 17 bytes": (
        "(SBAR-TMP=12 (NP-SBJ-123 (NNPSXXXX word) (ABCDEFGHIJKLMNOP x)"
        " (ABCDEFGHI y) (ABCDEFGHIJKLMNOPQ z) (ABCDEFGH w)))", True),
    "labels that share their first 8 bytes": (
        "(S (ABCDEFGH1 x) (ABCDEFGH2 x) (ABCDEFGH x) (ABCDEFGH1 x))", True),
    "10,000 levels deep": ("(A " * 10_000 + "(B b)" + ")" * 10_000, True),
    "a wrapped 10,000-level chain": ("( " + "(A " * 10_000 + "(B b)" + ")" * 10_001, True),
    "a top-level pre-terminal": ("(NN dog)\n( (VB run) )", True),
    "a dropped sentence": ("( (-NONE- *) )\n(S (NN x))", True),
    "a top-level trace": ("(-NONE- *) (S (NN x))", True),
    "a phrase with a drop label": ("(S (-NONE- (A a)) (B b))", True),
    "phrases left empty": ("(S (NP-SBJ (-NONE- *)) (VP (VB go) (NP (-NONE- *T*-1))))", True),
    "a wide flat phrase": ("(NP " + " ".join(f"(T{i % 13} w{i})" for i in range(40)) + ")", True),
    "empty text": ("", True),
    "whitespace only": (" \n\t\r\n", True),
    "a group of two": ("( (A x) (B y) )", False),
    "a group over a word": ("( (A x) y )", False),
    "an inner unlabeled node": ("(S ((A x)))", False),
    "a node with two words": ("(NN a b)", False),
    "a word beside a phrase": ("(S (NP x) y)", False),
    "a phrase beside a word": ("(S y (NP x))", False),
    "an empty node": ("(S (A))", False),
    "empty parentheses": ("(S ())", False),
    "a stray word first": ("x (A a)", False),
    "a stray word last": ("(A a) x", False),
    "a stray ')'": ("(A a)) ", False),
    "an unclosed node": ("(S (A a)", False),
    "a lone ')'": (")", False),
    "a word alone": ("word", False),
}


class TestColumnarReader:
    @pytest.mark.parametrize("case", HAND_CASES)
    def test_reads_like_the_reference(self, case):
        text, scanned = HAND_CASES[case]
        for options in READ_OPTIONS:
            table = RuleTable()
            counts = trees._scanned(text, options["drop_labels"], options["strip_tags"],
                                    options["preterminalize"], table)
            assert (counts is not None) == scanned, options
            if counts is None:
                assert not len(table)  # left untouched
        assert_reads_like_reference(text)

    def test_regular_text_never_reaches_the_tree_builder(self, monkeypatch):
        text = "\n".join([
            "( (S (NP-SBJ-1 (DT the) (NN dog)) (VP=2 (VBD ran) (NP (-NONE- *T*-1)))) )",
            "( (-NONE- *) )",
            "(S (SBAR (-NONE- 0) (S (-NONE- *T*-2))) (NP-SBJ=3 (NNS birds)) (VP (VBP sing)))",
            "(NN rain)",
        ])
        expected = [[derivation(t) for t in reference_read(text, **options)]
                    for options in READ_OPTIONS]

        def refuse(*args):
            raise AssertionError("the tree builder ran")

        monkeypatch.setattr(trees, "_read", refuse)
        with pytest.raises(AssertionError, match="tree builder"):  # the patch holds
            counted_bracketed("(S (NP x) y)")
        for options, derivations in zip(READ_OPTIONS, expected):
            assert counted_bracketed(text, **options).derivations() == derivations, options

    def test_drop_labels_are_tested_before_the_cut(self):
        text = "(S (NN-SBJ a) (NN b) (VP=2 (NN c)))\n(S (NN-1 d))"
        for strip_tags, preterminalize in itertools.product((False, True), repeat=2):
            options = dict(drop_labels=frozenset({"NN", "VP"}), strip_tags=strip_tags,
                           preterminalize=preterminalize)
            assert trees._scanned(text, *options.values(), RuleTable()) is not None
            assert _outcome(_derivations, text, options) == [
                derivation(t) for t in reference_read(text, **options)]

    def test_rules_join_the_table_in_pre_order(self):
        table = RuleTable()
        table.intern([("VP", ("VB",))])
        counted_bracketed("(S (NP (DT a) (NN b)) (VP (VB c)))\n(S (VP (VB c)) (NP (NN d)))",
                          table, preterminalize=True)
        assert table.keys() == [("VP", ("VB",)), ("S", ("NP", "VP")), ("NP", ("DT", "NN")),
                                ("S", ("VP", "NP")), ("NP", ("NN",))]
