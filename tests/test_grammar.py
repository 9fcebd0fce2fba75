import sys

import numpy as np
import pytest

from oracles import (ReferencePcfg, random_enumerable_pcfg, reference_loads,
                     reference_rule_freq_tables, reference_sample, unreachable_nonterminals)
from synthetic import sample_corpus, scaffold_grammar
from test_counted import _conllu_texts, _several_root_texts
from treebank_entropy import grammar_text
from treebank_entropy.cli import main
from treebank_entropy.depconv import ConversionConfig, counted_conllu
from treebank_entropy.errors import (
    AlphabetClashError,
    InputError,
    OutOfGrammarError,
    ParseError,
    SamplingDivergenceError,
    StructuralError,
)
from treebank_entropy.grammar import (
    SYNTHETIC_ROOT,
    FreqTable,
    Pcfg,
    Rule,
    Sampler,
    dumps,
    induce,
    loads,
    sample,
    tree_probability,
)
from treebank_entropy.trees import (Corpus, RuleTable, Tree, counted_bracketed, derivation,
                                    merge, parse_bracketed)

NEGATION_TREE = (
    "(S (NP-SBJ (PRP I)) (VP (VBP do) (RB n't)"
    " (VP (VB have) (NP (DT any) (NNS kids)))))"
)


def corpus_of(*texts):
    return Corpus([parse_bracketed(t)[0] for t in texts])


def geometric(q=0.5):
    return Pcfg("S", [Rule("S", ("a", "S"), q, 1), Rule("S", ("a",), 1 - q, 1)])


class TestInduce:
    def test_single_tree_rules(self):
        grammar = induce(corpus_of(NEGATION_TREE))
        assert len(grammar.rules) == 11
        assert grammar.root == "S"
        # Every non-terminal with one expansion type gets probability 1;
        # VP was seen twice with two distinct expansions.
        by_str = {str(r): r for r in grammar.rules}
        assert by_str["VP -> VBP RB VP"].prob == 0.5
        assert by_str["VP -> VB NP"].prob == 0.5
        ones = [r for r in grammar.rules if r.lhs != "VP"]
        assert all(r.prob == 1.0 for r in ones)

    def test_relative_frequencies(self):
        grammar = induce(corpus_of("(S (A a))", "(S (A b))"))
        by_str = {str(r): r.prob for r in grammar.rules}
        assert by_str["S -> A"] == 1.0
        assert by_str["A -> a"] == 0.5
        assert by_str["A -> b"] == 0.5

    def test_synthetic_root_added(self):
        grammar = induce(corpus_of("(S (A a))", "(S (A a))", "(X (A a))"))
        assert grammar.root == SYNTHETIC_ROOT
        by_str = {str(r): r for r in grammar.rules}
        assert by_str[f"{SYNTHETIC_ROOT} -> S"].prob == pytest.approx(2 / 3)
        assert by_str[f"{SYNTHETIC_ROOT} -> X"].prob == pytest.approx(1 / 3)
        assert by_str[f"{SYNTHETIC_ROOT} -> S"].freq == 2

    def test_alphabet_clash_rejected(self):
        with pytest.raises(AlphabetClashError, match="A"):
            induce(corpus_of("(S (A a))", "(S (B A))"))

    def test_properness_after_induction(self):
        rng = np.random.default_rng(8)
        sampler = Sampler(
            Pcfg(
                "S",
                [
                    Rule("S", ("a", "S", "S"), 0.2, 1),
                    Rule("S", ("b", "S"), 0.3, 1),
                    Rule("S", ("a",), 0.3, 1),
                    Rule("S", ("b",), 0.2, 1),
                ],
            )
        )
        grammar = induce(sample_corpus(sampler, 500, rng))
        grammar.validate(tol=1e-9)

    def test_consistency_probabilities_converge(self):
        truth = Pcfg(
            "S",
            [
                Rule("S", ("a", "S"), 0.3, 1),
                Rule("S", ("b", "S"), 0.2, 1),
                Rule("S", ("c",), 0.5, 1),
            ],
        )
        rng = np.random.default_rng(123)
        sampler = Sampler(truth)
        errors = []
        for size in (100, 1000, 10000):
            learned = induce(sample_corpus(sampler, size, rng))
            worst = max(
                abs(learned.lookup(r.lhs, r.rhs).prob - r.prob)
                for r in truth.rules
            )
            errors.append(worst)
        assert errors[-1] < 0.02
        assert errors[-1] < errors[0]


class TestTreeProbability:
    def test_deterministic_tree(self):
        corpus = corpus_of("(S (A a) (B b))")
        grammar = induce(corpus)
        result = tree_probability(grammar, corpus.sentences[0])
        assert result.prob == 1.0
        assert result.log2 == 0.0

    def test_two_applications(self):
        grammar = geometric(0.5)
        (tree,) = parse_bracketed("(S a (S a))")
        result = tree_probability(grammar, tree)
        assert result.prob == pytest.approx(0.25)
        assert result.log2 == pytest.approx(-2.0)

    def test_unknown_rule_named(self):
        grammar = geometric(0.5)
        (tree,) = parse_bracketed("(S b)")
        with pytest.raises(OutOfGrammarError, match="S -> b"):
            tree_probability(grammar, tree)

    def test_synthetic_root_factor_included(self):
        grammar = induce(corpus_of("(S (A a))", "(X (A a))"))
        (tree,) = parse_bracketed("(S (A a))")
        assert tree_probability(grammar, tree).prob == pytest.approx(0.5)

    def test_probabilities_sum_to_one_over_depth(self):
        # Properness: tree probabilities over all trees of bounded depth
        # approach total mass one as the bound grows.
        grammar = geometric(0.5)

        def tree_of_depth(k):
            node = Tree("S", [Tree("a")])
            for _ in range(k):
                node = Tree("S", [Tree("a"), node])
            return node

        total = 0.0
        for k in range(40):
            total += tree_probability(grammar, tree_of_depth(k)).prob
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_log_space_no_underflow(self):
        grammar = geometric(0.5)
        deep = parse_bracketed("(S a " * 2000 + "(S a)" + ")" * 2000)[0]
        result = tree_probability(grammar, deep)
        assert result.prob == 0.0  # linear scale underflows
        assert result.log2 == pytest.approx(-2001.0)


class TestSampler:
    def test_deterministic_grammar_single_tree(self):
        grammar = Pcfg("S", [Rule("S", ("a",), 1.0, 1)])
        tree = sample(grammar, seed=0)
        assert tree == parse_bracketed("(S a)")[0]

    def test_same_seed_same_tree(self):
        grammar = geometric(0.5)
        assert sample(grammar, seed=11) == sample(grammar, seed=11)

    def test_mean_frontier_length(self):
        grammar = geometric(0.5)
        rng = np.random.default_rng(1)
        sampler = Sampler(grammar)
        total = sum(sampler.sample(rng).terminals for _ in range(100_000))
        assert total / 100_000 == pytest.approx(2.0, abs=0.02)

    def test_distribution_matches_tree_probability(self):
        grammar = Pcfg(
            "S",
            [
                Rule("S", ("a",), 0.5, 1),
                Rule("S", ("b",), 0.3, 1),
                Rule("S", ("c",), 0.2, 1),
            ],
        )
        rng = np.random.default_rng(77)
        sampler = Sampler(grammar)
        counts = {"a": 0, "b": 0, "c": 0}
        n = 100_000
        for _ in range(n):
            counts[sampler.sample(rng).leaves[0]] += 1
        chi2 = sum(
            (counts[sym] - n * p) ** 2 / (n * p)
            for sym, p in (("a", 0.5), ("b", 0.3), ("c", 0.2))
        )
        assert chi2 < 13.8  # chi-square(2 dof) at p = 0.001

    def test_divergent_draws_rejected(self):
        # Every possible tree exceeds the node budget, so all retries fail.
        grammar = Pcfg(
            "S",
            [Rule("S", ("A", "A", "A", "A"), 1.0, 1), Rule("A", ("a",), 1.0, 4)],
        )
        sampler = Sampler(grammar, max_nodes=3)
        with pytest.raises(SamplingDivergenceError):
            sampler.sample(np.random.default_rng(0))

    @pytest.mark.parametrize("max_nodes", [1, 0, -5])
    def test_budget_below_smallest_tree_rejected(self, max_nodes):
        # No tree has fewer than two nodes: a root and one child.
        with pytest.raises(InputError, match="max_nodes must be at least 2"):
            Sampler(geometric(0.5), max_nodes=max_nodes)
        assert sample(geometric(0.5), seed=0, max_nodes=2) == parse_bracketed("(S a)")[0]

    def test_retry_count_reported(self):
        grammar = Pcfg(
            "S", [Rule("S", ("S", "S"), 0.55, 11), Rule("S", ("a",), 0.45, 9)]
        )
        sampler = Sampler(grammar, max_nodes=12)
        rng = np.random.default_rng(5)
        retried = 0
        for _ in range(200):
            sampler.sample(rng)
            retried += sampler.last_retries
        assert retried > 0

    @pytest.mark.parametrize(
        "case, max_nodes",
        [
            ("scaffold", 10_000),
            ("random", 10_000),
            ("binary", 12),
            ("synthetic-root", 10_000),
            ("critical", 50),
        ],
    )
    def test_draws_match_reference_sampler(self, case, max_nodes):
        if case == "scaffold":
            grammar = scaffold_grammar()
        elif case == "random":
            grammar, _, _ = random_enumerable_pcfg(np.random.default_rng(8))
        elif case == "binary":
            grammar = Pcfg(
                "S", [Rule("S", ("S", "S"), 0.55, 11), Rule("S", ("a",), 0.45, 9)]
            )
        elif case == "synthetic-root":
            grammar = induce(corpus_of(
                "(S (NP d n) (VP v (NP d n)))", "(S (S (VP v)) and (S (VP v)))",
                "(NP (NP d n) (PP p (NP n)))", "(VP v)",
            ))
            assert grammar.root == SYNTHETIC_ROOT
        else:
            grammar = Pcfg(
                "S", [Rule("S", ("S", "S"), 0.5, 1), Rule("S", ("a",), 0.5, 1)]
            )
        sampler = Sampler(grammar, max_nodes=max_nodes)
        rng, ref_rng, tree_rng = (np.random.default_rng(13) for _ in range(3))
        retried = 0
        for _ in range(200):
            expected, retries = reference_sample(grammar, ref_rng, max_nodes)
            assert sampler.sample(rng) == derivation(expected)
            assert sampler.last_retries == retries
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert sampler.sample_tree(tree_rng) == expected
            assert sampler.last_retries == retries
            retried += retries
        assert (retried > 0) == (case in ("binary", "critical"))
        assert tree_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_deep_tree_matches_reference_without_recursion(self):
        grammar = Pcfg(
            "S", [Rule("S", ("a", "S"), 0.9999, 1), Rule("S", ("a",), 0.0001, 1)]
        )
        expected, _ = reference_sample(grammar, np.random.default_rng(3), 100_000)
        drawn = Sampler(grammar, max_nodes=100_000)
        assert len(expected.frontier()) > sys.getrecursionlimit()
        assert drawn.sample_tree(np.random.default_rng(3)) == expected
        assert drawn.sample(np.random.default_rng(3)) == derivation(expected)

    @pytest.mark.parametrize("u, picked", [(0.9999999999999999, 9), (0.1, 1)])
    def test_pick_at_a_cumulative_bound(self, u, picked):
        # Ten rules at 0.1 accumulate to 0.9999999999999999, the largest
        # value rng.random() returns: a draw of it passes every bound and
        # takes the last rule.  A draw equal to an inner bound takes the
        # rule after it.
        grammar = Pcfg("S", [Rule("S", (f"a{i}",), 0.1, 1) for i in range(10)])

        class FixedDraw:
            def random(self):
                return u

        assert np.cumsum([0.1] * 10)[-1] == 0.9999999999999999
        drawn = Sampler(grammar).sample(FixedDraw())
        assert drawn.rules == [("S", (f"a{picked}",))]
        expected, _ = reference_sample(grammar, FixedDraw(), 10)
        assert expected == Tree("S", [Tree(f"a{picked}")])
        assert Sampler(grammar).sample_tree(FixedDraw()) == expected

    def test_derivation_node_count_equals_tree_node_count(self):
        sampler = Sampler(scaffold_grammar())
        rng, tree_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(50):
            drawn = sampler.sample(rng)
            assert drawn.node_count() == sampler.sample_tree(tree_rng).node_count()


class TestFreqTables:
    def test_observed_counts(self):
        grammar = induce(corpus_of("(S (A a))", "(S (A a))", "(S (A a) (A b))"))
        tables = reference_rule_freq_tables(grammar)
        assert tables["S"].counts == (2, 1)
        assert tables["A"].counts == (3, 1)
        assert tables["A"].n == 4

    def test_single_observation(self):
        grammar = induce(corpus_of("(S (A a))"))
        assert tables_equal(reference_rule_freq_tables(grammar)["A"], FreqTable((1,)))

    def test_single_tree_tables(self):
        grammar = induce(corpus_of(NEGATION_TREE))
        tables = reference_rule_freq_tables(grammar)
        assert tables["VP"].counts == (1, 1)
        for nt in ("S", "NP-SBJ", "NP", "PRP", "VBP", "RB", "VB", "DT", "NNS"):
            assert tables[nt].counts == (1,)

    def test_counts_required(self):
        grammar = Pcfg("S", [Rule("S", ("a",), 1.0)])
        with pytest.raises(StructuralError, match="frequency"):
            reference_rule_freq_tables(grammar)

    def test_invalid_table_rejected(self):
        with pytest.raises(StructuralError):
            FreqTable(())
        with pytest.raises(StructuralError):
            FreqTable((0, 2))


def tables_equal(a, b):
    return a.counts == b.counts and a.n == b.n


class TestSerialization:
    def test_round_trip_probabilities_exact(self):
        rng = np.random.default_rng(3)
        truth = Pcfg(
            "S",
            [
                Rule("S", ("a", "S"), 1 / 3, 17),
                Rule("S", ("b",), 2 / 3, 34),
            ],
        )
        sampler = Sampler(truth)
        grammar = induce(sample_corpus(sampler, 200, rng))
        restored = loads(dumps(grammar))
        assert restored.root == grammar.root
        assert restored.rules == grammar.rules

    def test_header_round_trip(self):
        grammar = induce(corpus_of("(S (A a))", "(X (A a))"))
        restored = loads(dumps(grammar))
        assert restored.root == SYNTHETIC_ROOT

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError):
            loads("#root S\nnot a rule line\n")

    def test_missing_root_rejected(self):
        with pytest.raises(ParseError, match="root"):
            loads("0.5\t1\tS -> a\n0.5\t1\tS -> b S\n")

    @pytest.mark.parametrize("text, line", [
        # A second header: the last one used to win.
        ("#root S\n1\t1\tS -> a\n#root A\n1\t1\tA -> a\n", 3),
        ("#root S\n#root S\n1\t1\tS -> a\n", 2),
        # A header joined to its symbol, or without one.
        ("#rootS\n1\t1\tS -> a\n", 1),
        ("#root\n1\t1\tS -> a\n", 1),
        ("#root S A\n1\t1\tS -> a\n", 1),
        # The arrow as a symbol, which dumps refuses to write.
        ("#root S\n0.5\t1\tS -> a\n0.5\t1\tS -> b -> c\n", 3),
        ("#root S\n1\t1\tS -> ->\n", 2),
        ("#root S\n1\t1\t-> -> a\n", 2),
    ])
    def test_only_what_dumps_writes_is_read(self, tmp_path, capsys, text, line):
        with pytest.raises(ParseError) as err:
            loads(text)
        assert err.value.line == line
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["rate", "--grammar", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at line {line}" in captured.err

    def test_empty_symbol_not_serializable(self):
        # It was written as "S -> a " and read back as the rule S -> a.
        grammar = Pcfg("S", [Rule("S", ("a", ""), 0.5, 1), Rule("S", ("b",), 0.5, 1)])
        with pytest.raises(StructuralError, match="^symbol '' is not serializable$"):
            dumps(grammar)

    def test_header_and_comments_around_rules(self):
        grammar = loads("# the root of\n\n1\t2\tS -> a\n#root  S \n# is S\n")
        assert grammar.root == "S"
        assert grammar.rules == (Rule("S", ("a",), 1.0, 2),)


class TestPcfgValidation:
    def test_improper_rejected(self):
        grammar = Pcfg("S", [Rule("S", ("a",), 0.6, 1), Rule("S", ("b",), 0.3, 1)])
        with pytest.raises(StructuralError, match="sum to 1"):
            grammar.validate()

    def test_float_sums_do_not_decide_near_the_tolerance(self):
        # Summed in floats, ten 0.1s fall 1.1e-16 short of one, but their
        # exact sum is one; 0.5 + 0.5 absorbs a hundred 1e-16s, which the
        # exact sum keeps (as 9.992e-15 above one, to the nearest double).
        tenths = [Rule("S", (f"a{i}",), 0.1, 1) for i in range(10)]
        assert sum([0.1] * 10) != 1.0
        Pcfg("S", tenths).validate(tol=1e-17)
        crumbs = [0.5, 0.5] + [1e-16] * 100
        assert sum(crumbs) == 1.0
        grammar = Pcfg("S", [Rule("S", (f"a{i}",), p, 1) for i, p in enumerate(crumbs)])
        with pytest.raises(StructuralError, match=r"^probabilities of 'S' sum to 1\+9\.992e-15$"):
            grammar.validate(tol=5e-15)

    def test_first_improper_nonterminal_named(self):
        # B is improper by its exact sum alone, C by its float sum too.
        rules = [Rule("A", ("B",), 0.5, 1), Rule("A", ("C",), 0.5, 1),
                 *(Rule("B", (f"b{i}",), p, 1) for i, p in enumerate([0.5, 0.5] + [1e-16] * 100)),
                 Rule("C", ("c",), 0.5, 1), Rule("C", ("d",), 0.4, 1)]
        for tol, name in ((5e-15, "B"), (1e-13, "C")):
            with pytest.raises(StructuralError) as err:
                Pcfg("A", rules).validate(tol)
            assert str(err.value).startswith(f"probabilities of '{name}' sum to 1")
            with pytest.raises(StructuralError) as want:
                ReferencePcfg("A", rules).validate(tol)
            assert str(err.value) == str(want.value)

    def test_duplicate_rule_rejected(self):
        with pytest.raises(StructuralError, match="duplicate"):
            Pcfg("S", [Rule("S", ("a",), 0.5, 1), Rule("S", ("a",), 0.5, 1)])

    #: Duplicates of a one-word and of a two-word packed key.
    DUPLICATE_RHS = ["a B", " ".join(f"a{i}" for i in range(40))]

    @pytest.mark.parametrize("rhs", DUPLICATE_RHS, ids=["short", "long"])
    def test_duplicate_rules_refused_by_the_constructor(self, rhs):
        rules = [Rule("S", tuple(rhs.split()), 0.5, 1), Rule("B", ("b",), 1.0, 2),
                 Rule("S", tuple(rhs.split()), 0.5, 1)]
        with pytest.raises(StructuralError, match=r"^duplicate rules \(same lhs and rhs\)$"):
            Pcfg("S", rules)

    @pytest.mark.parametrize("scan", [True, False], ids=["scanned", "lines"])
    @pytest.mark.parametrize("rhs", DUPLICATE_RHS, ids=["short", "long"])
    def test_duplicate_rules_refused_by_loads(self, rhs, scan):
        text = f"#root S\n0.5\t1\tS -> {rhs}\n1\t2\tB -> b\n0.5\t1\tS -> {rhs}\n"
        if not scan:  # two spaces: only the line reader takes it
            text = text.replace(" -> ", "  -> ")
        assert (grammar_text.scanned(text) is not None) == scan
        with pytest.raises(StructuralError, match=r"^duplicate rules \(same lhs and rhs\)$"):
            loads(text)

    @pytest.mark.parametrize("texts", [
        ["(S (A a) (B b))", "(S (A a) (B c))", "(X (A a))"],  # a synthetic root
        ["(S (A a) (S (B b)))", "(S (A c))"],
    ])
    def test_induced_grammar_has_the_arrays_of_its_checked_rules(self, texts):
        grammar = induce(corpus_of(*texts))
        grammar._refuse_duplicates()
        checked = Pcfg(grammar.root, grammar.rules)
        assert grammar.symbols == checked.symbols
        for name in ("lhs", "rhs_offsets", "rhs", "prob", "freq", "order", "starts"):
            got, want = getattr(grammar, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_unreachable_reported(self):
        grammar = Pcfg(
            "S",
            [Rule("S", ("a",), 1.0, 1), Rule("B", ("b",), 1.0, 1)],
        )
        assert unreachable_nonterminals(grammar) == {"B"}

    def test_empty_rhs_rejected(self):
        with pytest.raises(StructuralError, match="empty"):
            Pcfg("S", [Rule("S", (), 1.0, 1)])


def loaded_by_lines(text):
    """What :func:`loads` gives when the line loop reads `text`."""
    grammar = Pcfg._of(*grammar_text.lines(text))
    grammar._refuse_duplicates()
    grammar.validate()
    return grammar


def load_outcome(load, text):
    """The grammar `load` reads from `text`, or the type, message and line
    of what it raises."""
    try:
        return load(text)
    except (ParseError, StructuralError) as err:
        return type(err), str(err), getattr(err, "line", None)


def float_bits(values):
    return [float(v).hex() for v in values]


def assert_loads_like_the_loop(text):
    """The array scan, the line loop and the reference reader agree on
    `text`: the same rules in the same order, bit-equal probabilities,
    equal frequencies and the same symbol order, or the same error."""
    got = load_outcome(loads, text)
    want = load_outcome(loaded_by_lines, text)
    if not isinstance(want, Pcfg):
        assert got == want
        return
    assert isinstance(got, Pcfg), got
    assert got.root == want.root
    assert got.symbols == want.symbols
    assert got.rules == want.rules
    assert float_bits(got.prob) == float_bits(want.prob)
    assert got.freq.dtype == want.freq.dtype and got.freq.tolist() == want.freq.tolist()
    for name in ("lhs", "rhs_offsets", "rhs", "order", "starts"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    reference = load_outcome(reference_loads, text)
    if isinstance(reference, ReferencePcfg):
        assert got.rules == reference.rules
        assert float_bits(got.prob) == float_bits([r.prob for r in reference.rules])
        assert got.nonterminals == reference.nonterminals


BASE = "#root S\n0.5\t1\tS -> a S\n0.5\t2\tS -> b\n"


class TestScannedLoads:
    """The array scan of a grammar file against the line loop it falls back
    to, and against the reference reader."""

    @pytest.mark.parametrize("text", [
        # Characters that end a line or split a field for str, and NUL.
        BASE.replace("a S", "a\x00b S"),
        BASE.replace("\n", "\r\n"),
        BASE.replace("S\n0.5", "S\r0.5"),
        BASE.replace("a S", "a\vS"), BASE.replace("a S", "a\fS"),
        *(BASE.replace("a S", f"a{c}S") for c in "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"),
        BASE.replace("-> b", "-> b\x85c"),
        # A repeated, leading or trailing space, or a tab in the rule.
        BASE.replace("S -> a", "S ->  a"), BASE.replace("S -> b", " S -> b"),
        BASE.replace("-> b", "-> b "), BASE.replace("S -> b", "S ->\tb"),
        " " + BASE, BASE.replace("0.5\t2", " 0.5\t2"), BASE.replace("\t2", "\t 2"),
        BASE + "  \n", BASE + "\t\n", BASE.replace("#root S", "#root  S"),
        BASE.replace("#root S", "#root\tS"), BASE.replace("#root S", "#root S "),
        # Numbers that float() or int() reads but dumps does not write.
        BASE.replace("\t2\t", "\t+2\t"), BASE.replace("0.5\t2", "+0.5\t2"),
        BASE.replace("\t2\t", "\t1_0\t"), BASE.replace("0.5\t2", "0.5_0\t2"),
        BASE.replace("\t2\t", "\t\u0663\t"), BASE.replace("0.5\t2", "\u0660.5\t2"),
        # A frequency of more than 18 digits, within int64 or beyond it.
        BASE.replace("\t2\t", "\t9223372036854775807\t"),
        BASE.replace("\t2\t", "\t9223372036854775808\t"),
        BASE.replace("\t2\t", "\t0000000000000000002\t"),
        # Probabilities that float() reads as inf or nan, which validate
        # refuses, or does not read.
        BASE.replace("0.5\t2", "inf\t2"), BASE.replace("0.5\t2", "nan\t2"),
        BASE.replace("0.5\t2", "0x1p-1\t2"),
        # Text that does not encode, and no text.
        BASE.replace("a S", "\ud800 S"), "",
        # What the loop refuses.
        BASE.replace("#root S", "#rootS"), BASE.replace("#root S", "#root"),
        BASE.replace("#root S", "#root S A"), BASE + "#root S\n", BASE.replace("#root S\n", ""),
        BASE.replace("#root S\n", "#rooted\n") + "#root S",
        BASE.replace("-> b", "-> b -> c"), BASE.replace("-> b", "-> ->"),
        BASE.replace("S -> b", "-> -> b"), BASE.replace("S -> b", "S ->"),
        BASE.replace("S -> b", "S b"), BASE.replace("\t2\t", "\t2"),
        BASE.replace("0.5\t2", "0.5\t2\t3"), BASE.replace("0.5\t2", "1e\t2"),
        BASE.replace("\t2\t", "\t-\t"), BASE.replace("0.5\t2", "\t2"),
    ])
    def test_irregular_text_falls_back(self, text):
        assert grammar_text.scanned(text) is None
        assert_loads_like_the_loop(text)

    @pytest.mark.parametrize("text", [
        BASE, BASE[:-1],
        # Signs, dots and exponents that dumps may write or a user may.
        BASE.replace("0.5\t2", "-3\t2"), BASE.replace("0.5\t2", "-0\t2"),
        BASE.replace("0.5\t1", "-0\t1").replace("0.5\t2", "1\t2"),
        BASE.replace("0.5\t1", ".5\t1").replace("0.5\t2", "5.e-1\t2"),
        BASE.replace("0.5\t1", "1E-3\t1").replace("0.5\t2", "0.999\t2"),
        BASE.replace("\t2\t", "\t-3\t"), BASE.replace("\t2\t", "\t-0\t"),
        BASE.replace("\t2\t", "\t007\t"), BASE.replace("0.5\t2", "0.5000000000000000000001\t2"),
        BASE.replace("\t2\t", "\t999999999999999999\t"),
        BASE.replace("\t2\t", "\t-999999999999999999\t"),
        # Blank lines, comments, and the header after the rules.
        "\n\n# a comment\t with  spaces\n" + BASE.replace("\n0.5\t2", "\n\n#\n0.5\t2") + "\n",
        BASE.replace("#root S\n", "") + "# the root:\n#root S\n",
        # What the constructor and validate refuse.
        BASE.replace("#root S", "#root T"), BASE.replace("#root S", "#root a"),
        BASE.replace("b\n", "a S\n"), BASE.replace("0.5\t2", "0.4\t2"),
        BASE.replace("#root S", "#root ->"),
        # Symbols that are not ASCII, and an arrow inside a symbol.
        BASE.replace("a S", "\u22a4a\u00e9 S").replace("-> b", "-> ->b b->"),
        BASE.replace("S", "\u22a4ROOT\u22a4"),
    ])
    def test_regular_text_is_scanned(self, text):
        assert grammar_text.scanned(text) is not None
        assert_loads_like_the_loop(text)

    def test_random_probabilities_round_trip(self):
        rng = np.random.default_rng(17)
        rules = []
        for k in range(200):
            weights = rng.random(int(rng.integers(1, 9))) * 10.0 ** rng.integers(-8, 8)
            probs = (weights / weights.sum()).tolist()
            rules += [Rule(f"N{k}", (f"t{j}", f"N{(k + j) % 200}"), p, int(f))
                      for j, (p, f) in enumerate(zip(probs, rng.integers(-5, 10**6, len(probs))))]
        grammar = Pcfg("N0", rules)
        text = dumps(grammar)
        assert grammar_text.scanned(text) is not None
        loaded = loads(text)
        assert float_bits(loaded.prob) == float_bits(grammar.prob)
        assert loaded.rules == grammar.rules
        assert_loads_like_the_loop(text)

    def test_dumps_output_never_falls_back(self, monkeypatch):
        # Induced CoNLL-U and PTB grammars, the second under a synthetic root,
        # read with the line loop disabled.
        def forbidden(text):
            raise AssertionError("dumps output read by the line loop")

        table = RuleTable()
        conllu = merge([counted_conllu(text, ConversionConfig(use_pos=False), table)[0]
                        for text in _conllu_texts(3)])
        ptb = merge([counted_bracketed(text, table) for text in _several_root_texts(3)])
        grammars = [induce(conllu), induce(ptb)]
        assert grammars[1].root == SYNTHETIC_ROOT
        monkeypatch.setattr(grammar_text, "lines", forbidden)
        for grammar in grammars:
            loaded = loads(dumps(grammar))
            assert loaded.rules == grammar.rules
            assert loaded.symbols == grammar.symbols
