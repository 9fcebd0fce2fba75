import sys

import numpy as np
import pytest

from oracles import (random_enumerable_pcfg, reference_rule_freq_tables, reference_sample,
                     unreachable_nonterminals)
from synthetic import sample_corpus, scaffold_grammar
from treebank_entropy.cli import main
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
from treebank_entropy.trees import Corpus, Tree, derivation, parse_bracketed

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

    def test_header_and_comments_around_rules(self):
        grammar = loads("# the root of\n\n1\t2\tS -> a\n#root  S \n# is S\n")
        assert grammar.root == "S"
        assert grammar.rules == (Rule("S", ("a",), 1.0, 2),)


class TestPcfgValidation:
    def test_improper_rejected(self):
        grammar = Pcfg("S", [Rule("S", ("a",), 0.6, 1), Rule("S", ("b",), 0.3, 1)])
        with pytest.raises(StructuralError, match="sum to 1"):
            grammar.validate()

    def test_duplicate_rule_rejected(self):
        with pytest.raises(StructuralError, match="duplicate"):
            Pcfg("S", [Rule("S", ("a",), 0.5, 1), Rule("S", ("a",), 0.5, 1)])

    def test_unreachable_reported(self):
        grammar = Pcfg(
            "S",
            [Rule("S", ("a",), 1.0, 1), Rule("B", ("b",), 1.0, 1)],
        )
        assert unreachable_nonterminals(grammar) == {"B"}

    def test_empty_rhs_rejected(self):
        with pytest.raises(StructuralError, match="empty"):
            Pcfg("S", [Rule("S", (), 1.0, 1)])
