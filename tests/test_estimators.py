import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from oracles import (cross_entropy, random_enumerable_pcfg, reference_cwj_entropy,
                     reference_tail)
from synthetic import sample_corpus, scaffold_grammar
from treebank_entropy.entropy import derivational_entropy, entropy_from_probs, entropy_runs
from treebank_entropy.errors import EmptyInputError, InputError, OutOfGrammarError
from treebank_entropy.estimators import (
    EstimateResult,
    SmootherKind,
    cae_entropy,
    cwj_entropy,
    good_turing_probs,
    ml_entropy,
    site,
    site_from_grammar,
    smoothed_local_entropies,
    _RUNS,
    _cwj_entropies,
    _digamma,
    _tail_sums,
)
from treebank_entropy.grammar import (
    FreqTable,
    Pcfg,
    Rule,
    Sampler,
    induce,
    rule_freq_tables,
)
from treebank_entropy.trees import Corpus, parse_bracketed

LN2 = math.log(2.0)


def table(*counts):
    return FreqTable(tuple(counts))


def corpus_of(*texts):
    return Corpus([parse_bracketed(t)[0] for t in texts])


def gt_degenerate(table: FreqTable) -> bool:
    """True when every observed type is a singleton, the case in which
    `good_turing_probs` falls back to ML."""
    return sum(1 for c in table.counts if c == 1) == table.n


def ml_exact(corpus):
    """Exact derivational entropy of the ML-induced grammar, through SITE."""
    value = site_from_grammar(induce(corpus), SmootherKind.ML)
    return EstimateResult(value, "ml-exact", len(corpus))


class TestMlEntropy:
    def test_single_type(self):
        assert ml_entropy(table(4)) == 0.0

    def test_fair_pair(self):
        assert ml_entropy(table(2, 2)) == 1.0

    def test_three_types(self):
        assert ml_entropy(table(1, 1, 2)) == pytest.approx(1.5)


class TestGoodTuring:
    def test_no_singletons_no_discount(self):
        assert good_turing_probs(table(2, 2)) == pytest.approx([0.5, 0.5])

    def test_singleton_discount(self):
        assert good_turing_probs(table(2, 1, 1)) == pytest.approx(
            [0.25, 0.125, 0.125]
        )

    def test_degenerate_falls_back_to_ml(self):
        assert gt_degenerate(table(1))
        assert good_turing_probs(table(1)) == pytest.approx([1.0])
        assert gt_degenerate(table(1, 1, 1))
        assert good_turing_probs(table(1, 1, 1)) == pytest.approx([1 / 3] * 3)

    def test_not_degenerate_with_repeats(self):
        assert not gt_degenerate(table(2, 1))


class TestCae:
    def test_fair_pair_hand_value(self):
        # GT probs stay (1/2, 1/2); each term 0.5 / (1 - 0.5**4).
        assert cae_entropy(table(2, 2)) == pytest.approx(1.066667, abs=1e-6)

    def test_single_type_zero(self):
        assert cae_entropy(table(7)) == 0.0

    def test_degenerate_singletons_zero_free(self):
        # All-singleton tables fall back to ML probabilities.
        value = cae_entropy(table(1, 1, 1, 1))
        assert math.isfinite(value)
        assert value > ml_entropy(table(1, 1, 1, 1))

    def test_exceeds_ml_with_many_singletons(self):
        t = table(*([1] * 20))
        assert cae_entropy(t) > ml_entropy(t)

    @pytest.mark.parametrize("counts", [(2**70, 3), (3, 2**70), (2**70, 1, 2)])
    def test_huge_total_finite_without_warning(self, counts):
        # (1 - p)**n rounds to 1 for p near 1e-21, so a coverage of
        # 1 - (1 - p)**n would be 0; -expm1(n log1p(-p)) is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cae_entropy(table(*counts))
        n = sum(counts)
        p = good_turing_probs(table(*counts))
        p = p[p < 1.0]
        terms = -p * np.log2(p) / -np.expm1(n * np.log1p(-p))
        assert math.isfinite(value)
        assert value == pytest.approx(math.fsum(terms), rel=1e-12)


class TestCwj:
    def test_single_type_zero(self):
        assert cwj_entropy(table(4)) == 0.0

    def test_single_observation_zero(self):
        assert cwj_entropy(table(1)) == 0.0

    def test_fair_pair_hand_value(self):
        # Two doubletons, n = 4: both contribute (2/4)(1/2 + 1/3), no
        # singleton correction, so the estimate is exactly 5/6 nats.
        expected_bits = (5.0 / 6.0) / LN2
        assert cwj_entropy(table(2, 2)) == pytest.approx(expected_bits, abs=1e-9)

    def test_all_singletons_pair_hand_value(self):
        # n = 2, f1 = 2, f2 = 0: A = 2/3 and the correction series is
        # sum_k (1/3)**k / (1 + k).
        series = sum((1 / 3) ** k / (1 + k) for k in range(1, 60))
        expected = (1.0 + series) / LN2
        assert cwj_entropy(table(1, 1)) == pytest.approx(expected, abs=1e-12)

    def test_series_transform_matches_naive_formula(self):
        # Where the (1-A)**(1-n) form is still numerically safe, the
        # all-positive series must reproduce it.
        for counts in [(1, 1), (2, 1, 1), (3, 1), (1, 1, 1), (4, 2, 1)]:
            t = table(*counts)
            n = t.n
            arr = np.array(counts, float)
            f1 = int(np.sum(arr == 1))
            f2 = int(np.sum(arr == 2))
            if f2 > 0:
                a = 2 * f2 / ((n - 1) * f1 + 2 * f2)
            elif f1 > 0:
                a = 2 / ((n - 1) * (f1 - 1) + 2)
            else:
                a = 1.0
            seen = arr[arr <= n - 1]
            first = float(
                np.sum((seen / n) * (np.array([sum(1 / k for k in range(int(f), n))
                                               for f in seen])))
            )
            if f1 and a < 1.0:
                bracket = math.log(a) + sum(
                    (1 / r) * (1 - a) ** r for r in range(1, n)
                )
                naive = first - (f1 / n) * (1 - a) ** (1 - n) * bracket
            else:
                naive = first
            assert cwj_entropy(t) == pytest.approx(naive / LN2, abs=1e-9)

    def test_monte_carlo_uniform_four(self):
        # Samples of size 50 from a uniform 4-outcome variable: the mean
        # estimate over 1000 replications recovers 2 bits and beats ML.
        rng = np.random.default_rng(404)
        cwj_values = []
        ml_values = []
        for _ in range(1000):
            counts = rng.multinomial(50, [0.25] * 4)
            t = table(*[int(c) for c in counts if c > 0])
            cwj_values.append(cwj_entropy(t))
            ml_values.append(ml_entropy(t))
        cwj_mean = float(np.mean(cwj_values))
        ml_mean = float(np.mean(ml_values))
        assert cwj_mean == pytest.approx(2.0, abs=0.02)
        assert abs(cwj_mean - 2.0) < abs(ml_mean - 2.0)

    def test_tail_matches_mpmath_on_grid(self):
        # The tail integral against 50-digit mpmath (the series, or the Lerch
        # transcendent for u > 1/2), over the range the former finite series
        # covered and the range it left to mpmath, up to 1 - u = 1e-7.
        # Measured on a denser grid: 2.1e-15 relative at worst.
        u = np.concatenate((np.logspace(-12, -0.5, 9), 1.0 - np.logspace(-0.5, -7, 9)))
        m = np.unique(np.geomspace(1, 300_000, 9).round())
        uu, mm = (g.ravel() for g in np.meshgrid(u, m))
        want = np.array([reference_tail(a, int(b), digits=50) for a, b in zip(uu, mm)])
        got = _tail_sums(uu, mm)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_tail_near_one(self):
        # All-singleton tables of 1e5 and more put 1 - u near 2 / n**2.
        u = 1.0 - np.array([1e-9, 2e-10, 1e-12, 1e-14])
        for m in (1, 1000, 99_999):
            want = np.array([reference_tail(a, m, digits=50) for a in u])
            got = _tail_sums(u, np.full(u.size, float(m)))
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_large_table_far_tail_finite(self):
        # Large n with few doubletons drives the correction parameter close
        # to zero; the series evaluation must stay finite and positive.
        counts = tuple([1000] * 5 + [1] * 200 + [2] * 2)
        value = cwj_entropy(table(*counts))
        assert math.isfinite(value)
        assert value > ml_entropy(table(*counts))

    @pytest.mark.parametrize("counts", [(2**70, 3), (2**62, 2**62, 5), (2**63 - 5, 5)])
    def test_counts_beyond_int64_rejected(self, counts):
        with pytest.raises(InputError, match="int64 limit"):
            cwj_entropy(table(*counts))
        grammar = Pcfg("S", [Rule("S", ("a", "S"), 0.5, counts[0]),
                             *(Rule("S", ("a",) * k, 0.5, c)
                               for k, c in enumerate(counts[1:], start=1))])
        with pytest.raises(InputError, match="int64 limit"):
            smoothed_local_entropies(grammar, SmootherKind.CWJ)
        assert cwj_entropy(table(2**63 - 6, 5)) >= 0.0  # the largest total allowed


class TestDigammaKernel:
    def test_matches_scipy_on_integers(self):
        # Measured on 1 .. 10**6: at most one unit in the last place apart,
        # 2.2e-16 relative at worst.
        n = np.arange(1, 1_000_001)
        got = _digamma(n)
        want = digamma(n.astype(np.float64))
        gap = np.abs(got - want)
        assert np.all(gap <= np.spacing(np.abs(want)))
        assert float(np.max(gap / np.abs(want))) <= 2.3e-16

    def test_table_correctly_rounded(self):
        # Below the asymptotic range ψ(n) = H(n-1) - γ is exact, then
        # rounded once.
        with mpmath.workdps(40):
            exact = [float(mpmath.digamma(n)) for n in range(1, 16)]
        assert _digamma(np.arange(1, 16)).tolist() == exact


def random_tables(rng):
    """Multinomial tables from small n to n = 3e5, plus all-singleton ones."""
    tables = []
    for size in (2, 3, 7, 30, 1000, 100_000, 300_000):
        for alpha in (0.1, 0.5, 2.0):
            for _ in range(8):
                k = int(rng.integers(1, 80))
                counts = rng.multinomial(size, rng.dirichlet(np.full(k, alpha)))
                tables.append(table(*[int(c) for c in counts if c > 0]))
    tables.extend(table(*([1] * m)) for m in (1, 2, 3, 17, 1000, 100_000))
    return tables


class TestCwjAgainstScipyReference:
    def test_random_tables(self):
        # Measured: 4.7e-16 relative at worst.
        for t in random_tables(np.random.default_rng(2013)):
            assert cwj_entropy(t) == pytest.approx(reference_cwj_entropy(t), rel=1e-13)

    def test_batched_equals_per_table_bit_for_bit(self):
        tables = random_tables(np.random.default_rng(4))
        assert _cwj_entropies(tables).tolist() == [cwj_entropy(t) for t in tables]

    def test_smoothed_local_entropies_use_the_same_kernel(self):
        sampler = Sampler(scaffold_grammar())
        rng = np.random.default_rng(21)
        for size in (1, 5, 50, 500):
            grammar = induce(sample_corpus(sampler, size, rng))
            batched = smoothed_local_entropies(grammar, SmootherKind.CWJ)
            tables = rule_freq_tables(grammar)
            assert batched.tolist() == [
                cwj_entropy(tables[nt]) for nt in grammar.nonterminals
            ]


def bit_strings(values):
    return [float(v).hex() for v in values]


class TestSegmentKernels:
    """Every smoother is one kernel over ``(counts, bounds)``: a table's value
    does not depend on the tables summed beside it."""

    @staticmethod
    def tables():
        rng = np.random.default_rng(29)
        tables = []
        for length in (1, 7, 8, 9, 16, 129, 300):
            tables.append(rng.integers(1, 3, length))  # singletons, doubletons
            tables.append(rng.integers(1, 1000, length))
        tables.extend(np.array(c) for c in ([1], [9], [1, 1], [2, 2], [1] * 130))
        return tables

    @pytest.mark.parametrize("smoother", list(SmootherKind))
    def test_tables_side_by_side_equal_each_alone(self, smoother):
        one_table = {SmootherKind.ML: ml_entropy, SmootherKind.CAE: cae_entropy,
                     SmootherKind.CWJ: cwj_entropy}[smoother]
        tables = self.tables()
        alone = [one_table(table(*t.tolist())) for t in tables]
        for order in (tables, tables[::-1]):
            bounds = np.cumsum([0, *map(len, order)])
            together = _RUNS[smoother](np.concatenate(order), bounds)
            want = alone if order is tables else alone[::-1]
            assert bit_strings(together) == bit_strings(want)

    def test_plug_in_entropy_side_by_side_equals_each_alone(self):
        # Zero probabilities are left out, an all-zero segment included.
        segments = [t / t.sum() for t in self.tables()]
        segments[3][::2] = 0.0
        segments.append(np.zeros(4))
        bounds = np.cumsum([0, *map(len, segments)])
        together = entropy_runs(np.concatenate(segments), bounds)
        assert bit_strings(together) == bit_strings(map(entropy_from_probs, segments))
        assert entropy_from_probs(np.zeros(4)) == 0.0


class TestEstimatorOrdering:
    def test_ml_below_gt_below_truth(self):
        # The discount raises the expected estimate when unseen mass
        # dominates, as with this skewed distribution at small n.
        probs = [0.8, 0.1, 0.05, 0.05]
        truth = entropy_from_probs(np.array(probs))
        rng = np.random.default_rng(11)
        ml_means = []
        gt_means = []
        for _ in range(2000):
            counts = rng.multinomial(15, probs)
            t = table(*[int(c) for c in counts if c > 0])
            ml_means.append(ml_entropy(t))
            gt_means.append(entropy_from_probs(good_turing_probs(t)))
        assert np.mean(ml_means) <= np.mean(gt_means) + 1e-12
        assert np.mean(gt_means) <= truth

    def test_all_estimators_zero_on_single_outcome(self):
        for n in (1, 2, 10, 100):
            t = table(n)
            assert ml_entropy(t) == 0.0
            assert cae_entropy(t) == 0.0
            assert cwj_entropy(t) == 0.0

    def test_consistency_bias_shrinks(self):
        # ML bias shrinks monotonically; the corrected estimators start out
        # nearly unbiased (their bias crosses zero), so for them only
        # convergence to zero is asserted, with a Monte-Carlo allowance.
        probs = [0.5, 0.25, 0.125, 0.125]
        truth = entropy_from_probs(np.array(probs))
        rng = np.random.default_rng(31)
        biases = {}
        for name, estimator in (
            ("ml", ml_entropy), ("cae", cae_entropy), ("cwj", cwj_entropy)
        ):
            row = []
            for n in (10, 100, 1000, 10000):
                values = []
                for _ in range(600):
                    counts = rng.multinomial(n, probs)
                    values.append(
                        estimator(table(*[int(c) for c in counts if c > 0]))
                    )
                row.append(abs(float(np.mean(values)) - truth))
            biases[name] = row
        assert biases["ml"][0] > biases["ml"][1] > biases["ml"][2] > biases["ml"][3]
        for name in ("cae", "cwj"):
            assert all(b <= biases[name][0] + 0.03 for b in biases[name][1:])
            assert biases[name][-1] < 0.005


class TestSite:
    def test_deterministic_single_tree_zero(self):
        corpus = corpus_of("(S (A a) (B b))")
        for smoother in SmootherKind:
            assert site(corpus, smoother).value == 0.0

    def test_result_metadata(self):
        corpus = corpus_of("(S (A a) (B b))", "(S (A a) (B b))")
        result = site(corpus, "cwj")
        assert result.method == "site-cwj"
        assert result.sample_size == 2

    def test_site_ml_identity_bit_exact(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            truth, _, _ = random_enumerable_pcfg(rng)
            corpus = sample_corpus(Sampler(truth), int(rng.integers(5, 50)), rng)
            if all(t.is_leaf for t in corpus.sentences):
                continue
            grammar = induce(corpus)
            assert site_from_grammar(grammar, SmootherKind.ML) == (
                derivational_entropy(grammar)
            )
            assert ml_exact(corpus).value == derivational_entropy(grammar)

    def test_smoothers_converge_to_truth(self):
        truth = Pcfg(
            "S",
            [
                Rule("S", ("a", "S"), 0.25, 1),
                Rule("S", ("b", "S"), 0.25, 1),
                Rule("S", ("a",), 0.25, 1),
                Rule("S", ("b",), 0.25, 1),
            ],
        )
        true_h = derivational_entropy(truth)
        rng = np.random.default_rng(50)
        corpus = sample_corpus(Sampler(truth), 4000, rng)
        for smoother in SmootherKind:
            assert site(corpus, smoother).value == pytest.approx(
                true_h, rel=0.05
            )


class TestMonteCarlo:
    def test_repeated_deterministic_tree(self):
        corpus = corpus_of("(S (A a) (B b))", "(S (A a) (B b))")
        assert cross_entropy(induce(corpus), corpus) == 0.0

    def test_geometric_convergence(self):
        truth = Pcfg(
            "S", [Rule("S", ("a", "S"), 0.5, 1), Rule("S", ("a",), 0.5, 1)]
        )
        corpus = sample_corpus(Sampler(truth), 100_000, np.random.default_rng(9))
        value = cross_entropy(induce(corpus), corpus)
        assert value == pytest.approx(2.0, abs=0.02)

    def test_train_equals_test_matches_ml_exact(self):
        # With the evaluation corpus equal to the induction corpus, the
        # cross-entropy estimate coincides with the exact entropy of the
        # induced grammar: ML induction matches the empirical expected
        # symbol counts.
        rng = np.random.default_rng(66)
        for _ in range(10):
            truth, _, _ = random_enumerable_pcfg(rng)
            corpus = sample_corpus(Sampler(truth), int(rng.integers(5, 60)), rng)
            if all(t.is_leaf for t in corpus.sentences):
                continue
            grammar = induce(corpus)
            assert cross_entropy(grammar, corpus) == pytest.approx(
                derivational_entropy(grammar), abs=1e-9
            )

    def test_out_of_grammar_listed(self):
        train = corpus_of("(S (A a))")
        test = corpus_of("(S (A b))")
        with pytest.raises(OutOfGrammarError, match="A -> b"):
            cross_entropy(induce(train), test)

    def test_empty_test_rejected(self):
        train = corpus_of("(S (A a))")
        with pytest.raises(EmptyInputError):
            cross_entropy(induce(train), Corpus([]))
