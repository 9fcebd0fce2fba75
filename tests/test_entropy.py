import math

import mpmath
import numpy as np
import pytest

from oracles import (
    binary_recursion_entropy,
    enumerate_entropy,
    random_enumerable_pcfg,
    reference_characteristic_matrix,
    reference_local_lengths,
    reference_sparse_radius,
    reference_tarjan_radius,
    unreachable_nonterminals,
)
from synthetic import sample_corpus, scaffold_grammar
from treebank_entropy import dense, entropy
from treebank_entropy.analysis import converge
from treebank_entropy.cli import main as cli_main
from treebank_entropy.entropy import (
    characteristic_matrix,
    derivational_entropy,
    entropy_from_probs,
    entropy_rate,
    grammar_mlu,
    local_entropies,
    local_lengths,
    solve_system,
    spectral_radius,
)
from treebank_entropy.errors import DivergentGrammarError, NumericalError, StructuralError
from treebank_entropy.estimators import site
from treebank_entropy.grammar import Pcfg, Rule, Sampler, induce
from treebank_entropy.trees import Corpus, Tree, corpus_mlu


def geometric(q):
    return Pcfg("S", [Rule("S", ("a", "S"), q, 1), Rule("S", ("a",), 1 - q, 1)])


def binary(q):
    return Pcfg("S", [Rule("S", ("S", "S"), q, 1), Rule("S", ("a",), 1 - q, 1)])


DETERMINISTIC = Pcfg("S", [Rule("S", ("a",), 1.0, 1)])

# S -> a S | A, A -> b A | c, every rule at 0.5: M = [[.5, .5], [0, .5]] is a
# 2x2 Jordan block.
DEFECTIVE = Pcfg(
    "S",
    [
        Rule("S", ("a", "S"), 0.5, 1),
        Rule("S", ("A",), 0.5, 1),
        Rule("A", ("b", "A"), 0.5, 1),
        Rule("A", ("c",), 0.5, 1),
    ],
)

JORDAN_3 = [[0.9, 1.0, 0.0], [0.0, 0.9, 1.0], [0.0, 0.0, 0.9]]


class TestCharacteristicMatrix:
    def test_terminal_only(self):
        assert characteristic_matrix(DETERMINISTIC) == pytest.approx(np.array([[0.0]]))

    def test_binary_recursion(self):
        assert characteristic_matrix(binary(0.4)) == pytest.approx(np.array([[0.8]]))

    def test_geometric(self):
        assert characteristic_matrix(geometric(0.5)) == pytest.approx(np.array([[0.5]]))

    def test_multi_nonterminal_counts(self):
        grammar = Pcfg(
            "S",
            [
                Rule("S", ("A", "b", "A"), 0.5, 1),
                Rule("S", ("a",), 0.5, 1),
                Rule("A", ("a",), 1.0, 1),
            ],
        )
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert characteristic_matrix(grammar) == pytest.approx(expected)


    def test_equals_rule_loop_bit_for_bit(self):
        # The entries are summed in rule order, as the loop sums them, and
        # the radius `entropy_rate` takes from them is the dense matrix's.
        rng = np.random.default_rng(17)
        sampler = Sampler(scaffold_grammar())
        grammars = [induce(sample_corpus(sampler, n, rng)) for n in (1, 10, 300)]
        grammars += [random_enumerable_pcfg(rng)[0] for _ in range(5)]
        for grammar in grammars:
            assert np.array_equal(characteristic_matrix(grammar),
                                  reference_characteristic_matrix(grammar))
            assert np.array_equal(local_lengths(grammar), reference_local_lengths(grammar))
            assert entropy_rate(grammar).spectral_radius == spectral_radius(
                reference_characteristic_matrix(grammar))


class TestLocalVectors:
    def test_single_rule_entropy_zero(self):
        assert local_entropies(DETERMINISTIC) == pytest.approx([0.0])

    def test_certain_outcome_is_positive_zero(self):
        assert math.copysign(1.0, entropy_from_probs([1.0])) == 1.0
        assert math.copysign(1.0, entropy_from_probs([0.0, 1.0])) == 1.0

    def test_fair_choice_one_bit(self):
        assert local_entropies(geometric(0.5)) == pytest.approx([1.0])

    def test_skewed_choice(self):
        assert local_entropies(binary(0.4))[0] == pytest.approx(0.970951, abs=1e-6)

    def test_lengths_terminal_only(self):
        assert local_lengths(DETERMINISTIC) == pytest.approx([1.0])

    def test_lengths_geometric(self):
        assert local_lengths(geometric(0.5)) == pytest.approx([1.0])

    def test_lengths_binary(self):
        assert local_lengths(binary(0.4)) == pytest.approx([0.6])


class TestSolveSystem:
    def test_identity(self):
        assert solve_system([[0.0]], [1.0]) == pytest.approx([1.0])

    def test_half(self):
        assert solve_system([[0.5]], [1.0]) == pytest.approx([2.0])

    def test_binary_entropy_system(self):
        out = solve_system([[0.8]], [0.970951])
        assert out == pytest.approx([4.854753], abs=1e-5)

    def test_divergent_rejected(self):
        with pytest.raises(DivergentGrammarError):
            solve_system([[1.0]], [1.0])
        with pytest.raises(DivergentGrammarError):
            solve_system([[1.5]], [1.0])
        with pytest.raises(DivergentGrammarError):  # irreducible, radius 1.5
            solve_system([[0.5, 1.0], [1.0, 0.5]], [1.0, 1.0])

    def test_residual_bound(self):
        # A vector, and a block whose columns differ in scale by 15 orders:
        # each column meets 1e-8 of its own largest entry.
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m = rng.random((n, n)) * (0.9 / n)
            for v in (rng.random(n), rng.random((n, 3)) * [1e6, 1.0, 1e-9]):
                x = solve_system(m, v)
                assert x.shape == v.shape
                residual = np.abs((np.eye(n) - m) @ x - v)
                assert (residual.max(axis=0) <= 1e-8 * np.abs(v).max(axis=0)).all()

    def test_only_columns_over_their_bound_are_refined(self, monkeypatch):
        solve, shapes = np.linalg.solve, []

        def spoiled(a, b):  # the first solve misses in its last column
            x = solve(a, b)
            if not shapes:
                x[:, -1] *= 1 + 1e-6
            shapes.append(np.shape(b))
            return x

        monkeypatch.setattr(np.linalg, "solve", spoiled)
        m = np.array([[0.5, 0.25], [0.0, 0.5]])
        v = np.array([[1.0, 1.0], [2.0, 1.0]])
        x = solve_system(m, v)
        assert shapes == [(2, 3), (2, 1)]
        assert x == pytest.approx(np.linalg.inv(np.eye(2) - m) @ v, rel=1e-15)

    def test_residual_not_met_after_refinement(self, monkeypatch):
        with pytest.raises(NumericalError, match="residual nan exceeds nan"):
            solve_system([[0.5, 0.0], [0.0, 0.5]], [[1.0, 1.0], [2.0, np.nan]])
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * 1.5)
        with pytest.raises(NumericalError, match="residual .* exceeds"):
            solve_system([[0.5]], [1.0])

    def test_nonnegative_solution_for_nonnegative_input(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            m = rng.random((n, n)) * (0.9 / n)
            v = rng.random(n)
            assert (solve_system(m, v) >= 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            solve_system([[0.1, 0.2]], [1.0])

    def test_negative_or_non_finite_matrix_rejected(self):
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(StructuralError):
                solve_system([[0.5, bad], [0.0, 0.5]], [1.0, 1.0])


class TestCertificate:
    """The convergence certificate c = (I - M)^-1 1 > 0 with (I - M) c > 1/2
    stands in for an eigensolver inside `solve_system`.  Acceptance of the
    random oracle grammars, with results equal to the inverse-matrix values,
    is checked by `TestStructuralInvariants.test_shared_transform_identity`."""

    def test_rejects_critical_binary_grammar(self):
        with pytest.raises(DivergentGrammarError):
            derivational_entropy(binary(0.5))

    def test_rejects_divergent_unreachable_block(self):
        # B is unreachable from S, and its expected subtree size is infinite.
        grammar = Pcfg(
            "S",
            [
                Rule("S", ("a",), 1.0, 1),
                Rule("B", ("B", "B"), 0.6, 1),
                Rule("B", ("b",), 0.4, 1),
            ],
        )
        assert unreachable_nonterminals(grammar) == {"B"}
        with pytest.raises(DivergentGrammarError):
            solve_system(characteristic_matrix(grammar), local_entropies(grammar))

    def test_accepts_defective_matrices(self):
        assert derivational_entropy(DEFECTIVE) == pytest.approx(4.0, abs=1e-12)
        assert grammar_mlu(DEFECTIVE) == pytest.approx(3.0, abs=1e-12)
        inverse = np.linalg.inv(np.eye(3) - np.array(JORDAN_3))
        v = np.array([1.0, 2.0, 3.0])
        assert solve_system(JORDAN_3, v) == pytest.approx(inverse @ v, rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    def test_accepts_near_critical_geometric_family(self, q):
        h_binary = -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
        report = entropy_rate(geometric(q))
        assert report.entropy == pytest.approx(h_binary / (1 - q), rel=1e-12)
        assert report.mlu == pytest.approx(1 / (1 - q), rel=1e-12)

    @pytest.mark.parametrize(
        "q",
        [0.4, *(0.5 - 10.0**-k for k in range(2, 17)), math.nextafter(0.5, 0.0)],
    )
    def test_near_critical_binary_family(self, q):
        # S -> S S (p) | a (r): H = h / (1 - 2p) bits, MLU = r / (1 - 2p)
        # and rate h / r, with h = -(p log2 p + r log2 r), evaluated in
        # 50-digit arithmetic at the probabilities the grammar stores: p = q
        # and r = fl(1 - q), which is not the real 1 - q for seven of these
        # q.  Every q up to the largest double below 1/2 is resolved; the
        # worst error measured is 2.27e-16 relative (H at q = 0.49999999999,
        # where 1 - q is exact), so one unit in the last place bounds all
        # three.  Against the family's value at q itself, q = 0.49999999
        # would be 1.94e-16 off, not 8.3e-17, from the rounding of 1 - q alone.
        with mpmath.workdps(50):
            p, r = mpmath.mpf(q), mpmath.mpf(1 - q)
            h = -(p * mpmath.log(p, 2) + r * mpmath.log(r, 2))
            closed = {
                "entropy": h / (1 - 2 * p),
                "mlu": r / (1 - 2 * p),
                "rate": h / r,
            }

            def rel(value, name):
                return float(abs(mpmath.mpf(value) - closed[name]) / closed[name])

            report = entropy_rate(binary(q))
            errors = [
                rel(derivational_entropy(binary(q)), "entropy"),
                rel(grammar_mlu(binary(q)), "mlu"),
                rel(report.entropy, "entropy"),
                rel(report.mlu, "mlu"),
                rel(report.rate, "rate"),
            ]
        assert max(errors) <= 2.3e-16

    def test_no_eigensolve_and_one_solve_per_entry_point(self, monkeypatch):
        # A grammar given by probabilities alone gets certificate, MLU and
        # every entropy from one factorization: on a well-conditioned
        # grammar no column needs refining, so each entry point makes
        # exactly one `np.linalg.solve` call.  A relative-frequency grammar
        # (DEFECTIVE's counts are its probabilities, and so are an induced
        # grammar's) makes none.  The radius that `entropy_rate` reports
        # needs no eigensolver, and on DEFECTIVE (two 1x1 blocks) no solve
        # either.
        calls, solves = [], []
        eigvals, solve = np.linalg.eigvals, np.linalg.solve

        def counting(matrix):
            calls.append(matrix.shape)
            return eigvals(matrix)

        def counting_solve(a, b):
            solves.append(np.shape(b))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        corpus = Corpus(
            [Tree("S", [Tree("a"), Tree("S", [Tree("a")])]), Tree("S", [Tree("a")])]
        )
        by_probability = Pcfg(
            DEFECTIVE.root, [Rule(r.lhs, r.rhs, r.prob) for r in DEFECTIVE.rules]
        )
        for wanted, run in (
            (1, lambda: entropy_rate(by_probability)),
            (1, lambda: derivational_entropy(by_probability)),
            (1, lambda: grammar_mlu(by_probability)),
            (0, lambda: entropy_rate(DEFECTIVE)),
            (0, lambda: site(corpus)),
            (0, lambda: derivational_entropy(DEFECTIVE)),
            (0, lambda: grammar_mlu(DEFECTIVE)),
            (0, lambda: converge(corpus, sizes=(2,), replications=1, coverage=False)),
        ):
            solves.clear()
            run()
            assert len(solves) == wanted
        assert calls == []


def _eigvals_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m)))))


def _weighted_cycle(weights):
    """i -> i+1 (mod n) with the given weights: rho = their geometric mean,
    and every eigenvalue has that modulus."""
    n = len(weights)
    m = np.zeros((n, n))
    m[np.arange(n), (np.arange(n) + 1) % n] = weights
    return m


class TestSpectralRadius:
    def test_dimension_one_exact(self):
        assert spectral_radius([[0.8]]) == 0.8

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0
        rng = np.random.default_rng(5)
        assert spectral_radius(np.triu(rng.random((7, 7)), k=1)) == 0.0

    def test_triangular_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = np.triu(rng.random((6, 6)))
            assert spectral_radius(m) == m.diagonal().max()
            assert spectral_radius(m.T) == m.diagonal().max()

    def test_long_chain(self):
        # Depth-first search along a 1,500-vertex chain needs no recursion.
        assert spectral_radius(np.eye(1500, k=1) * 0.5) == 0.0

    def test_symmetric_two_by_two(self):
        m = [[0.5, 0.25], [0.25, 0.5]]
        assert spectral_radius(m) == pytest.approx(0.75, rel=1e-12)

    def test_periodic_structure(self):
        # Pure two-cycle: eigenvalues +-sqrt(pq).
        m = [[0.0, 0.8], [0.2, 0.0]]
        assert spectral_radius(m) == pytest.approx(0.4, rel=1e-12)
        weights = [0.9, 0.3, 0.6]
        assert spectral_radius(_weighted_cycle(weights)) == pytest.approx(
            np.prod(weights) ** (1 / 3), rel=1e-12
        )

    def test_matches_dense_eigensolver(self, monkeypatch):
        # Random positive matrices, radius above one; a clear spectral gap,
        # so power iteration closes the bracket without a solve.
        monkeypatch.setattr(np.linalg, "solve", None)
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            m = rng.random((n, n))
            expected = _eigvals_radius(m)
            assert expected > 1.0
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-12)

    def test_random_grammars_match_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            grammar, _, _ = random_enumerable_pcfg(rng)
            m = characteristic_matrix(grammar)
            assert spectral_radius(m) == pytest.approx(_eigvals_radius(m), rel=1e-12)

    def test_reducible_with_equal_block_radii(self):
        # Two copies of an irreducible B coupled one way: rho(B) is a
        # defective eigenvalue of M, which a dense eigensolver resolves only
        # to about the square root of machine epsilon.
        b = np.array([[0.2, 0.5], [0.3, 0.1]])
        m = np.block([[b, 0.4 * np.eye(2)], [np.zeros((2, 2)), b]])
        expected = (0.3 + math.sqrt(0.61)) / 2  # (tr + sqrt(tr^2 - 4 det)) / 2
        assert spectral_radius(m) == pytest.approx(expected, rel=1e-12)
        assert spectral_radius(m) == pytest.approx(_eigvals_radius(b), rel=1e-12)

    def test_small_gap_falls_back_to_noda(self, monkeypatch):
        # On a 200-cycle the next eigenvalues of B + I after the Perron root
        # are smaller in modulus by only 1.2e-4 relative: power steps alone
        # would need about 2.6e5 steps, so Noda iteration closes the bracket.
        solve, solves = np.linalg.solve, []

        def counting_solve(a, b):
            solves.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        weights = np.random.default_rng(8).uniform(0.5, 1.5, 200)
        m = _weighted_cycle(weights)
        radius = spectral_radius(m)
        assert solves and set(solves) == {(200, 200)}
        assert radius == pytest.approx(_eigvals_radius(m), rel=1e-12)
        assert radius == pytest.approx(np.exp(np.mean(np.log(weights))), rel=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(StructuralError):
            spectral_radius([[-0.1]])

    def test_defective_two_by_two(self):
        # Power iteration stalled at 0.500015 on this Jordan block.
        assert characteristic_matrix(DEFECTIVE) == pytest.approx(
            np.array([[0.5, 0.5], [0.0, 0.5]])
        )
        assert spectral_radius(characteristic_matrix(DEFECTIVE)) == 0.5

    def test_defective_three_by_three(self):
        assert spectral_radius(JORDAN_3) == 0.9


def _radius_cases():
    """Reducible, periodic, Jordan-type and near-critical matrices, and
    random sparse ones, with single-vertex blocks and self-loops."""
    b = np.array([[0.2, 0.5], [0.3, 0.1]])
    yield "reducible", np.block([[b, 0.4 * np.eye(2)], [np.zeros((2, 2)), b]])
    yield "reducible with a larger single", np.diag([0.9, 0.0, 0.0]) + np.eye(3, k=1) * [
        [0.0], [0.3], [0.0]] + np.eye(3, k=-1) * [[0.0], [0.0], [0.2]]
    yield "two-cycle", np.array([[0.0, 0.8], [0.2, 0.0]])
    yield "three-cycle", _weighted_cycle([0.9, 0.3, 0.6])
    yield "200-cycle", _weighted_cycle(np.random.default_rng(8).uniform(0.5, 1.5, 200))
    yield "Jordan 2", characteristic_matrix(DEFECTIVE)
    yield "Jordan 3", np.array(JORDAN_3)
    yield "chain", np.eye(300, k=1) * 0.5
    for q in (0.49, 0.4999999, 0.49999999999):
        yield f"near-critical binary {q}", characteristic_matrix(binary(q))
        pair = np.array([[q, 0.5 - q / 2], [0.5 + q / 2, q]])
        yield f"near-critical pair {q}", pair
    rng = np.random.default_rng(11)
    for k in range(20):
        n = int(rng.integers(2, 60))
        m = np.where(rng.random((n, n)) < 2.0 / n, rng.random((n, n)), 0.0)
        if k % 2:
            m = np.triu(m, k=-1)  # mostly single vertices
        yield f"random {k}", m
    # With a cycle at one end, trimming takes the chain's free end, one
    # vertex a round, and leaves the cycle; with one at both ends it takes
    # nothing, and Tarjan's search splits the rest into two blocks and the
    # chain's single vertices.
    cycle = _weighted_cycle([0.9, 0.3, 0.6])
    for ends in ("head", "tail", "both"):
        m = np.eye(40, k=1) * 0.5
        if ends != "tail":
            m[:3, :3] = cycle
        if ends != "head":
            m[-3:, -3:] = cycle.T
        yield f"chain with a cycle at the {ends}", m
    # Several larger blocks, two of them left open by the power steps, so
    # that Noda iteration runs on blocks that Tarjan's search splits off,
    # their vertices not in ascending order.
    gap = _weighted_cycle(np.random.default_rng(8).uniform(0.5, 1.5, 60))
    perm = np.random.default_rng(9).permutation(60)
    gap = gap[np.ix_(perm, perm)]
    m = np.zeros((150, 150))
    m[:60, :60] = gap
    m[60:63, 60:63] = cycle
    m[63:123, 63:123] = gap.T * 0.5
    m[123:, 123:] = np.where(rng.random((27, 27)) < 0.2, rng.random((27, 27)), 0.0)
    m[np.arange(59, 149, 7), np.arange(64, 150, 7) - 3] += 0.125  # one way
    yield "several blocks, two by Noda iteration", m
    # One block, found by the forward and backward searches, with a single
    # vertex trimmed on each side; and the 200-cycle relabelled, so that
    # Noda iteration must take its vertices in Tarjan's order.
    m = np.zeros((62, 62))
    m[1:61, 1:61] = gap
    m[0, 1] = m[60, 61] = 0.5
    m[61, 61] = 0.25
    yield "one Noda block between trimmed vertices", m
    perm = np.random.default_rng(10).permutation(200)
    m = _weighted_cycle(np.random.default_rng(8).uniform(0.5, 1.5, 200))
    yield "200-cycle relabelled", m[np.ix_(perm, perm)]


class TestSparseRadiusByBlocks:
    @pytest.mark.parametrize("case, m", list(_radius_cases()),
                             ids=[case for case, _ in _radius_cases()])
    def test_bits_equal_every_block_iterated(self, case, m):
        rows, cols = np.nonzero(m)
        args = (m.shape[0], rows, cols, m[rows, cols])
        got, want = entropy._sparse_radius(*args), reference_sparse_radius(*args)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("case, m", list(_radius_cases()),
                             ids=[case for case, _ in _radius_cases()])
    def test_bits_equal_tarjan_search(self, case, m):
        rows, cols = np.nonzero(m)
        args = (m.shape[0], rows, cols, m[rows, cols])
        got, want = entropy._sparse_radius(*args), reference_tarjan_radius(*args)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_bits_equal_tarjan_search_on_grammars(self):
        # Induced from sampled trees and from random ones, and given by
        # probabilities alone.
        rng = np.random.default_rng(12)
        sampler = Sampler(scaffold_grammar())
        grammars = [induce(sample_corpus(sampler, size, rng)) for size in (5, 60, 400)]
        grammars += [random_enumerable_pcfg(rng)[0] for _ in range(20)]
        grammars += [induce(Corpus([Sampler(g).sample_tree(rng) for _ in range(30)]))
                     for g in grammars[3:8]]
        for grammar in grammars:
            rows, cols, weights = entropy._entries(grammar, *entropy._children(grammar)[:2])
            positive = weights > 0
            args = (len(grammar.nonterminals), rows[positive], cols[positive],
                    weights[positive])
            got, want = entropy._sparse_radius(*args), reference_tarjan_radius(*args)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("cycles", [False, True])
    def test_long_chain_takes_bounded_numpy_rounds(self, cycles, monkeypatch):
        # Each round of trimming takes only a chain's two ends, and each
        # level of a search one link, so a 20,000-vertex chain would take
        # 10,000 rounds.  Past NUMPY_ROUNDS rounds Tarjan's search takes
        # the rest.  With a two-cycle at each end nothing is trimmed, the
        # forward search goes on depth first past NUMPY_ROUNDS levels, the
        # backward one stops at once, and Tarjan's search splits the rest.
        calls = {"_trim_round": 0, "_level": 0}

        def counted(name):
            real = getattr(entropy, name)

            def step(*args):
                calls[name] += 1
                return real(*args)
            return step

        for name in calls:
            monkeypatch.setattr(entropy, name, counted(name))
        n = 20_000
        rows, cols = np.arange(n - 1), np.arange(1, n)
        weights = np.full(n - 1, 0.5)
        if cycles:
            rows, cols = np.append(rows, [1, n - 1]), np.append(cols, [0, n - 2])
            order = np.argsort(rows, kind="stable")
            rows, cols, weights = rows[order], cols[order], np.append(weights, [0.5, 0.5])[order]
        got = entropy._sparse_radius(n, rows, cols, weights)
        assert got == reference_tarjan_radius(n, rows, cols, weights) == (0.5 if cycles else 0.0)
        assert entropy.NUMPY_ROUNDS <= 100  # far below the 10,000
        assert calls["_trim_round"] <= (1 if cycles else entropy.NUMPY_ROUNDS)
        assert calls["_level"] <= (2 * entropy.NUMPY_ROUNDS if cycles else 0)

    def test_iterates_only_blocks_of_two_or_more(self, monkeypatch):
        iterated, perron = [], entropy._perron_upper_bound

        def recording(size, *args):
            iterated.append(size)
            return perron(size, *args)

        monkeypatch.setattr(entropy, "_perron_upper_bound", recording)
        m = np.triu(np.random.default_rng(6).random((6, 6)))
        assert spectral_radius(m) == m.diagonal().max()
        assert iterated == []
        b = np.array([[0.2, 0.5], [0.3, 0.1]])
        assert spectral_radius(np.block([[b, 0.4 * np.eye(2)], [np.zeros((2, 2)), b]])) > 0
        assert spectral_radius(np.diag([0.1, 0.2, 0.3]) + np.eye(3, k=1)) == 0.3
        assert iterated == [2, 2]


def _probability_chain(links):
    """S -> a X1, Xi -> b Xi+1 | a, X<links> -> a, given by probabilities
    alone (no counts), so the entropy is solved."""
    rules = [Rule("S", ("a", "X1"), 1.0)]
    rules += [Rule(f"X{i}", sym, 0.5) for i in range(1, links)
              for sym in (("b", f"X{i + 1}"), ("a",))]
    return Pcfg("S", [*rules, Rule(f"X{links}", ("a",), 1.0)])


class TestDenseBound:
    def test_characteristic_matrix_past_the_bound_is_refused(self):
        # 11,586 non-terminals: 8 n^2 bytes is just above 1 GiB, refused
        # before anything is allocated.
        grammar = _probability_chain(11_585)
        assert len(grammar.nonterminals) == 11_586
        assert 8 * 11_586**2 > dense.DENSE_LIMIT_BYTES >= 8 * 11_585**2
        with pytest.raises(NumericalError, match=r"11586 x 11586 matrix, above the "
                           r"bound of 11585 x 11585 \(1 GiB\)"):
            characteristic_matrix(grammar)

    def test_solve_past_the_bound_exits_3(self, monkeypatch, tmp_path, capsys):
        grammar = _probability_chain(4)  # 5 non-terminals
        path = tmp_path / "chain.grammar"
        path.write_text("#root S\n" + "".join(
            f"{r.prob!r}\t0\t{r.lhs} -> {' '.join(r.rhs)}\n" for r in grammar.rules))
        assert cli_main(["rate", "--grammar", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dense, "DENSE_LIMIT_BYTES", 8 * 5**2 - 1)
        with pytest.raises(NumericalError, match="the characteristic matrix needs a "
                           "dense 5 x 5 matrix"):
            entropy_rate(grammar)
        assert cli_main(["rate", "--grammar", str(path)]) == 3
        assert "above the bound of 4 x 4" in capsys.readouterr().err

    def test_noda_block_past_the_bound_is_refused(self, monkeypatch):
        # The 200-cycle leaves the power steps' bracket open (see
        # TestSpectralRadius), so its block would be built dense.
        m = _weighted_cycle(np.random.default_rng(8).uniform(0.5, 1.5, 200))
        monkeypatch.setattr(dense, "DENSE_LIMIT_BYTES", 8 * 200**2)
        radius = spectral_radius(m)
        monkeypatch.setattr(dense, "DENSE_LIMIT_BYTES", 8 * 200**2 - 1)
        with pytest.raises(NumericalError, match="Noda iteration on a strongly connected "
                           "block needs a dense 200 x 200 matrix"):
            spectral_radius(m)
        # A block the power steps close needs no dense matrix.
        assert spectral_radius(_weighted_cycle([0.9, 0.3, 0.6])) == pytest.approx(
            0.162 ** (1 / 3), rel=1e-12)
        assert radius == pytest.approx(_eigvals_radius(m), rel=1e-12)


class TestDerivationalEntropy:
    def test_deterministic_zero(self):
        assert derivational_entropy(DETERMINISTIC) == 0.0

    def test_geometric_closed_form(self):
        assert derivational_entropy(geometric(0.5)) == pytest.approx(2.0, abs=1e-12)

    def test_geometric_brute_force(self):
        enum, mass, _ = enumerate_entropy(geometric(0.5), mass_tol=1e-12)
        assert derivational_entropy(geometric(0.5)) == pytest.approx(
            enum, abs=1e-9
        )
        assert mass > 1 - 1e-12

    def test_binary_recursion_value(self):
        assert derivational_entropy(binary(0.4)) == pytest.approx(
            4.854753, abs=1e-5
        )

    def test_binary_recursion_leafcount_oracle(self):
        oracle, mass = binary_recursion_entropy(0.4)
        assert mass > 1 - 1e-12
        assert derivational_entropy(binary(0.4)) == pytest.approx(
            oracle, abs=1e-9
        )


class TestRates:
    def test_deterministic(self):
        report = entropy_rate(DETERMINISTIC)
        assert report.entropy == 0.0
        assert report.mlu == 1.0
        assert report.rate == 0.0
        assert report.spectral_radius == 0.0
        assert math.copysign(1.0, report.entropy) == 1.0
        assert math.copysign(1.0, report.rate) == 1.0

    def test_divergent_radius_rejected(self):
        with pytest.raises(DivergentGrammarError, match="spectral radius"):
            entropy_rate(binary(0.6))

    def test_defective(self):
        report = entropy_rate(DEFECTIVE)
        assert report.spectral_radius == 0.5
        assert report.rate == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_geometric(self):
        report = entropy_rate(geometric(0.5))
        assert report.mlu == pytest.approx(2.0, abs=1e-12)
        assert report.rate == pytest.approx(1.0, abs=1e-12)

    def test_binary(self):
        report = entropy_rate(binary(0.4))
        assert report.mlu == pytest.approx(3.0, abs=1e-9)
        assert report.rate == pytest.approx(1.618251, abs=1e-5)

    def test_rate_is_ratio(self):
        report = entropy_rate(geometric(0.7))
        assert report.rate == pytest.approx(report.entropy / report.mlu)


class TestStructuralInvariants:
    def test_shared_transform_identity(self):
        # The same inverse row transforms both local vectors: compare the
        # solved vectors against explicit inverse-matrix dot products.
        rng = np.random.default_rng(21)
        for _ in range(10):
            grammar, _, _ = random_enumerable_pcfg(rng)
            m = characteristic_matrix(grammar)
            inverse = np.linalg.inv(np.eye(m.shape[0]) - m)
            h0 = local_entropies(grammar)
            l0 = local_lengths(grammar)
            x = solve_system(m, np.column_stack((h0, l0)))
            assert x[:, 0] == pytest.approx(inverse @ h0, abs=1e-9)
            assert x[:, 1] == pytest.approx(inverse @ l0, abs=1e-9)

    def test_vectors_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            grammar, _, _ = random_enumerable_pcfg(rng)
            m = characteristic_matrix(grammar)
            assert (solve_system(m, local_entropies(grammar)) >= 0).all()
            assert (solve_system(m, local_lengths(grammar)) >= 0).all()

    def test_nonterminal_order_invariance(self):
        rng = np.random.default_rng(23)
        grammar, _, _ = random_enumerable_pcfg(rng, max_nonterminals=5)
        reference_h = derivational_entropy(grammar)
        reference_l = grammar_mlu(grammar)
        rules = list(grammar.rules)
        for _ in range(5):
            perm = rng.permutation(len(rules))
            shuffled = Pcfg(grammar.root, [rules[i] for i in perm])
            assert derivational_entropy(shuffled) == pytest.approx(
                reference_h, abs=1e-10
            )
            assert grammar_mlu(shuffled) == pytest.approx(
                reference_l, abs=1e-10
            )

    def test_grammar_mlu_matches_corpus_mlu(self):
        # ML induction preserves the empirical expected length.
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 20:
            truth, _, _ = random_enumerable_pcfg(rng)
            corpus = sample_corpus(Sampler(truth), int(rng.integers(5, 60)), rng)
            if not any(not t.is_leaf for t in corpus.sentences):
                continue
            learned = induce(corpus)
            assert grammar_mlu(learned) == pytest.approx(
                corpus_mlu(corpus), abs=1e-9
            )
            checked += 1

    def test_ml_estimates_underestimate_on_average(self):
        truth = Pcfg(
            "S",
            [
                Rule("S", ("a", "S"), 0.35, 1),
                Rule("S", ("b", "S"), 0.15, 1),
                Rule("S", ("a",), 0.3, 1),
                Rule("S", ("b",), 0.2, 1),
            ],
        )
        true_h = derivational_entropy(truth)
        rng = np.random.default_rng(25)
        sampler = Sampler(truth)
        estimates = [
            derivational_entropy(induce(sample_corpus(sampler, 10, rng)))
            for _ in range(100)
        ]
        assert np.mean(estimates) < true_h

    def test_cosine_ratio_concentration_reported(self):
        # The ratio of transform-row cosines against the two local vectors
        # hovers near one; recorded as a sanity statistic, not a bound.
        rng = np.random.default_rng(26)
        grammar, _, _ = random_enumerable_pcfg(rng, max_nonterminals=5)
        m = characteristic_matrix(grammar)
        inverse = np.linalg.inv(np.eye(m.shape[0]) - m)
        h0 = local_entropies(grammar)
        l0 = local_lengths(grammar)
        ratios = []
        for i in range(m.shape[0]):
            row = inverse[i]
            ch = row @ h0 / (np.linalg.norm(row) * np.linalg.norm(h0) + 1e-30)
            cl = row @ l0 / (np.linalg.norm(row) * np.linalg.norm(l0) + 1e-30)
            if cl > 0 and ch > 0:
                ratios.append(ch / cl)
        assert ratios
        assert all(r > 0 for r in ratios)
