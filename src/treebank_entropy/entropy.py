"""Exact derivational entropy, expected length, and entropy rate of a PCFG.

The expected-counts (characteristic) matrix M of a grammar has one row per
non-terminal; entry (i, j) is the expected number of occurrences of
non-terminal j produced by a single expansion of non-terminal i.  When the
spectral radius of M is below one, the root row of (I - M)^-1 [l | h], l
the expected terminals and h the entropy of one expansion of each
non-terminal, holds the grammar's mean length of utterance and derivational
entropy (:func:`root_values`); their ratio is the entropy rate in bits per
emitted symbol.  No eigensolver runs, and two paths give that root row:

* A relative-frequency grammar (an induced one, or a file that ``induce``
  wrote) needs no M: the root row of (I - M)^-1 is f / N, f_A the
  occurrences of A in the N counted trees (:func:`count_totals`).  Its
  counts certify the spectral radius below one in integers, as any one row
  of rule counts of whole trees does for the rules it uses
  (:func:`certify_counts`, which SITE's rows go through too): each block
  of M with occurrences is fed from outside exactly when the root reaches
  every non-terminal with occurrences along the rules with a positive
  count, as such a rule's left-hand side has occurrences.
* Any other grammar is solved: one factorization of I - M solves
  [1 | l | h], and c = (I - M)^-1 1 must be positive with (I - M) c
  positive with margin, which certifies the spectral radius below one
  (:func:`solve_system`).

The spectral radius that :func:`entropy_rate` reports is a Collatz-Wielandt
upper bound, taken over the strongly connected blocks of M's non-zeros and
iterated until it is tight (:func:`spectral_radius`).  Everything is read
from the grammar's arrays: M's non-zeros from the right-hand-side ids, each
local entropy from its non-terminal's segment of the probabilities.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DivergentGrammarError, NumericalError, StructuralError
from .grammar import Pcfg

#: Relative residual bound for the linear solve, in the infinity norm.
SOLVE_RESIDUAL_TOL = 1e-8

#: Lower bound on every component of (I - M) c, c = (I - M)^-1 1, that
#: certifies a spectral radius below one.
CERTIFICATE_MARGIN = 0.5

#: Relative width at which a Collatz-Wielandt bracket on a block's spectral
#: radius counts as closed.
RADIUS_TOL = 1e-14

#: Power steps on one irreducible block before Noda iteration takes over.
POWER_STEPS = 1000


def segment_sums(terms: np.ndarray, bounds: np.ndarray, keep: np.ndarray,
                 low=0.0) -> np.ndarray:
    """Sum of each segment ``bounds[k]:bounds[k + 1]`` over the entries that
    `keep` marks, one term (plus its `low` part) each; 0.0 for none.

    With sigma a power of two above (size + 2) max|term|, the high parts
    (sigma + term) - sigma and their sum are exact, and the rest is small
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008): a segment's sum
    is within about one rounding of the exact sum, whatever its length, and
    does not depend on the segments beside it.
    """
    kept = np.concatenate(([0], np.cumsum(keep)))[bounds]
    full = np.flatnonzero(kept[1:] > kept[:-1])
    sums = np.zeros(len(bounds) - 1)
    if full.size:
        starts, sizes = kept[full], np.diff(kept)[full]
        top = np.frexp(np.maximum.reduceat(np.abs(terms), starts))[1]
        sigma = np.repeat(np.ldexp(1.0, top + np.frexp(sizes + 2.0)[1]), sizes)
        high = (sigma + terms) - sigma
        sums[full] = np.add.reduceat(high, starts) + np.add.reduceat(
            terms - high + low, starts)
    return sums


def _two_product(a: np.ndarray, b: np.ndarray):
    """a * b as x + y exactly, x the rounded product: Dekker (1971) splits
    each factor into halves of 26 bits, whose products are exact."""
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    a1, b1 = ca - (ca - a), cb - (cb - b)
    a2, b2 = a - a1, b - b1
    x = a * b
    return x, a2 * b2 - (((x - a1 * b1) - a2 * b1) - a1 * b2)


def entropy_runs(probs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Plug-in entropy in bits of each segment ``probs[bounds[k]:bounds[k +
    1]]``, with the 0 log 0 = 0 convention: the products p log2 p taken
    exactly and summed by :func:`segment_sums`."""
    keep = probs > 0.0
    positive = probs[keep]
    terms, low = _two_product(positive, np.log2(positive))
    # 0.0 - 0.0 is +0.0, where negation would give -0.0.
    return 0.0 - segment_sums(terms, bounds, keep, low)


def entropy_from_probs(probs: np.ndarray) -> float:
    """Plug-in entropy in bits, with the 0 log 0 = 0 convention."""
    probs = np.asarray(probs, dtype=np.float64).ravel()
    return float(entropy_runs(probs, np.array([0, probs.size]))[0])


def _children(grammar: Pcfg):
    """The rule and the non-terminal of every non-terminal occurrence on a
    right-hand side, in rule order, and the terminals each rule emits."""
    lengths = np.diff(grammar.rhs_offsets)
    rule = np.repeat(np.arange(lengths.size), lengths)
    inner = grammar.rhs < len(grammar.nonterminals)
    rule = rule[inner]
    return rule, grammar.rhs[inner], lengths - np.bincount(rule, minlength=lengths.size)


def _entries(grammar: Pcfg, rule: np.ndarray, child: np.ndarray):
    """M's non-zero pattern, row-major, and its entries: the probabilities of
    each entry's occurrences (:func:`_children`), summed in rule order."""
    n = len(grammar.nonterminals)
    keys, inverse = np.unique(grammar.lhs[rule] * n + child, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    return rows, cols, np.bincount(inverse, grammar.prob[rule], minlength=keys.size)


def characteristic_matrix(grammar: Pcfg) -> np.ndarray:
    """Expected non-terminal production counts per single expansion.

    Rows and columns follow `grammar.nonterminals` order.
    """
    rows, cols, weights = _entries(grammar, *_children(grammar)[:2])
    matrix = np.zeros((len(grammar.nonterminals),) * 2)
    matrix[rows, cols] = weights
    return matrix


def local_entropies(grammar: Pcfg) -> np.ndarray:
    """Entropy in bits of each non-terminal's rule-choice distribution."""
    return entropy_runs(grammar.prob[grammar.order], grammar.starts)


def local_lengths(grammar: Pcfg) -> np.ndarray:
    """Expected number of terminal symbols emitted per single expansion."""
    _, _, emitted = _children(grammar)
    return np.bincount(grammar.lhs, grammar.prob * emitted,
                       minlength=len(grammar.nonterminals))


def _finite_nonnegative_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("expected a square matrix")
    if not np.isfinite(m).all() or (m < 0).any():
        raise StructuralError("expected a finite non-negative matrix")
    return m


def _strong_components(n: int, rows: np.ndarray, cols: np.ndarray) -> list[list[int]]:
    """Strongly connected components of the graph on 0..n-1 with the edges
    rows[k] -> cols[k], `rows` sorted: Tarjan's algorithm, walking depth
    first on an explicit stack, so that a long chain cannot exhaust the
    interpreter's."""
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    index = [-1] * n  # discovery order
    low = [0] * n
    on_stack = [False] * n
    stack, path, components = [], [], []
    visited = 0

    def enter(v):
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        path.append([v, starts[v]])  # [vertex, its next edge]

    for root in range(n):
        if index[root] >= 0:
            continue
        enter(root)
        while path:
            frame = path[-1]
            v, k = frame
            if k < starts[v + 1]:
                frame[1] = k + 1
                w = succ[k]
                if index[w] < 0:
                    enter(w)
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:  # v is the first vertex of its component
                component = []
                while not component or component[-1] != v:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                components.append(component)
    return components


def _perron_upper_bound(size: int, rows, cols, weights) -> float:
    """Collatz-Wielandt upper bound on the spectral radius of the
    irreducible size x size matrix B with entries `weights` at (rows, cols).

    Power iteration on B + I, then Noda iteration if POWER_STEPS leave the
    bracket open.  Every iterate x is positive, and the least upper end of
    the brackets seen is returned."""
    x = np.ones(size)
    upper = np.inf
    for _ in range(POWER_STEPS):
        bx = np.bincount(rows, weights * x[cols], minlength=size)
        ratio = bx / x
        lo, hi = float(ratio.min()), float(ratio.max())
        upper = min(upper, hi)
        if hi - lo <= RADIUS_TOL * hi:
            return upper
        x = bx + x  # (B + I) x: primitive, so periodic blocks converge too
        x /= x.max()
    # A small spectral gap: shifted inverse iteration (Noda 1971) at the
    # current upper bound converges quadratically, and the bound falls
    # monotonically until rounding stops it.
    b = np.zeros((size, size))
    b[rows, cols] = weights
    while True:
        try:
            y = np.linalg.solve(upper * np.eye(size) - b, x)
        except np.linalg.LinAlgError:  # upper is an eigenvalue: rho itself
            return upper
        if not (y > 0).all():  # rounding put the shift at or below rho
            return upper
        x = y / y.max()
        ratio = (b @ x) / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if not hi < upper:
            return upper
        upper = hi
        if hi - lo <= RADIUS_TOL * hi:
            return upper


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a non-negative square matrix, as a
    certified upper bound; no eigensolver runs.

    rho(M) is the largest radius among the strongly connected blocks of M's
    non-zero pattern.  A 1x1 block's radius is its diagonal entry, exactly,
    so triangular, nilpotent and Jordan-type matrices come out exact: the
    grammar S -> a S | A, A -> b A | c, every rule at 0.5, gives
    M = [[.5, .5], [0, .5]] and rho = 0.5, where power iteration stalls.
    A larger block B is irreducible, and any x > 0 brackets its radius,
    min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i (Collatz-Wielandt;
    Wielandt 1950).  Iteration on B narrows the bracket until its width is
    at most RADIUS_TOL of the upper end; that end, the largest over the
    blocks, is returned.  The power steps touch only the non-zero entries.
    """
    m = _finite_nonnegative_square(matrix)
    rows, cols = np.nonzero(m)
    return _sparse_radius(m.shape[0], rows, cols, m[rows, cols])


def _sparse_radius(n: int, rows, cols, weights) -> float:
    """:func:`spectral_radius` of the n x n matrix with the positive
    entries `weights` at (rows, cols), `rows` sorted."""
    blocks = _strong_components(n, rows, cols)
    label = np.empty(n, dtype=np.intp)
    position = np.empty(n, dtype=np.intp)  # within its block
    for b, block in enumerate(blocks):
        label[block] = b
        position[block] = np.arange(len(block))
    # Edges inside a block, grouped by block.
    inside = np.flatnonzero(label[rows] == label[cols])
    inside = inside[np.argsort(label[rows[inside]], kind="stable")]
    rows, cols, weights = rows[inside], cols[inside], weights[inside]
    bounds = np.searchsorted(label[rows], np.arange(len(blocks) + 1))
    radius = 0.0
    for b, block in enumerate(blocks):
        part = slice(bounds[b], bounds[b + 1])
        radius = max(radius, _perron_upper_bound(
            len(block), position[rows[part]], position[cols[part]], weights[part]))
    return radius


def solve_system(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Solve (I - M) x = v for a finite non-negative M with spectral radius < 1.

    `vector` is one right-hand side or an (n, k) block; x has its shape.
    One factorization solves [1 | v], and its first column c = (I - M)^-1 1
    certifies convergence: I - M has non-positive off-diagonal entries, and
    such a matrix is a non-singular M-matrix (equivalently rho(M) < 1) when
    some c >= 0 has (I - M) c > 0 (Berman & Plemmons, *Nonnegative Matrices
    in the Mathematical Sciences*, ch. 6).  c is accepted, unrefined, when
    it is finite and positive and (I - M) c > 1/2 in every component.  A
    failed certificate or an exactly singular I - M raises
    :class:`DivergentGrammarError`; a negative or non-finite entry of M
    raises :class:`StructuralError`.

    Each column of x is refined until its residual is at most
    ``1e-8 * max|v_j|``, the bound of its own right-hand side; failing
    that, the condition estimate is reported.
    """
    m = _finite_nonnegative_square(matrix)
    v = np.asarray(vector, dtype=np.float64)
    n = m.shape[0]
    if v.shape[0] != n:
        raise StructuralError("matrix and vector dimensions disagree")
    rhs = v.reshape(n, -1)
    a = np.eye(n) - m
    try:
        solution = np.linalg.solve(a, np.column_stack((np.ones(n), rhs)))
    except np.linalg.LinAlgError:  # I - M is exactly singular
        solution = np.full((n, 1), np.nan)
    c = solution[:, 0]
    # Exact arithmetic gives (I - M) c = 1; the margin absorbs rounding.
    if not (np.isfinite(c).all() and (c > 0).all()
            and (a @ c > CERTIFICATE_MARGIN).all()):
        raise DivergentGrammarError(
            "no positive certificate (I - M)^-1 1: spectral radius >= 1, "
            "expected subtree measures diverge"
        )
    x = solution[:, 1:]
    bound = SOLVE_RESIDUAL_TOL * np.max(np.abs(rhs), axis=0)
    for _ in range(3):
        residual = a @ x - rhs
        over = ~(np.max(np.abs(residual), axis=0) <= bound)  # nan is over
        if not over.any():
            return x.reshape(v.shape)
        x[:, over] -= np.linalg.solve(a, residual[:, over])
    residual = np.max(np.abs(a @ x - rhs), axis=0)
    j = int(np.argmax(residual - bound))
    raise NumericalError(
        f"residual {residual[j]:.3e} exceeds {bound[j]:.3e} "
        f"(condition estimate {np.linalg.cond(a, 1):.3e})"
    )


class CountTotals(NamedTuple):
    occurrences: np.ndarray  # f_A, in `Pcfg.nonterminals` order
    sentences: int  # N
    terminals: int  # T


def count_totals(grammar: Pcfg, children=None) -> CountTotals | None:
    """f_A, N and T of a grammar that is the relative-frequency grammar of
    its own rule frequencies, certified; None for any other grammar.

    Every probability must be the float f_r / f_A that
    :func:`~.grammar.induce` computes, and the frequencies must pass
    :func:`certify_counts`: the roots identity, and every non-terminal
    reached from the root.  `children`, when given, is the grammar's
    :func:`_children`.
    """
    children = children or _children(grammar)
    rule, _, emitted = children
    try:
        freq = grammar.freq.astype(np.float64)
    except OverflowError:
        return None
    # Every sum below is of integers smaller than this total, so exact.
    if not ((freq >= 1).all()
            and freq.sum() + freq[rule].sum() + freq @ emitted < 2.0**53):
        return None
    occurrences = np.bincount(grammar.lhs, freq, minlength=len(grammar.nonterminals))
    if not (grammar.prob == freq / occurrences[grammar.lhs]).all():
        return None
    sentences = certify_counts(grammar, grammar.freq, children)
    if sentences is None:
        return None
    return CountTotals(occurrences, sentences, int(freq @ emitted))


def certify_counts(grammar: Pcfg, counts: np.ndarray, children) -> int | None:
    """N, if `counts` (one int64 count per rule of `grammar`) are the rule
    counts of N whole trees from the grammar's root and certify a spectral
    radius below one; None if they are not the counts of whole trees.

    The roots identity: no count is negative, and f_A - i_A, the
    occurrences of A less those on right-hand sides, is zero except at the
    root, where it is N > 0.  Then z = f / N solves z^T (I - M) = e_root^T.
    I - M is non-singular when every strongly connected block of M with
    occurrences receives one from outside itself: with z > 0, z^T M <= z^T
    then holds strictly somewhere on each irreducible block, so its spectral
    radius is below one (Seneta, *Non-negative Matrices and Markov Chains*,
    Thm 1.6; cf. Chi 1999).  A block that receives none has radius one:
    :class:`DivergentGrammarError`.  The blocks are all fed exactly when the
    root reaches every non-terminal with occurrences along the rules with a
    positive count, whose left-hand sides have occurrences: a fed block's
    feeding rule lies in an earlier block with occurrences, and these lead
    back to the root's block.  So one depth-first search certifies.  Each
    sum is taken in int64; `children` is the grammar's :func:`_children`.
    """
    n = len(grammar.nonterminals)
    rule, child, _ = children
    used = counts[rule] > 0
    rule, child = rule[used], child[used]
    occurrences = np.zeros(n, dtype=np.int64)
    np.add.at(occurrences, grammar.lhs, counts)
    free = occurrences.copy()
    np.subtract.at(free, child, counts[rule])
    root = grammar.nt_index[grammar.root]
    sentences = int(free[root])
    free[root] = 0
    if sentences <= 0 or free.any() or (counts < 0).any():
        return None
    # The used (lhs -> child) edges by left-hand side, on an explicit stack.
    parent = grammar.lhs[rule]
    by_parent = np.argsort(parent)
    starts = np.searchsorted(parent[by_parent], np.arange(n + 1)).tolist()
    succ = child[by_parent].tolist()
    reached, stack = bytearray(n), [root]
    reached[root] = 1
    while stack:
        v = stack.pop()
        for w in succ[starts[v]:starts[v + 1]]:
            if not reached[w]:
                reached[w] = 1
                stack.append(w)
    if occurrences[np.frombuffer(reached, dtype=np.uint8) == 0].any():
        raise DivergentGrammarError(
            "some strongly connected block(s) of M receive no occurrence from "
            "outside: spectral radius 1, expected subtree measures diverge"
        )
    return sentences


def root_values(grammar: Pcfg) -> np.ndarray:
    """The root row of (I - M)^-1 [local lengths | local entropies]: the
    grammar's MLU and its derivational entropy.

    A relative-frequency grammar (:func:`count_totals`) needs no M: the MLU
    is T / N and the entropy sum_A f_A h_A / N, the sum correctly rounded.
    Any other grammar is solved (:func:`solve_system`).
    """
    return _root_row(grammar, count_totals(grammar))


def _root_row(grammar: Pcfg, totals: CountTotals | None) -> np.ndarray:
    """:func:`root_values`, given the grammar's :func:`count_totals`."""
    entropies = local_entropies(grammar)
    if totals is None:
        x = solve_system(characteristic_matrix(grammar),
                         np.column_stack((local_lengths(grammar), entropies)))
        return x[grammar.nt_index[grammar.root]]
    n = totals.sentences
    return np.array([totals.terminals / n, math.fsum(totals.occurrences * entropies) / n])


def derivational_entropy(grammar: Pcfg) -> float:
    """Entropy in bits of the distribution over the trees the grammar
    generates."""
    return float(root_values(grammar)[1])


def grammar_mlu(grammar: Pcfg) -> float:
    """Expected length in terminal symbols of a generated sentence."""
    return float(root_values(grammar)[0])


class RateReport(NamedTuple):
    """Entropy, expected length, their ratio, and the spectral radius."""

    entropy: float
    mlu: float
    rate: float
    spectral_radius: float


def entropy_rate(grammar: Pcfg) -> RateReport:
    """Derivational entropy rate: bits of tree entropy per emitted symbol."""
    children = _children(grammar)
    rows, cols, weights = _entries(grammar, *children[:2])
    totals = count_totals(grammar, children)
    # Either path certifies rho(M) < 1 or raises DivergentGrammarError; the
    # solve also rejects a negative or non-finite probability.
    mlu, entropy = map(float, _root_row(grammar, totals))
    if mlu <= 0.0:
        raise NumericalError(f"expected length {mlu} is not positive")
    positive = weights > 0  # all of them on the count path
    radius = _sparse_radius(len(grammar.nonterminals), rows[positive], cols[positive],
                            weights[positive])
    return RateReport(entropy, mlu, entropy / mlu, radius)
