"""Discrete entropy estimators and treebank-level entropy estimation.

Plug-in (maximum-likelihood) entropy estimates are negatively biased on
small samples.  Two corrections from the species-richness literature are
provided: the coverage-adjusted estimator (CAE) of Chao and Shen, which
plugs Good-Turing-discounted probabilities into a coverage-corrected sum,
and the accumulation-curve estimator (CWJ) of Chao, Wang and Jost, which is
less biased still and converges faster.

Treebank entropy estimation composes these with grammar induction: the
expected-counts matrix of the induced grammar is kept as-is (its entries are
plain frequency ratios and need no correction, and leaving it untouched
keeps its spectral radius below one), while the vector of local expansion
entropies is replaced component-wise by a bias-corrected estimate computed
from each non-terminal's observed expansion frequencies.  The smoothed
induced treebank entropy (SITE) is the root component of (I - M)^-1 applied
to that vector, which for the rule counts of whole trees is sum_A f_A h_A /
N, with no M and no solve, the counts certifying the spectral radius
(:func:`~.entropy.certify_counts`).  SITE is therefore a function of rule
counts alone, and one function computes it from rows of counts over one
grammar (:func:`site_rows`): :func:`site` gives it the one row of the
grammar induced from a corpus, a sweep one row per sample and an
incremental run one row per prefix.  With the plain ML smoother it
reproduces the exact entropy of the induced grammar bit for bit.  Each
smoother is one kernel over tables laid side by side, a table's value not
depending on its neighbours, so the tables of a block of rows are smoothed
in one call.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .entropy import (_UNFED, _children, _edges_by_lhs, certified_rows, entropy_runs,
                      segment_sums)
from .errors import DivergentGrammarError, InputError, NumericalError
from .grammar import FreqTable, Pcfg, induce

if TYPE_CHECKING:
    from .tree_objects import Corpus
    from .trees import CountedCorpus

_LN2 = math.log(2.0)

#: Gauss-Legendre nodes of the CWJ tail integral.
_TAIL_NODES = 80
#: The tail integrand is cut where its exponential factor reaches e**-40.
_TAIL_CUT = 40.0

#: Integer arguments from which digamma uses its asymptotic series; below
#: it, a table of harmonic numbers less Euler's constant.
_DIGAMMA_ASYMPTOTIC_FROM = 16


class SmootherKind(str, enum.Enum):
    """Local-entropy smoothers available to SITE."""

    ML = "ml"
    CAE = "cae"
    CWJ = "cwj"


class EstimateResult(NamedTuple):
    value: float
    method: str
    sample_size: int


def _one_table(table: FreqTable) -> tuple[np.ndarray, np.ndarray]:
    """`table` as the counts and bounds that the segment kernels take."""
    return np.array(table.counts), np.array([0, len(table.counts)])


def _totals(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each segment's total, exactly: int64, or Python ints where int64
    would wrap."""
    if counts.dtype != object and counts.sum(dtype=np.float64) < 2.0**62:
        return np.add.reduceat(counts, starts)
    return np.add.reduceat(counts.astype(object), starts)


def _relative(counts: np.ndarray, bounds: np.ndarray):
    """Each count over its table's total, and that total as a float, as ML
    and CAE take them; :class:`InputError` if a total is beyond a float."""
    try:
        n = np.repeat(_totals(counts, bounds[:-1]).astype(np.float64), np.diff(bounds))
    except OverflowError:
        raise InputError("ML and CAE need each non-terminal's frequencies to "
                         "total below the float limit, about 1.8e308") from None
    return counts.astype(np.float64) / n, n


def _ml_runs(counts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """:func:`ml_entropy` of each table ``counts[bounds[k]:bounds[k + 1]]``."""
    return entropy_runs(_relative(counts, bounds)[0], bounds)


def ml_entropy(table: FreqTable) -> float:
    """Plug-in entropy in bits of the relative frequencies."""
    return float(_ml_runs(*_one_table(table))[0])


def _good_turing(counts: np.ndarray, bounds: np.ndarray):
    """:func:`good_turing_probs` of each table ``counts[bounds[k]:bounds[k +
    1]]``, and each table's total as a float."""
    ml, n = _relative(counts, bounds)
    f1 = np.repeat(np.add.reduceat(counts == 1, bounds[:-1]), np.diff(bounds))
    return np.where(f1 == n, ml, (1.0 - f1 / n) * ml), n


def good_turing_probs(table: FreqTable) -> np.ndarray:
    """Good-Turing-discounted probabilities: ML estimates scaled by one
    minus the singleton share.

    In the all-singletons case the discount factor is zero, which would wipe
    out all probability mass; the undiscounted ML probabilities are returned
    instead.
    """
    return _good_turing(*_one_table(table))[0]


def _cae_runs(counts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """:func:`cae_entropy` of each table ``counts[bounds[k]:bounds[k + 1]]``.

    The coverage 1 - (1 - p)**n is taken as -expm1(n log1p(-p)), which
    stays positive for the smallest p and finite for the largest n.
    """
    probs, n = _good_turing(counts, bounds)
    keep = (probs > 0.0) & (probs < 1.0)  # a type seen every time adds 0
    p = probs[keep]
    with np.errstate(over="ignore"):  # n log1p(-p) = -inf: coverage 1
        coverage = -np.expm1(n[keep] * np.log1p(-p))
    return 0.0 - segment_sums(p * np.log2(p) / coverage, bounds, keep)


def cae_entropy(table: FreqTable) -> float:
    """Coverage-adjusted entropy estimate in bits.

    Each Good-Turing-weighted entropy term is inflated by the probability of
    the type appearing at least once in a sample of size n, compensating for
    types that were never observed.
    """
    return float(_cae_runs(*_one_table(table))[0])


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _TAIL_NODES-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on the three-term recurrence, from Tricomi's
    starting values; four steps reach rounding, the fifth is a margin."""
    n = _TAIL_NODES

    def value_and_slope(x):  # P_n(x) and P_n'(x)
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p, slope = value_and_slope(x)
        x = x - p / slope
    _, slope = value_and_slope(x)
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    for array in (x, weights):
        array.flags.writeable = False  # shared by every call
    return x, weights


def _tail_sums(u: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Sum of u**k / (offset + k) over k >= 1, for each 0 < u < 1.

    The sum is u * integral over 0 < s < 1 of s**offset / (1 - u s) ds; with
    v = -ln u, s = exp(v - x) and x = v e**t the integrand becomes
    exp(-(offset + 1) v expm1(t)) * x / (1 - e**-x), smooth in t however
    close u is to one.  One Gauss-Legendre rule integrates it up to where the
    exponent reaches _TAIL_CUT, so the cost does not grow with 1 / (1 - u).
    Each row is summed alone: a value does not depend on the others.
    Within 2.2e-15 relative of 50-digit arithmetic for u >= 1e-12,
    1 - u >= 1e-14 and offsets 1 to 3e5.
    """
    nodes, weights = _gauss_legendre()
    v = -np.log(u)
    rate = (offset + 1.0) * v
    half = 0.5 * np.log1p(_TAIL_CUT / rate)  # half the cut-off in t
    t = half[:, None] * (nodes + 1.0)
    x = v[:, None] * np.exp(t)
    integrand = np.exp(-rate[:, None] * np.expm1(t)) * x / -np.expm1(-x)
    return u * half * np.sum(integrand * weights, axis=1)


#: ψ(n) = H(n-1) - γ for 1 <= n < 16, correctly rounded (index n).
_DIGAMMA_TABLE = np.array([
    0.0, -0.5772156649015329, 0.42278433509846713, 0.9227843350984671,
    1.2561176684318005, 1.5061176684318005, 1.7061176684318005,
    1.8727843350984672, 2.01564147795561, 2.14064147795561, 2.251752589066721,
    2.351752589066721, 2.442661679975812, 2.5259950133091453,
    2.6029180902322224, 2.6743466616607936,
])
_DIGAMMA_TABLE.flags.writeable = False  # one array, shared by every call


def _digamma(n: np.ndarray) -> np.ndarray:
    """ψ at positive integers.

    Small arguments are looked up in an exact table; from 16 on, the
    asymptotic series ln x - 1/(2x) - sum B(2k) / (2k x**(2k)) is cut after
    the x**-12 term; the first term left out is below 1e-18 there.
    """
    n = np.asarray(n, dtype=np.int64)
    x = n.astype(np.float64)
    z = 1.0 / (x * x)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (
        1 / 240 - z * (1 / 132 - z * (691 / 32760))))))
    asymptotic = np.log(x) - 0.5 / x - series
    small = np.minimum(n, _DIGAMMA_ASYMPTOTIC_FROM - 1)
    return np.where(n < _DIGAMMA_ASYMPTOTIC_FROM, _DIGAMMA_TABLE[small], asymptotic)


def cwj_entropy(table: FreqTable) -> float:
    """Accumulation-curve entropy estimate in bits.

    The first part sums, over the observed types, harmonic-number
    differences weighted by relative frequency: a type seen c times adds
    (c/n) * (ψ(n) - ψ(c)), and for integers ψ(n) - ψ(c) = H(n-1) - H(c-1)
    = sum of 1/k for k = c .. n-1, which is zero for a type seen all n
    times.  The second part extrapolates the unseen tail from the singleton
    and doubleton counts.  Evaluated in nats and converted once at the end.
    The extrapolation term is its all-positive series expansion, which is
    exactly equal to the (1-A)**(1-n) * [log A + sum] form but avoids its
    catastrophic cancellation; the series is summed as an integral
    (:func:`_tail_sums`).
    """
    return float(_cwj_runs(*_one_table(table))[0])


def _cwj_runs(counts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """:func:`cwj_entropy` of each table ``counts[bounds[k]:bounds[k + 1]]``.

    Each table sums only its own slice, so its value does not depend on the
    tables passed alongside it.  The counts and their totals are taken as
    int64, so a table whose total reaches 2**63 raises :class:`InputError`.
    """
    starts, sizes = bounds[:-1], np.diff(bounds)
    try:
        counts = np.asarray(counts, dtype=np.int64)
        n = _totals(counts, starts).astype(np.int64)
    except OverflowError:
        raise InputError("CWJ needs each non-terminal's frequencies to total "
                         "below the int64 limit, 2**63") from None
    psi = _digamma(np.concatenate((counts, n)))
    psi_counts, psi_n = psi[:counts.size], psi[counts.size:]
    weights = counts / np.repeat(n, sizes)
    nats = segment_sums(weights * (np.repeat(psi_n, sizes) - psi_counts), bounds, counts > 0)
    f1 = np.add.reduceat(counts == 1, starts)
    f2 = np.add.reduceat(counts == 2, starts)
    singletons = np.flatnonzero(f1)  # only these tables have an unseen tail
    total, f1, f2 = n[singletons], f1[singletons], f2[singletons]
    doubletons = f2 > 0
    a = np.where(doubletons, 2.0 * f2, 2.0) / np.where(
        doubletons, (total - 1) * f1 + 2.0 * f2, (total - 1) * (f1 - 1) + 2.0)
    tail = a < 1.0
    nats[singletons[tail]] += (f1[tail] / total[tail]) * _tail_sums(
        1.0 - a[tail], total[tail] - 1.0)
    return nats / _LN2


#: Each smoother as a kernel over the tables ``counts[bounds[k]:bounds[k +
#: 1]]`` of positive counts; a table's value does not depend on the others.
_RUNS = {
    SmootherKind.ML: _ml_runs,
    SmootherKind.CAE: _cae_runs,
    SmootherKind.CWJ: _cwj_runs,
}


#: Cells (rows times rules) of counts that :func:`site_rows` smooths at a
#: time: a block of max(1, _BLOCK_CELLS // len(grammar)) rows bounds its
#: temporaries by a block's cells, not all rows', and lets a grammar of
#: 11,740 rules still take 5 rows at a time.
_BLOCK_CELLS = 2**16


def site_rows(grammar: Pcfg, counts: np.ndarray, smoothers) -> np.ndarray:
    """SITE under each of `smoothers` (the columns) of each row of `counts`,
    the int64 counts of `grammar`'s rules in a set of its trees (a corpus, a
    sample drawn from the grammar, a prefix of its corpus): the value of the
    grammar induced from those trees, with none built.

    Each row is certified (:func:`~.entropy.certify_counts`, the rows'
    searches run together by :func:`~.entropy.certified_rows`): counts not
    of whole trees raise :class:`NumericalError`, a non-terminal with
    occurrences that the root does not reach along the row's rules
    :class:`DivergentGrammarError`, and the error names the first row that
    fails.  f_A are the segment sums of a row in `Pcfg.order`, each
    smoother runs over the positive counts of a block of rows at a time,
    as many as fit in _BLOCK_CELLS cells and at least one, and a row's
    value is sum_A f_A h_A / N, the sum correctly rounded.  No value
    depends on the rows beside it, so the blocks give the bits one call per
    row would.
    """
    edges = _edges_by_lhs(grammar, _children(grammar))
    sentences, unfed = certified_rows(grammar, counts, edges)
    for t in np.flatnonzero((sentences == 0) | unfed)[:1]:
        if not sentences[t]:
            raise NumericalError(f"row {t}: rule counts that are not those of whole trees")
        raise DivergentGrammarError(f"row {t}: {_UNFED}")
    sentences = sentences.tolist()
    values = np.empty((len(counts), len(smoothers)))
    step = max(1, _BLOCK_CELLS // len(grammar))
    for start in range(0, len(counts), step):
        end = start + step
        values[start:end] = _site_block(grammar, counts[start:end], smoothers,
                                        sentences[start:end])
    return values


def _site_block(grammar: Pcfg, counts: np.ndarray, smoothers, sentences) -> np.ndarray:
    """:func:`site_rows` of the certified rows `counts`, the counts of
    `sentences` trees each, smoothed together."""
    tasks, width = counts.shape
    n = len(grammar.nonterminals)
    by_lhs = np.take(counts, grammar.order, axis=1)  # C order: ravel() is a view
    f = np.add.reduceat(by_lhs, grammar.starts[:-1], axis=1).astype(np.float64)
    flat = by_lhs.ravel()
    kept = np.flatnonzero(flat)
    segment = kept // width * n + grammar.lhs[grammar.order][kept % width]
    starts = np.flatnonzero(np.diff(segment, prepend=-1))
    values = np.empty((tasks, len(smoothers)))
    for j, smoother in enumerate(smoothers):
        h = np.zeros(tasks * n)
        h[segment[starts]] = _RUNS[smoother](flat[kept], np.append(starts, kept.size))
        values[:, j] = [math.fsum(row_f * row_h) / row_n for row_f, row_h, row_n
                        in zip(f, h.reshape(tasks, n), sentences)]
    return values


def site(
    corpus: Corpus | CountedCorpus, smoother: SmootherKind = SmootherKind.CWJ
) -> EstimateResult:
    """Smoothed induced treebank entropy of a corpus, in bits: the one row
    of the induced grammar's own frequencies (:func:`site_rows`)."""
    smoother = SmootherKind(smoother)
    table = induce(corpus)
    value = float(site_rows(table, table.freq[None], [smoother])[0, 0])
    return EstimateResult(value, f"site-{smoother.value}", len(corpus))
