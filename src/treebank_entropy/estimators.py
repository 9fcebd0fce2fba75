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
to that vector: for an induced grammar, or a file written from one, that is
sum_A f_A h_A / N over its counts, with no M and no solve, the counts
certifying the spectral radius (:func:`~.entropy.count_totals`); a grammar
whose probabilities are not its relative frequencies is solved.  With the
plain ML smoother the composition reproduces the exact entropy of the
induced grammar bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .entropy import entropy_from_probs, root_values
from .errors import InputError
from .grammar import FreqTable, Pcfg, induce, observed_counts, rule_freq_tables
from .trees import Corpus, CountedCorpus

_LN2 = math.log(2.0)

#: Gauss-Legendre nodes of the CWJ tail integral.
_TAIL_NODES = 80
#: The tail integrand is cut where its exponential factor reaches e**-40.
_TAIL_CUT = 40.0

#: Integer arguments from which digamma uses its asymptotic series; below
#: it, an exact table of harmonic numbers.
_DIGAMMA_ASYMPTOTIC_FROM = 16
#: Euler's constant to 40 digits.
_EULER_GAMMA = "0.5772156649015328606065120900824024310422"


class SmootherKind(str, enum.Enum):
    """Local-entropy smoothers available to SITE."""

    ML = "ml"
    CAE = "cae"
    CWJ = "cwj"


@dataclass(frozen=True)
class EstimateResult:
    value: float
    method: str
    sample_size: int


def _float_counts(table: FreqTable) -> tuple[np.ndarray, int]:
    """The counts of `table` as floats, as ML and CAE take them, and their
    total; raises :class:`InputError` if the total is beyond a float."""
    n = table.n
    try:
        float(n)
    except OverflowError:
        raise InputError("ML and CAE need each non-terminal's frequencies to "
                         "total below the float limit, about 1.8e308") from None
    return np.asarray(table.counts, dtype=np.float64), n


def ml_entropy(table: FreqTable) -> float:
    """Plug-in entropy in bits of the relative frequencies."""
    counts, n = _float_counts(table)
    return entropy_from_probs(counts / n)


def good_turing_probs(table: FreqTable) -> np.ndarray:
    """Good-Turing-discounted probabilities: ML estimates scaled by one
    minus the singleton share.

    In the all-singletons case the discount factor is zero, which would wipe
    out all probability mass; the undiscounted ML probabilities are returned
    instead.
    """
    counts, n = _float_counts(table)
    ml = counts / n
    f1 = int(np.count_nonzero(counts == 1))
    if f1 == n:
        return ml
    return (1.0 - f1 / n) * ml


def cae_entropy(table: FreqTable) -> float:
    """Coverage-adjusted entropy estimate in bits.

    Each Good-Turing-weighted entropy term is inflated by the probability of
    the type appearing at least once in a sample of size n, compensating for
    types that were never observed.
    """
    probs = good_turing_probs(table)
    n = table.n
    coverage = 1.0 - np.power(1.0 - probs, n)
    terms = np.where(probs < 1.0, -probs * np.log2(np.maximum(probs, 1e-300)), 0.0)
    return float(np.sum(terms / coverage))


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


@functools.cache
def _digamma_table() -> np.ndarray:
    """ψ(n) = H(n-1) - γ for 1 <= n < 16, correctly rounded (index n)."""
    from fractions import Fraction  # imported here: only CWJ needs it

    gamma = Fraction(_EULER_GAMMA)
    harmonic = Fraction(0)
    table = [0.0]
    for n in range(1, _DIGAMMA_ASYMPTOTIC_FROM):
        table.append(float(harmonic - gamma))
        harmonic += Fraction(1, n)
    table = np.array(table)
    table.flags.writeable = False  # one array, shared by every call
    return table


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
    return np.where(n < _DIGAMMA_ASYMPTOTIC_FROM, _digamma_table()[small], asymptotic)


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
    return float(_cwj_entropies([table])[0])


def _cwj_entropies(tables: list[FreqTable]) -> np.ndarray:
    """:func:`cwj_entropy` of each table, with one ψ evaluation for all."""
    sizes = [len(t.counts) for t in tables]
    counts = list(chain.from_iterable(t.counts for t in tables))
    return _cwj_runs(counts, np.cumsum([0, *sizes]))


def _cwj_runs(counts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """:func:`cwj_entropy` of each table ``counts[bounds[k]:bounds[k + 1]]``.

    Each table sums only its own slice, so its value does not depend on the
    tables passed alongside it.  The counts and their totals are taken as
    int64, so a table whose total reaches 2**63 raises :class:`InputError`.
    """
    starts, sizes = bounds[:-1], np.diff(bounds)
    try:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.sum(dtype=np.float64) < 2.0**62:
            n = np.add.reduceat(counts, starts)
        else:  # totals in Python ints, which do not wrap
            n = np.add.reduceat(counts.astype(object), starts).astype(np.int64)
    except OverflowError:
        raise InputError("CWJ needs each non-terminal's frequencies to total "
                         "below the int64 limit, 2**63") from None
    psi = _digamma(np.concatenate((counts, n)))
    psi_counts, psi_n = psi[:counts.size], psi[counts.size:]
    weights = counts / np.repeat(n, sizes)
    nats = np.add.reduceat(weights * (np.repeat(psi_n, sizes) - psi_counts), starts)
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


#: Smoothers applied table by table; CWJ runs over all tables at once.
_SMOOTHERS = {
    SmootherKind.ML: ml_entropy,
    SmootherKind.CAE: cae_entropy,
}


def smoothed_local_entropies(grammar: Pcfg, smoother: SmootherKind) -> np.ndarray:
    """Per-non-terminal local expansion entropies after bias correction."""
    smoother = SmootherKind(smoother)
    if smoother is SmootherKind.CWJ:
        return _cwj_runs(*observed_counts(grammar))
    return np.array([_SMOOTHERS[smoother](t) for t in rule_freq_tables(grammar).values()])


def site_from_grammar(grammar: Pcfg, smoother: SmootherKind = SmootherKind.CWJ) -> float:
    """SITE value of an induced grammar (frequency counts required)."""
    return float(root_values(grammar, smoothed_local_entropies(grammar, smoother))[1])


def site(
    corpus: Corpus | CountedCorpus, smoother: SmootherKind = SmootherKind.CWJ
) -> EstimateResult:
    """Smoothed induced treebank entropy of a corpus, in bits."""
    smoother = SmootherKind(smoother)
    grammar = induce(corpus)
    value = site_from_grammar(grammar, smoother)
    return EstimateResult(value, f"site-{smoother.value}", len(corpus))
