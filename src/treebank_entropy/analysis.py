"""Corpus experiments: convergence sweeps, incremental entropy, regressions.

Replication sweeps run their (replication, size) tasks one after another,
each drawing from its own random stream derived from the master seed, so a
task's result does not depend on which tasks ran before it.  A task of at
least `_BRANCH_FROM` sentences draws its rule counts as a branching process
(:func:`_branched`); a smaller one samples sentence by sentence.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .entropy import _children
from .errors import EmptyInputError, InputError, SamplingDivergenceError, StructuralError
from .estimators import SmootherKind, site, site_rows
from .grammar import DEFAULT_MAX_NODES, Pcfg, Sampler, _induce, induce
from .trees import Corpus, CountedCorpus, RuleTable, corpus_mlu, counted, merge

#: Sweep sizes spanning 1 to 15,000 sentences, evenly spaced in log scale.
DEFAULT_SIZES = (
    1, 2, 3, 5, 7, 11, 17, 25, 37, 55, 82, 122, 183, 273, 407, 608, 908,
    1355, 2023, 3020, 4509, 6731, 10048, 15000,
)

DEFAULT_ESTIMATORS = ("ml", "mc", "site-cae", "site-cwj")

#: Percentage-coverage curves reported alongside the entropy estimators.
COVERAGE_SERIES = ("coverage-rules", "coverage-nonterminals")

#: The smoother behind each estimator id.  "mc", the cross-entropy of a
#: sampled corpus's grammar on its own trees, is -sum_r f_r log2 p_r / N =
#: sum_A f_A h_A / N, the ML entropy: one number serves both.
_SMOOTHER_OF = {
    "ml": SmootherKind.ML,
    "mc": SmootherKind.ML,
    "site-ml": SmootherKind.ML,
    "site-cae": SmootherKind.CAE,
    "site-cwj": SmootherKind.CWJ,
}


class ConvergenceRow(NamedTuple):
    sample_size: int
    estimator: str
    mean: float
    ci95_low: float
    ci95_high: float
    replications: int


class FileReport(NamedTuple):
    file_id: str
    sentences: int
    mlu: float
    entropy: float
    log_n: float


class IncrementalPoint(NamedTuple):
    step: int
    label: str
    cumulative_sentences: int
    entropy: float


class RegressionFit(NamedTuple):
    slope: float
    slope_stderr: float
    slope_t: float
    intercept: float | None
    intercept_stderr: float | None
    intercept_t: float | None
    r: float
    n: int
    with_intercept: bool


#: Uniforms drawn at a time for a sweep task's sampler.
_UNIFORM_BATCH = 512


def _uniforms(rng: np.random.Generator) -> SimpleNamespace:
    """A stand-in for `rng` in :meth:`~.grammar.Sampler.sample` whose
    ``random()`` hands out ``rng.random(_UNIFORM_BATCH)`` one double at a
    time: the doubles that as many scalar draws give, in the same order."""
    batches = iter(lambda: rng.random(_UNIFORM_BATCH).tolist(), None)
    return SimpleNamespace(random=chain.from_iterable(batches).__next__)


def _check_seed(seed: int | None) -> None:
    """Raise :class:`InputError` for a seed numpy's generators refuse."""
    if seed is not None and seed < 0:
        raise InputError(f"the seed must not be negative, not {seed}")


def _count_row(grammar: Pcfg, rules) -> np.ndarray:
    """The counts of `grammar`'s rules among the ``(lhs, rhs)`` keys
    `rules`, as one int64 row."""
    ids = np.fromiter(map(grammar._rule_ids.__getitem__, rules), np.intp)
    return np.bincount(ids, minlength=len(grammar))


#: Tasks of at least this many sentences draw their rule counts as a
#: branching process; below it, sampling sentence by sentence costs less
#: (the per-task costs on the benchmark's sweep source are in CHANGES.md).
_BRANCH_FROM = 100

#: Padding cells that a group of :class:`_Offspring` may hold before its
#: narrower rows go to a group of their own: a ``multinomial`` call costs
#: about as much as a few thousand empty cells.
_PADDING = 4096


class _Offspring(NamedTuple):
    """A grammar's rules laid out for :func:`_branched`."""

    # (non-terminals, probabilities, rules): each row of the 2-D arrays holds
    # one non-terminal's rules in its last slots, len(grammar) in the others.
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    rule: np.ndarray  # the rule of each non-terminal occurrence on a right-hand side
    child: np.ndarray  # the non-terminal of that occurrence
    lengths: np.ndarray  # each rule's right-hand side length, and 0 for len(grammar)
    root: int
    nonterminals: int


def _offspring(grammar: Pcfg) -> _Offspring:
    """`grammar`'s rules, one padded row per non-terminal, in groups of
    rows of about equal width.  A row's rules fill its last slots:
    ``multinomial`` gives the last column one minus the sum of the others,
    so the padding never gets a count.  The non-terminals are taken widest
    first, and one of half the group's width or less starts a new group
    once the group holds more than `_PADDING` cells, so the padding stays
    below the rules' own cells plus `_PADDING` per group."""
    order, starts, n = grammar.order, grammar.starts, len(grammar.nonterminals)
    widths = np.diff(starts)
    by_width = np.argsort(-widths, kind="stable")
    cuts, top, rows = [], 0, 0
    for i, width in enumerate(widths[by_width].tolist()):
        if not cuts or (rows + 1) * top > _PADDING and 2 * width <= top:
            cuts.append(i)
            top, rows = width, 0
        rows += 1
    group, row = np.empty(n, np.intp), np.empty(n, np.intp)
    group[by_width] = np.repeat(np.arange(len(cuts)), np.diff([*cuts, n]))
    row[by_width] = np.arange(n) - np.array(cuts)[group[by_width]]
    tops = widths[by_width[cuts]]
    lhs = grammar.lhs[order]
    column = np.arange(order.size) - starts[lhs] + tops[group[lhs]] - widths[lhs]
    groups = []
    for g, members in enumerate(np.split(by_width, cuts[1:])):
        mine = group[lhs] == g
        probs = np.zeros((members.size, tops[g]))
        probs[row[lhs[mine]], column[mine]] = grammar.prob[order[mine]]
        slots = np.full((members.size, tops[g]), len(grammar))
        slots[row[lhs[mine]], column[mine]] = order[mine]
        groups.append((members, probs, slots))
    rule, child, _ = _children(grammar)
    return _Offspring(groups, rule, child, np.append(np.diff(grammar.rhs_offsets), 0),
                      grammar.nt_index[grammar.root], n)


def _branched(offspring: _Offspring, size: int, rng: np.random.Generator,
              max_nodes: int = DEFAULT_MAX_NODES) -> np.ndarray:
    """The rule counts of `size` independent derivations, as one int64 row.

    They are the total progeny, counted per rule, of a multi-type
    Galton-Watson process started from `size` roots (Harris, *The Theory of
    Branching Processes*, 1963): occurrences of a non-terminal are
    exchangeable, so each round expands all pending ones together, one
    ``multinomial`` per group over the rules of every non-terminal with
    some pending, and their children are the next round's.  Counts are
    summed in floats, exact below 2**53; past ``size * max_nodes`` nodes in
    all raises :class:`SamplingDivergenceError`.
    """
    groups, rule, child, lengths, root, n = offspring
    counts = np.zeros(lengths.size)
    pending = np.zeros(n, np.int64)
    pending[root] = size
    nodes, budget = size, size * max_nodes
    while pending.any():
        drawn = np.zeros(lengths.size)
        for members, probs, slots in groups:
            waiting = pending[members]
            live = waiting.nonzero()[0]
            if live.size:
                drawn += np.bincount(slots[live].ravel(),
                                     rng.multinomial(waiting[live], probs[live]).ravel(),
                                     minlength=lengths.size)
        counts += drawn
        nodes += drawn @ lengths
        if nodes > budget:
            raise SamplingDivergenceError(
                f"{size} derivations drawn together exceeded {budget} nodes")
        pending = np.bincount(child, drawn[rule], minlength=n).astype(np.int64)
    return counts[:-1].astype(np.int64)


def converge(
    grammar_source: Corpus | CountedCorpus,
    sizes=DEFAULT_SIZES,
    replications: int = 100,
    estimators=DEFAULT_ESTIMATORS,
    seed: int = 0,
    coverage: bool = True,
) -> list[ConvergenceRow]:
    """Estimator accuracy as a function of sample size.

    A grammar is induced from `grammar_source`; for every replication and
    size an artificial corpus of that many sentences is drawn from it and
    each estimator applied.  A task's corpus is one row of counts over the
    true grammar's rules: sampled derivation by derivation below
    `_BRANCH_FROM` sentences, drawn as a branching process from there on
    (:func:`_branched`).  Each replication's rows are estimated together
    (:func:`~.estimators.site_rows`), which certifies each as the counts of
    whole trees.  Rows aggregate the
    replications with normal 95% confidence intervals.  Coverage rows
    report the percentage of the true grammar's rules and non-terminals
    observed.  Each size and each estimator is taken once, however often
    it is listed.
    """
    sizes = sorted(set(sizes))
    estimators = tuple(dict.fromkeys(estimators))  # first occurrences, in order
    if not sizes or sizes[0] < 1:
        raise InputError("sample sizes must be positive")
    if replications < 1:
        raise InputError("the number of replications must be positive")
    _check_seed(seed)
    for est in estimators:
        if est not in _SMOOTHER_OF:
            raise InputError(f"unknown estimator id '{est}'")
    truth = induce(grammar_source)
    sampler = Sampler(truth)
    offspring = _offspring(truth) if sizes[-1] >= _BRANCH_FROM else None
    smoothers = list(dict.fromkeys(_SMOOTHER_OF[est] for est in estimators))
    columns = [smoothers.index(_SMOOTHER_OF[est]) for est in estimators]
    series = estimators + (COVERAGE_SERIES if coverage else ())

    by_rep = []
    for rep in range(replications):
        counts = np.empty((len(sizes), len(truth)), dtype=np.int64)
        for i, size in enumerate(sizes):
            rng = np.random.default_rng(np.random.SeedSequence((seed, rep, size)))
            if size < _BRANCH_FROM:
                draws = _uniforms(rng)
                counts[i] = _count_row(truth, chain.from_iterable(
                    sampler.sample(draws).rules for _ in range(size)))
            else:
                counts[i] = _branched(offspring, size, rng)
        values = site_rows(truth, counts, smoothers)[:, columns]
        if coverage:
            seen = np.add.reduceat(np.take(counts, truth.order, axis=1),
                                   truth.starts[:-1], axis=1)
            values = np.column_stack((
                values,
                100.0 * np.count_nonzero(counts, axis=1) / len(truth),
                100.0 * np.count_nonzero(seen, axis=1) / len(truth.nonterminals),
            ))
        by_rep.append(values)
    by_task = np.stack(by_rep, axis=-1)  # size, series, replication

    rows = []
    for size, by_series in zip(sizes, by_task):
        for est, values in zip(series, by_series):
            mean = float(np.mean(values))
            if replications > 1:
                half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(replications)
            else:
                half = 0.0
            rows.append(
                ConvergenceRow(size, est, mean, mean - half, mean + half, replications)
            )
    return rows


def incremental(
    files: list[Corpus | CountedCorpus],
    order: str = "original",
    seed: int | None = None,
    smoother: SmootherKind = SmootherKind.CWJ,
) -> list[IncrementalPoint]:
    """Cumulative treebank entropy, file by file.

    With ``order='original'`` the files accumulate as given; with
    ``order='shuffled'`` all sentences are pooled, permuted with a seeded
    generator, and re-cut into chunks matching the original file sizes.  The
    endpoint is order-independent because the estimate only depends on the
    accumulated multiset of trees.  One rule table is induced from the
    pooled rule ids in step order, and each chunk's ids are counted with
    one ``bincount`` into a row over its rules; the rows' running sums are
    the prefixes' counts, estimated in one :func:`~.estimators.site_rows`
    call.  The first chunk is checked as its own grammar would be; a later
    prefix fails only where the whole does.
    """
    if len(files) < 2:
        raise InputError("incremental analysis needs at least two files")
    smoother = SmootherKind(smoother)
    if order not in ("original", "shuffled"):
        raise InputError(f"unknown order '{order}'")
    table = RuleTable()
    pool = merge([counted(c, table) for c in files])
    sizes = [len(c) for c in files]
    ids, lengths, roots = pool.ids, np.diff(pool.offsets), pool.roots
    if order == "original":
        labels = [c.source_id or f"file{i + 1:02d}" for i, c in enumerate(files)]
    else:
        labels = [f"chunk{i + 1:02d}" for i in range(len(files))]
        _check_seed(seed)
        permutation = np.random.default_rng(seed).permutation(len(pool))
        ends = pool.offsets[permutation + 1]
        lengths = lengths[permutation]
        ids = ids[np.arange(ids.size) + np.repeat(ends - np.cumsum(lengths), lengths)]
        roots = [roots[i] for i in permutation.tolist()]
    if not sizes[0]:
        raise EmptyInputError("cannot induce a grammar from an empty corpus")
    if len(set(roots[:sizes[0]])) == 1 and not lengths[:sizes[0]].any():
        raise StructuralError("corpus contains no internal nodes")
    grammar, used = _induce(pool.table, ids, roots, pool.leaves)
    width = len(grammar)
    rule_of = np.empty(len(pool.table), np.int64)
    rule_of[used] = np.arange(used.size)
    chunk = np.repeat(np.arange(len(files)), sizes)  # of each sentence
    keys = np.repeat(chunk, lengths) * width + rule_of[ids]
    if width > used.size:  # a synthetic root rewrites as each tree's root label
        tops = grammar.rhs[grammar.rhs_offsets[used.size:width]].tolist()
        root_rule = {grammar.symbols[k]: i for i, k in enumerate(tops, used.size)}
        keys = np.append(keys, chunk * width + [root_rule[r] for r in roots])
    rows = np.bincount(keys, minlength=len(files) * width).reshape(len(files), width)
    np.cumsum(rows, axis=0, out=rows)  # each prefix's counts
    values = site_rows(grammar, rows, [smoother])[:, 0].tolist()
    return [IncrementalPoint(step, label, total, value) for step, (label, total, value)
            in enumerate(zip(labels, accumulate(sizes), values), start=1)]


def file_reports(
    files: list[Corpus | CountedCorpus], smoother: SmootherKind = SmootherKind.CWJ
) -> list[FileReport]:
    """Per-file sentence count, MLU, treebank entropy, and log size."""
    reports = []
    for i, corpus in enumerate(files):
        if not len(corpus):
            raise EmptyInputError(f"file {corpus.source_id or i + 1} is empty")
        estimate = site(corpus, smoother)
        reports.append(
            FileReport(
                file_id=corpus.source_id or f"file{i + 1:02d}",
                sentences=len(corpus),
                mlu=corpus_mlu(corpus),
                entropy=estimate.value,
                log_n=math.log(len(corpus)),
            )
        )
    return reports


def fit(x, y, with_intercept: bool = True) -> RegressionFit:
    """Ordinary least squares of y on x, with or without an intercept.

    Reports the classical standard errors and t statistics, plus the plain
    Pearson correlation of x and y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("x and y must be one-dimensional and equally long")
    n = x.size
    if n < 3:
        raise InputError("need at least three points")
    r = _pearson(x, y)
    if with_intercept:
        sxx = float(np.sum((x - x.mean()) ** 2))
        if sxx == 0.0:
            raise InputError("x has zero variance")
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
        intercept = float(y.mean() - slope * x.mean())
        resid = y - slope * x - intercept
        sigma2 = float(np.sum(resid**2)) / (n - 2)
        slope_se = math.sqrt(sigma2 / sxx)
        int_se = math.sqrt(sigma2 * (1.0 / n + x.mean() ** 2 / sxx))
        return RegressionFit(
            slope, slope_se, _ratio(slope, slope_se),
            intercept, int_se, _ratio(intercept, int_se),
            r, n, True,
        )
    sxx = float(np.sum(x**2))
    if sxx == 0.0:
        raise InputError("x is identically zero")
    slope = float(np.sum(x * y) / sxx)
    resid = y - slope * x
    sigma2 = float(np.sum(resid**2)) / (n - 1)
    slope_se = math.sqrt(sigma2 / sxx)
    return RegressionFit(
        slope, slope_se, _ratio(slope, slope_se), None, None, None, r, n, False
    )


def _pearson(x, y) -> float:
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _ratio(a: float, b: float) -> float:
    if b == 0.0:
        return math.inf if a != 0.0 else 0.0
    return a / b


def residualize(y, log_n) -> np.ndarray:
    """Residuals of an intercept-included regression of y on log corpus size.

    Removes the approximately logarithmic size bias of small-sample entropy
    estimates; the residuals sum to zero.
    """
    y = np.asarray(y, dtype=np.float64)
    log_n = np.asarray(log_n, dtype=np.float64)
    if y.shape != log_n.shape or y.ndim != 1:
        raise InputError("vectors must be one-dimensional and equally long")
    if y.size < 3:
        raise InputError("need at least three points")
    if float(np.std(log_n)) == 0.0:
        raise InputError("log sizes have zero variance")
    design = np.column_stack([np.ones_like(log_n), log_n])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ coeffs

