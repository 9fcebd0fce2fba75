"""Corpus experiments: convergence sweeps, incremental entropy, per-file
reports and regressions.

Replication sweeps run their (replication, size) tasks one after another,
each drawing from its own random stream derived from the master seed, so a
task's result does not depend on which tasks ran before it; the draw is
:func:`~.sampling.sweep_counts`.  The least-squares fits are
:mod:`.regression`.  Both modules are imported on first use, and the public
names of the second are still found here (PEP 562).
"""

from __future__ import annotations

import importlib
import math
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import EmptyInputError, InputError, StructuralError
from .estimators import SmootherKind, site, site_rows
from .grammar import _induce, induce
from .trees import CountedCorpus, RuleTable, corpus_mlu, counted, merge

if TYPE_CHECKING:
    from .tree_objects import Corpus

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


def _check_seed(seed: int | None) -> None:
    """Raise :class:`InputError` for a seed numpy's generators refuse."""
    if seed is not None and seed < 0:
        raise InputError(f"the seed must not be negative, not {seed}")


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
    true grammar's rules (:func:`~.sampling.sweep_counts`).  Each
    replication's rows are estimated together
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
    from .sampling import sweep_counts

    truth = induce(grammar_source)
    smoothers = list(dict.fromkeys(_SMOOTHER_OF[est] for est in estimators))
    columns = [smoothers.index(_SMOOTHER_OF[est]) for est in estimators]
    series = estimators + (COVERAGE_SERIES if coverage else ())

    by_rep = []
    for counts in sweep_counts(truth, sizes, replications, seed):
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

    means = np.mean(by_task, axis=-1)
    if replications > 1:  # ddof=1 of one value warns
        halves = 1.96 * np.std(by_task, axis=-1, ddof=1) / math.sqrt(replications)
    else:
        halves = np.zeros_like(means)
    rows = [ConvergenceRow(size, est, mean, mean - half, mean + half, replications)
            for size, size_means, size_halves in zip(sizes, means.tolist(), halves.tolist())
            for est, mean, half in zip(series, size_means, size_halves)]
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


#: The names of :mod:`.regression`, found here on first use.
_REGRESSION = frozenset({"RegressionFit", "fit", "residualize"})


def __getattr__(name):  # PEP 562
    if name in _REGRESSION:
        return getattr(importlib.import_module(".regression", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
