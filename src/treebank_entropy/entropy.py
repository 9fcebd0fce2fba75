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
  (:func:`certify_counts`; SITE's rows go through :func:`certified_rows`,
  which searches them together): each block of M with occurrences is fed
  from outside exactly when the root reaches every non-terminal with
  occurrences along the rules with a positive count, as such a rule's
  left-hand side has occurrences.
* Any other grammar is solved: one factorization of I - M solves
  [1 | l | h], and c = (I - M)^-1 1 must be positive with (I - M) c
  positive with margin, which certifies the spectral radius below one
  (:func:`~.dense.solve_system`).

The spectral radius that :func:`entropy_rate` reports is a Collatz-Wielandt
upper bound, taken over the strongly connected blocks of M's non-zeros and
iterated until it is tight (:func:`_sparse_radius`).  The blocks and the
certificate's reach are found by frontier searches in numpy
(:func:`_search`).  Everything is read from the grammar's arrays: M's
non-zeros from the right-hand-side ids, each local entropy from its
non-terminal's segment of the probabilities.  The dense layer (M as an
array, the solve, Noda iteration, and the radius of a given matrix,
:func:`~.dense.spectral_radius`) is :mod:`.dense`, imported where it runs;
its public names are still found here (PEP 562).
"""

from __future__ import annotations

import functools
import importlib
import math
from typing import NamedTuple

import numpy as np

from .errors import DivergentGrammarError, NumericalError
from .grammar import Pcfg

#: Relative width at which a Collatz-Wielandt bracket on a block's spectral
#: radius counts as closed.
RADIUS_TOL = 1e-14

#: Power steps on one irreducible block before Noda iteration takes over.
POWER_STEPS = 1000

#: Rounds of trimming, and levels of a frontier search, that one graph
#: search takes in numpy.  Each costs a pass over the edges left, so a long
#: chain would cost time quadratic in its length: what the rounds leave goes
#: to Tarjan's search, and what the levels leave to a search in Python.
NUMPY_ROUNDS = 64

#: The edges that :func:`certified_rows` searches at once: as many rows as
#: keep their copies of the grammar's edges within this many, one at least.
#: At about 26 bytes of temporaries an edge that is 0.43 MB, below what
#: site_rows takes to smooth one block of rows of a grammar of 600 rules.
SEARCH_EDGES = 2**14

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


def local_entropies(grammar: Pcfg) -> np.ndarray:
    """Entropy in bits of each non-terminal's rule-choice distribution."""
    return entropy_runs(grammar.prob[grammar.order], grammar.starts)


def local_lengths(grammar: Pcfg) -> np.ndarray:
    """Expected number of terminal symbols emitted per single expansion."""
    _, _, emitted = _children(grammar)
    return np.bincount(grammar.lhs, grammar.prob * emitted,
                       minlength=len(grammar.nonterminals))


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


def _perron_upper_bound(size: int, rows, cols, weights, renumber=None) -> float:
    """Collatz-Wielandt upper bound on the spectral radius of the
    irreducible size x size matrix B with entries `weights` at (rows, cols).

    Power iteration on B + I, then Noda iteration
    (:func:`~.dense._noda`) if POWER_STEPS leave the bracket open.  Every
    iterate x is positive, and the least upper end of the brackets seen is
    returned.  The power steps give each vertex the same bits in any order
    of the vertices, but Noda iteration's dense solves do not: it puts
    vertex i at ``renumber()[i]`` when `renumber` is given."""
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
    from .dense import _noda

    return _noda(size, rows, cols, weights, x, upper, renumber)


def _sparse_radius(n: int, rows, cols, weights) -> float:
    """:func:`~.dense.spectral_radius` of the n x n matrix with the positive
    entries `weights` at (rows, cols), `rows` sorted.

    The blocks are found in numpy.  Trimming removes, round after round,
    every vertex with no edge in, or none out, from another vertex left:
    each is a block of its own, whose radius is its diagonal entry.  One
    forward and one backward search from a vertex left tell whether the
    rest is one block; if it is not, or NUMPY_ROUNDS rounds leave the
    trimming unfinished, Tarjan's search splits the rest.  Each larger
    block is iterated (:func:`_perron_upper_bound`); Noda iteration, whose
    bits depend on the order of the block's vertices, takes them in the
    order of Tarjan's search over the whole graph."""
    loop = rows == cols
    diagonal = np.zeros(n)
    diagonal[rows[loop]] = weights[loop]
    src, dst = rows[~loop], cols[~loop]
    live, settled = np.ones(n, dtype=bool), False
    for _ in range(NUMPY_ROUNDS):
        rest = _trim_round(n, src, dst)
        settled = np.count_nonzero(rest) == np.count_nonzero(live)
        if settled:
            break
        live = rest
        kept = live[src] & live[dst]
        src, dst = src[kept], dst[kept]
    radius = float(diagonal[~live].max(initial=0.0))
    vertices = np.flatnonzero(live)
    if settled and (not vertices.size or _one_block(n, src, dst, vertices)):
        blocks = [vertices] if vertices.size else []
    else:
        blocks = []
        compact = np.cumsum(live) - 1
        for block in _strong_components(vertices.size, compact[src], compact[dst]):
            if len(block) == 1:
                radius = max(radius, float(diagonal[vertices[block[0]]]))
            else:
                blocks.append(vertices[block])
    label = np.full(n, -1, dtype=np.intp)
    position = np.empty(n, dtype=np.intp)  # within its block
    for b, block in enumerate(blocks):
        label[block] = b
        position[block] = np.arange(len(block))
    # Edges inside a larger block, grouped by block.
    inside = np.flatnonzero((label[rows] == label[cols]) & (label[rows] >= 0))
    inside = inside[np.argsort(label[rows[inside]], kind="stable")]
    bounds = np.searchsorted(label[rows[inside]], np.arange(len(blocks) + 1))

    @functools.cache
    def tarjan():  # each vertex's position in its block as Tarjan lists it
        at = np.empty(n, dtype=np.intp)
        for component in _strong_components(n, rows, cols):
            at[component] = np.arange(len(component))
        return at

    for b, block in enumerate(blocks):
        edges = inside[bounds[b]:bounds[b + 1]]
        radius = max(radius, _perron_upper_bound(
            len(block), position[rows[edges]], position[cols[edges]], weights[edges],
            lambda block=block: tarjan()[block]))
    return radius


def _trim_round(n: int, rows, cols) -> np.ndarray:
    """One round of trimming: the vertices with an edge in and an edge out
    among the edges rows -> cols."""
    has_in, has_out = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    has_in[cols] = True
    has_out[rows] = True
    return has_in & has_out


def _one_block(n: int, rows, cols, vertices) -> bool:
    """Whether the edges rows -> cols, `rows` sorted, make `vertices` one
    strongly connected block: whether a search forward and a search
    backward from its first vertex each reach all of them."""
    by_col = np.argsort(cols.astype(np.min_scalar_type(n)), kind="stable")
    for heads, tails in ((rows, cols), (cols[by_col], rows[by_col])):
        reached = np.zeros(n, dtype=bool)
        reached[vertices[0]] = True
        _search(np.searchsorted(heads, np.arange(n + 1)), tails, reached, vertices[:1])
        if np.count_nonzero(reached) < vertices.size:
            return False
    return True


def _ranges(lo: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``lo[k]:lo[k] + sizes[k]``, one range after another."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(lo - ends + sizes, sizes)


def _level(starts, succ, frontier, reached) -> np.ndarray:
    """One level of a frontier search over the graph whose vertex v has the
    edges to ``succ[starts[v]:starts[v + 1]]``: the vertices that the edges
    out of `frontier` reach and `reached` does not hold yet, which are
    added to it."""
    lo = starts[frontier]
    ahead = np.zeros_like(reached)
    ahead[succ[_ranges(lo, starts[frontier + 1] - lo)]] = True
    ahead &= ~reached
    reached |= ahead
    return np.flatnonzero(ahead)


def _search(starts, succ, reached, frontier) -> None:
    """Adds to the mask `reached` every vertex that the graph of
    :func:`_level` leads to from the vertices `frontier`, which it holds:
    NUMPY_ROUNDS levels in numpy, then the rest depth first in Python, so
    that a long chain costs time linear in its length."""
    for _ in range(NUMPY_ROUNDS):
        if not frontier.size:
            return
        frontier = _level(starts, succ, frontier, reached)
    starts, succ, stack = starts.tolist(), succ.tolist(), frontier.tolist()
    seen = bytearray(reached.tobytes())
    while stack:
        v = stack.pop()
        for w in succ[starts[v]:starts[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    reached[:] = np.frombuffer(seen, dtype=bool)


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
    sentences = certify_counts(grammar, grammar.freq, _edges_by_lhs(grammar, children))
    if sentences is None:
        return None
    return CountTotals(occurrences, sentences, int(freq @ emitted))


def _edges_by_lhs(grammar: Pcfg, children):
    """The non-terminal occurrences on right-hand sides, as the edges
    lhs -> child of M's pattern grouped by left-hand side, A's being
    ``starts[A]:starts[A + 1]``: `starts`, and each occurrence's rule and
    non-terminal.  `Pcfg.order` groups the rules, and each rule's
    occurrences are a range of `children` (:func:`_children`), so no sort
    runs."""
    rule, child, _ = children
    per_rule = np.bincount(rule, minlength=len(grammar))
    sizes = per_rule[grammar.order]
    grouped = _ranges((np.cumsum(per_rule) - per_rule)[grammar.order], sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)))[grammar.starts]
    return starts, rule[grouped], child[grouped]


#: What :class:`DivergentGrammarError` says of counts that leave a
#: non-terminal with occurrences unreached from the root.
_UNFED = ("some strongly connected block(s) of M receive no occurrence from "
          "outside: spectral radius 1, expected subtree measures diverge")


def certify_counts(grammar: Pcfg, counts: np.ndarray, edges) -> int | None:
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
    back to the root's block.  So one frontier search from the root
    certifies (:func:`certified_rows`).  `edges` are the grammar's
    :func:`_edges_by_lhs`.
    """
    sentences, unfed = certified_rows(grammar, counts[None], edges)
    if not sentences[0]:
        return None
    if unfed[0]:
        raise DivergentGrammarError(_UNFED)
    return int(sentences[0])


def certified_rows(grammar: Pcfg, counts: np.ndarray, edges):
    """:func:`certify_counts` of each row of `counts`: each row's N, 0 if it
    is not the counts of whole trees, and whether it leaves a non-terminal
    with occurrences unreached from the root.

    Each sum is taken in int64.  The rows of a block search together, as
    one graph with a copy of the grammar's non-terminals per row, so that
    they share the levels of the frontier search (:func:`_search`).
    """
    step = max(1, SEARCH_EDGES // max(edges[1].size, 1))
    blocks = [_certified_block(grammar, counts[k:k + step], edges)
              for k in range(0, max(len(counts), 1), step)]  # one block for no rows
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _certified_block(grammar: Pcfg, counts: np.ndarray, edges):
    """:func:`certified_rows` of the rows `counts`, searched together."""
    starts, rule, child = edges
    n, tasks = len(grammar.nonterminals), len(counts)
    occurrences = np.add.reduceat(counts[:, grammar.order], grammar.starts[:-1], axis=1)
    free = occurrences.copy()
    copies = np.arange(tasks)[:, None] * n  # row t's copy of vertex v is t n + v
    np.subtract.at(free.reshape(-1), (copies + child).ravel(), counts[:, rule].ravel())
    root = grammar.nt_index[grammar.root]
    sentences = free[:, root].copy()
    free[:, root] = 0
    whole = (sentences > 0) & ~free.any(axis=1) & ~(counts < 0).any(axis=1)
    # An unused edge leads to its row's root, which is reached from the start.
    succ = np.where(counts[:, rule] > 0, copies + child, copies + root).ravel()
    copied = (np.arange(tasks)[:, None] * rule.size + starts[:-1]).ravel()
    reached = np.zeros(tasks * n, dtype=bool)
    frontier = copies[:, 0] + root
    reached[frontier] = True
    _search(np.append(copied, succ.size), succ, reached, frontier)
    unfed = ((occurrences > 0) & ~reached.reshape(tasks, n)).any(axis=1)
    return np.where(whole, sentences, 0), unfed


def root_values(grammar: Pcfg) -> np.ndarray:
    """The root row of (I - M)^-1 [local lengths | local entropies]: the
    grammar's MLU and its derivational entropy.

    A relative-frequency grammar (:func:`count_totals`) needs no M: the MLU
    is T / N and the entropy sum_A f_A h_A / N, the sum correctly rounded.
    Any other grammar is solved (:func:`~.dense.solve_system`).
    """
    return _root_row(grammar, count_totals(grammar))


def _root_row(grammar: Pcfg, totals: CountTotals | None) -> np.ndarray:
    """:func:`root_values`, given the grammar's :func:`count_totals`."""
    entropies = local_entropies(grammar)
    if totals is None:
        from .dense import characteristic_matrix, solve_system

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


#: The dense layer (:mod:`.dense`), whose public names are found here on
#: first use.
_DENSE = frozenset({"CERTIFICATE_MARGIN", "DENSE_LIMIT_BYTES", "SOLVE_RESIDUAL_TOL",
                    "characteristic_matrix", "solve_system", "spectral_radius"})


def __getattr__(name):  # PEP 562
    if name in _DENSE:
        return getattr(importlib.import_module(".dense", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
