"""Drawing from a grammar: the sentence sampler, the rule counts of a sweep's
tasks, and the probability of a tree.

Only the commands that draw (``sample``, ``converge``) and library callers
import this module; its public names are still found in :mod:`.grammar`
(PEP 562).  A sweep task of at least `_BRANCH_FROM` sentences draws its rule
counts as a branching process (:func:`_branched`); a smaller one samples
sentence by sentence (:class:`Sampler`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .entropy import _children
from .errors import InputError, OutOfGrammarError, SamplingDivergenceError
from .grammar import DEFAULT_MAX_NODES, Pcfg
from .trees import Derivation

if TYPE_CHECKING:
    from .tree_objects import Tree

MAX_SAMPLE_RETRIES = 1000


class TreeProbability(NamedTuple):
    prob: float
    log2: float


def tree_probability(grammar: Pcfg, tree: Tree) -> TreeProbability:
    """Probability of a tree: product of its rule probabilities.

    Computed in log space; the linear-scale value may underflow to 0.0 for
    large trees while the returned log2 stays exact.  An expansion missing
    from the grammar raises :class:`OutOfGrammarError` naming the rule.
    When the grammar carries a synthetic start symbol, the unary rule
    rewriting it as the tree's root label enters the product as well.
    """
    from .tree_objects import derivation

    root, rules, _ = derivation(tree)
    if root != grammar.root:
        rules.insert(0, (grammar.root, (root,)))
    ids = [grammar._rule_ids.get(key) for key in rules]
    missing = [f"{lhs} -> {' '.join(rhs)}" for (lhs, rhs), i in zip(rules, ids) if i is None]
    if missing:
        raise OutOfGrammarError("tree uses unknown rules", rules=missing)
    log2 = 0.0
    for prob in grammar.prob[ids].tolist():
        log2 += math.log2(prob)
    return TreeProbability(2.0 ** log2, log2)


class Sampler:
    """Repeated sampling from one grammar.

    Expansion is leftmost; each non-terminal draws a rule from its own
    distribution with one ``rng.random()``.  :meth:`sample` returns the
    draw's :class:`~.trees.Derivation`, which is all that rule counting
    reads, and :meth:`sample_tree` builds the tree of the same draw.  Draws
    exceeding the node budget are rejected and retried; the retry count of
    the last draw is kept in `last_retries`.  Every draw takes its
    randomness from the ``random()`` method of the generator passed in.
    """

    def __init__(self, grammar: Pcfg, max_nodes: int = DEFAULT_MAX_NODES):
        if max_nodes < 2:  # a root and one child is the smallest tree
            raise InputError(f"max_nodes must be at least 2, not {max_nodes}")
        grammar.validate()
        self.grammar = grammar
        self.max_nodes = max_nodes
        self.last_retries = 0
        # Per non-terminal: the cumulative probabilities and, per rule, the
        # (lhs, rhs) pair, its size and its rhs reversed for the agenda.
        picks = [(key, len(key[1]), key[1][::-1]) for key in grammar.expansions]
        order, starts = grammar.order.tolist(), grammar.starts.tolist()
        self._tables = {
            nt: (np.cumsum(probs).tolist(), [picks[i] for i in order[a:b]])
            for nt, probs, a, b in zip(grammar.nonterminals,
                                       grammar.by_lhs(grammar.prob), starts, starts[1:])
        }

    def sample(self, rng: np.random.Generator) -> Derivation:
        for retries in range(MAX_SAMPLE_RETRIES):
            drawn = self._try_sample(rng)
            if drawn is not None:
                self.last_retries = retries
                return drawn
        raise SamplingDivergenceError(
            f"draw exceeded {self.max_nodes} nodes {MAX_SAMPLE_RETRIES} times"
        )

    def _try_sample(self, rng: np.random.Generator) -> Derivation | None:
        tables = self._tables
        random = rng.random
        max_nodes = self.max_nodes
        root = self.grammar.root
        rules = []
        leaves = []
        agenda = [root]  # terminals too, so leaves come out left to right
        nodes = 1
        while agenda:
            label = agenda.pop()
            table = tables.get(label)
            if table is None:
                leaves.append(label)
                continue
            cum, picks = table
            idx = bisect_right(cum, random())
            if idx == len(picks):  # guards cum[-1] rounding below 1.0
                idx -= 1
            rule, size, reversed_rhs = picks[idx]
            nodes += size
            if nodes > max_nodes:
                return None
            rules.append(rule)
            agenda.extend(reversed_rhs)
        return Derivation(root, rules, leaves)

    def sample_tree(self, rng: np.random.Generator) -> Tree:
        """Draw one tree: :meth:`sample`'s draw, built in one pre-order pass."""
        from .tree_objects import Tree

        root, rules, _ = self.sample(rng)
        tables = self._tables
        tree = Tree(root)
        agenda = [tree]  # internal nodes not yet expanded, leftmost last
        for _, rhs in rules:
            node = agenda.pop()
            node.children = children = tuple(map(Tree, rhs))
            agenda.extend(c for c in reversed(children) if c.label in tables)
        return tree


def sample(
    grammar: Pcfg, seed: int, max_nodes: int = DEFAULT_MAX_NODES
) -> Tree:
    """Draw one tree, deterministically for a given seed."""
    return Sampler(grammar, max_nodes).sample_tree(np.random.default_rng(seed))


#: Uniforms drawn at a time for a sweep task's sampler.
_UNIFORM_BATCH = 512


def _uniforms(rng: np.random.Generator) -> SimpleNamespace:
    """A stand-in for `rng` in :meth:`Sampler.sample` whose ``random()``
    hands out ``rng.random(_UNIFORM_BATCH)`` one double at a time: the
    doubles that as many scalar draws give, in the same order."""
    batches = iter(lambda: rng.random(_UNIFORM_BATCH).tolist(), None)
    return SimpleNamespace(random=chain.from_iterable(batches).__next__)


def _count_row(grammar: Pcfg, rules) -> np.ndarray:
    """The counts of `grammar`'s rules among the ``(lhs, rhs)`` keys
    `rules`, as one int64 row."""
    ids = np.fromiter(map(grammar._rule_ids.__getitem__, rules), np.intp)
    return np.bincount(ids, minlength=len(grammar))


#: Tasks of at least this many sentences draw their rule counts as a
#: branching process; below it, sampling sentence by sentence costs less
#: (the per-task costs on the benchmark's sweep source are in CHANGES.md).
_BRANCH_FROM = 100


def sweep_counts(truth: Pcfg, sizes: list[int], replications: int, seed: int):
    """Yield, for each replication rep in turn, the rule counts of its
    tasks: one int64 row over `truth`'s rules for each size of the sorted
    `sizes`, each drawn from its own stream ``(seed, rep, size)``, so that a
    task's row does not depend on the other tasks.  A task samples that many
    derivations below `_BRANCH_FROM` sentences and draws them as a branching
    process from there on (:func:`_branched`)."""
    sampler = Sampler(truth)
    offspring = _offspring(truth) if sizes[-1] >= _BRANCH_FROM else None
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
        yield counts


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
