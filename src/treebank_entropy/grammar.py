"""Probabilistic context-free grammars: induction, tree probability, sampling.

A grammar is a root symbol plus an ordered list of rules; non-terminals are
exactly the symbols that occur as a left-hand side, terminals are the
remaining right-hand-side symbols, so the two alphabets are disjoint by
construction.  Rule probabilities per left-hand side must sum to one.
Frequencies observed during induction are kept alongside the probabilities;
the bias-corrected entropy estimators need the raw counts.

A :class:`Pcfg` interns each symbol once and keeps its rules as arrays (ids,
right-hand sides in CSR form, probabilities, frequencies), each
non-terminal's rules one segment of a stable sort.  :func:`induce` counts
the rule ids that a reader interned (:class:`~.trees.CountedCorpus`) with
one ``bincount``; it, :func:`loads` and ``Pcfg(root, rules)`` each intern
the symbols in one pass.  The entropy path, the estimators, the sampler and
:func:`dumps` read the arrays, and :class:`Rule` objects are built only
when `Pcfg.rules` is asked for.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    AlphabetClashError,
    EmptyInputError,
    InputError,
    OutOfGrammarError,
    ParseError,
    SamplingDivergenceError,
    StructuralError,
    read_text,
)
from .trees import (
    Corpus,
    CountedCorpus,
    Derivation,
    RuleTable,
    Tree,
    counted,
    derivation,
)

#: Synthetic start symbol used when the treebank has several root labels.
SYNTHETIC_ROOT = "⊤ROOT⊤"

#: Properness tolerance: per-lhs probabilities must sum to 1 within this.
PROPERNESS_TOL = 1e-9

DEFAULT_MAX_NODES = 10_000
MAX_SAMPLE_RETRIES = 1000


class Rule(NamedTuple):
    lhs: str
    rhs: tuple[str, ...]
    prob: float
    freq: int = 0

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs)}"


class _Counts(NamedTuple):
    counts: tuple[int, ...]


class FreqTable(_Counts):
    """Observed outcome frequencies of one discrete random variable."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if not counts or any(c < 1 for c in counts):
            raise StructuralError("a frequency table needs positive counts")
        return super().__new__(cls, counts)

    @property
    def n(self) -> int:
        return sum(self.counts)


class TreeProbability(NamedTuple):
    prob: float
    log2: float


class Pcfg:
    """Immutable PCFG, held as arrays over its symbols, each interned once.

    `symbols` lists the non-terminals (`nonterminals`, in first-encounter
    order of their left-hand sides, which fixes the indexing of the
    characteristic matrix), then the terminals in first-encounter order.
    Rule i, with key ``expansions[i] = (lhs, rhs)``, rewrites symbol `lhs[i]`
    as ``rhs[rhs_offsets[i]:rhs_offsets[i + 1]]`` with probability `prob[i]`
    and frequency `freq[i]` (int64, or Python ints if one does not fit).
    `order` sorts the rules stably by left-hand side, non-terminal k's being
    ``order[starts[k]:starts[k + 1]]``.  `rules`, `rules_for`, `lookup` and
    `terminals` are views built on first use.  No reported scalar may
    depend on the order of the rules.
    """

    def __init__(self, root: str, rules: Iterable[Rule]):
        rules = tuple(rules)
        self._intern(root, [(r.lhs, r.rhs) for r in rules],
                     [r.prob for r in rules], [r.freq for r in rules])
        self.rules = rules

    @classmethod
    def _of(cls, root: str, expansions: list, prob, freq) -> Pcfg:
        grammar = cls.__new__(cls)
        grammar._intern(root, expansions, prob, freq)
        return grammar

    def _intern(self, root, expansions, prob, freq) -> None:
        if not expansions:
            raise StructuralError("a grammar needs at least one rule")
        lhs = [key[0] for key in expansions]
        rhss = [key[1] for key in expansions]
        ids = {sym: i for i, sym in enumerate(dict.fromkeys(lhs))}
        n = len(ids)
        rhs = list(chain.from_iterable(rhss))
        for sym in dict.fromkeys(rhs):
            ids.setdefault(sym, len(ids))
        lengths = np.fromiter(map(len, rhss), np.intp, len(lhs))
        if not lengths.all():
            raise StructuralError(
                f"rule '{lhs[int(np.argmin(lengths))]} ->' has an empty rhs")
        if ids.get(root, n) >= n:
            raise StructuralError(f"root symbol '{root}' has no rules")
        if len(set(expansions)) != len(expansions):
            raise StructuralError("duplicate rules (same lhs and rhs)")
        self.root = root
        self.symbols: tuple[str, ...] = tuple(ids)
        self.nonterminals: tuple[str, ...] = self.symbols[:n]
        self.nt_index: dict[str, int] = dict(zip(self.nonterminals, range(n)))
        self.expansions: list[tuple[str, tuple[str, ...]]] = expansions
        self.lhs = np.fromiter(map(ids.__getitem__, lhs), np.intp, len(lhs))
        self.rhs_offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.rhs = np.fromiter(map(ids.__getitem__, rhs), np.intp, len(rhs))
        try:
            self.freq = np.array(freq, dtype=np.int64)
        except OverflowError:  # kept exactly; such a grammar is solved
            self.freq = np.array(freq, dtype=object)
        if prob is None:  # each rule's relative frequency
            prob = self.freq / np.bincount(self.lhs, self.freq, n)[self.lhs]
        self.prob = np.array(prob, dtype=np.float64)
        self.order = np.argsort(self.lhs, kind="stable")
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(self.lhs, minlength=n))))

    def by_lhs(self, values) -> list[np.ndarray]:
        """Each non-terminal's entries of the per-rule array `values`, in
        rule order."""
        return np.split(np.asarray(values)[self.order], self.starts[1:-1])

    @functools.cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(
            Rule(lhs, rhs, prob, freq) for (lhs, rhs), prob, freq
            in zip(self.expansions, self.prob.tolist(), self.freq.tolist())
        )

    @functools.cached_property
    def terminals(self) -> frozenset[str]:
        return frozenset(self.symbols[len(self.nonterminals):])

    @functools.cached_property
    def _rule_ids(self) -> dict[tuple[str, tuple[str, ...]], int]:
        return dict(zip(self.expansions, range(len(self.expansions))))

    def rules_for(self, nonterminal: str) -> list[Rule]:
        k = self.nt_index[nonterminal]
        return [self.rules[i] for i in self.order[self.starts[k]:self.starts[k + 1]]]

    def lookup(self, lhs: str, rhs: tuple[str, ...]) -> Rule | None:
        i = self._rule_ids.get((lhs, rhs))
        return None if i is None else self.rules[i]

    def __len__(self):
        return len(self.expansions)

    def validate(self, tol: float = PROPERNESS_TOL) -> None:
        """Raise unless the grammar is proper within `tol`."""
        bad = np.flatnonzero(~((self.prob >= 0.0) & (self.prob <= 1.0)))  # NaN too
        if bad.size:
            lhs, rhs = self.expansions[bad[0]]
            raise StructuralError(f"rule '{lhs} -> {' '.join(rhs)}' has "
                                  f"probability {float(self.prob[bad[0]])}")
        for nt, probs in zip(self.nonterminals, self.by_lhs(self.prob)):
            gap = math.fsum(probs.tolist()) - 1.0
            if abs(gap) > tol:
                raise StructuralError(f"probabilities of '{nt}' sum to 1{gap:+.3e}")


def induce(corpus: Corpus | CountedCorpus) -> Pcfg:
    """Maximum-likelihood induction: one rule per distinct expansion,
    probability equal to its relative frequency among the left-hand side's
    expansions.

    The rules come in the order of their first occurrence in the corpus.
    When the trees disagree on the root label a synthetic start symbol is
    added, after them, with one rule per observed root.  A symbol appearing
    both as an internal and as a leaf label raises
    :class:`AlphabetClashError`.  A tree corpus is counted first
    (:func:`~.trees.counted`).
    """
    corpus = counted(corpus)
    return _induce(corpus.table, corpus.ids, corpus.roots, corpus.leaves)[0]


def _induce(table: RuleTable, ids: np.ndarray, roots: list[str], leaves):
    """The grammar :func:`induce` gives for the sentences with root labels
    `roots`, their rules the stream `ids` of `table`'s ids and their leaf
    labels `leaves`; and the table ids of its rules, in rule order (the
    synthetic root's rules, last, are not in the table).

    Counting is one ``bincount``, and the rules' order is that of their
    first index in `ids`, so one table serves every file, prefix and
    permutation of a corpus.
    """
    if not roots:
        raise EmptyInputError("cannot induce a grammar from an empty corpus")
    first = np.full(len(table), ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    used = np.argsort(first)[:np.count_nonzero(first < ids.size)]
    keys = table.keys()
    expansions = [keys[i] for i in used.tolist()]
    freq = np.bincount(ids, minlength=len(table))[used]
    internal_labels = {lhs for lhs, _ in expansions}
    if not internal_labels.isdisjoint(leaves):
        raise AlphabetClashError(
            "labels used both internally and as leaves: "
            + ", ".join(sorted(internal_labels.intersection(leaves))[:10])
        )
    root_counts = Counter(roots)
    if len(root_counts) == 1:
        (root,) = root_counts
        if root not in internal_labels:
            # Corpus of bare single-leaf trees has no expansions to learn.
            raise StructuralError("corpus contains no internal nodes")
    else:
        if SYNTHETIC_ROOT in internal_labels or SYNTHETIC_ROOT in leaves:
            raise AlphabetClashError(
                f"reserved root symbol '{SYNTHETIC_ROOT}' occurs in the corpus"
            )
        root = SYNTHETIC_ROOT
        expansions.extend((root, (label,)) for label in root_counts)
        freq = np.append(freq, list(root_counts.values()))
    return Pcfg._of(root, expansions, None, freq), used


def tree_probability(grammar: Pcfg, tree: Tree) -> TreeProbability:
    """Probability of a tree: product of its rule probabilities.

    Computed in log space; the linear-scale value may underflow to 0.0 for
    large trees while the returned log2 stays exact.  An expansion missing
    from the grammar raises :class:`OutOfGrammarError` naming the rule.
    When the grammar carries a synthetic start symbol, the unary rule
    rewriting it as the tree's root label enters the product as well.
    """
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
    draw's :class:`Derivation`, which is all that rule counting reads, and
    :meth:`sample_tree` builds the tree of the same draw.  Draws exceeding
    the node budget are rejected and retried; the retry count of the last
    draw is kept in `last_retries`.  Every draw takes its randomness from
    the ``random()`` method of the generator passed in.
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


def dumps(grammar: Pcfg) -> str:
    """Serialize to text: a ``#root`` header plus one rule per line
    ``prob<TAB>freq<TAB>lhs -> rhs1 rhs2 ...``.

    Probabilities are printed with 17 significant digits, so parsing the
    output reproduces them bit-exactly.  Symbols must be whitespace-free and
    must not equal ``->``.
    """
    for sym in grammar.symbols:
        if sym == "->" or any(c.isspace() for c in sym):
            raise StructuralError(f"symbol {sym!r} is not serializable")
    lines = [f"#root {grammar.root}"]
    lines.extend(
        f"{prob:.17g}\t{freq}\t{lhs} -> {' '.join(rhs)}"
        for (lhs, rhs), prob, freq
        in zip(grammar.expansions, grammar.prob.tolist(), grammar.freq.tolist())
    )
    return "\n".join(lines) + "\n"


def loads(text: str) -> Pcfg:
    """Parse the serialization produced by :func:`dumps`.

    Exactly one ``#root <symbol>`` header is read, other lines starting with
    ``#`` are comments, and ``->`` is reserved for the arrow; anything else
    raises :class:`ParseError` at its line.  The grammar is validated: a
    probability outside [0, 1] (NaN included) or a non-terminal whose
    probabilities do not sum to one raises :class:`StructuralError`.
    """
    root = None
    expansions, probs, freqs = [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#root"):
            header = line.split()
            if header[0] != "#root" or len(header) != 2:
                raise ParseError("expected '#root <symbol>'", line=line_no)
            if root is not None:
                raise ParseError("a second '#root' header", line=line_no)
            root = header[1]
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected prob<TAB>freq<TAB>rule", line=line_no)
        try:
            probs.append(float(fields[0]))
            freqs.append(int(fields[1]))
        except ValueError:
            raise ParseError(
                f"bad numeric fields {fields[0]!r}, {fields[1]!r}", line=line_no
            ) from None
        symbols = fields[2].split()
        if len(symbols) < 3 or symbols[1] != "->" or symbols.count("->") > 1:
            raise ParseError("expected 'lhs -> rhs...', '->' only as the arrow",
                             line=line_no)
        expansions.append((symbols[0], tuple(symbols[2:])))
    if root is None:
        raise ParseError("missing '#root <symbol>' header")
    grammar = Pcfg._of(root, expansions, probs, freqs)
    grammar.validate()
    return grammar


def write_grammar(grammar: Pcfg, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(grammar))


def read_grammar(path) -> Pcfg:
    return loads(read_text(path))
