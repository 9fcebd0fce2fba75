"""Probabilistic context-free grammars: induction, tree probability, sampling.

A grammar is a root symbol plus an ordered list of rules; non-terminals are
exactly the symbols that occur as a left-hand side, terminals are the
remaining right-hand-side symbols, so the two alphabets are disjoint by
construction.  Rule probabilities per left-hand side must sum to one.
Frequencies observed during induction are kept alongside the probabilities;
the bias-corrected entropy estimators need the raw counts.

A :class:`Pcfg` interns each symbol once and keeps its rules as arrays (ids,
right-hand sides in CSR form, probabilities, frequencies), each
non-terminal's rules one segment of a stable sort.  One constructor
(:meth:`Pcfg._of`) builds it from symbol ids and their names: :func:`induce`
counts the rule ids that a reader interned (:class:`~.trees.CountedCorpus`)
with one ``bincount`` and passes the table's symbol ids of those rules,
:func:`loads` the ids of the symbols it scanned in whole-file array passes,
and ``Pcfg(root, rules)`` those of a dictionary over the rules' strings.
The entropy path, the estimators, the sampler and :func:`dumps` read the
arrays; rule keys ``(lhs, rhs)`` and :class:`Rule` objects are built only
when `Pcfg.expansions` or `Pcfg.rules` is asked for.  Drawing from a grammar
(:class:`~.sampling.Sampler`, :func:`~.sampling.sample`) and
:func:`~.sampling.tree_probability` live in :mod:`.sampling`, and the grammar
file's text in :mod:`.grammar_text`; each is imported on first use.  The
public names of :mod:`.sampling`, and ``Tree`` and ``Corpus``, are still
found here (PEP 562).
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .errors import AlphabetClashError, EmptyInputError, StructuralError, read_text
from .trees import CountedCorpus, RuleTable, _distinct, _packed, counted

if TYPE_CHECKING:
    from .tree_objects import Corpus

#: Synthetic start symbol used when the treebank has several root labels.
SYNTHETIC_ROOT = "⊤ROOT⊤"

#: Properness tolerance: per-lhs probabilities must sum to 1 within this.
PROPERNESS_TOL = 1e-9

DEFAULT_MAX_NODES = 10_000


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


class Pcfg:
    """Immutable PCFG, held as arrays over its symbols, each interned once.

    `symbols` lists the non-terminals (`nonterminals`, in first-encounter
    order of their left-hand sides, which fixes the indexing of the
    characteristic matrix), then the terminals in first-encounter order on
    the right-hand sides.  Rule i rewrites symbol `lhs[i]` as
    ``rhs[rhs_offsets[i]:rhs_offsets[i + 1]]`` with probability `prob[i]`
    and frequency `freq[i]` (int64, or Python ints if one does not fit).
    `order` sorts the rules stably by left-hand side, non-terminal k's being
    ``order[starts[k]:starts[k + 1]]``.  `expansions` (each rule's key
    ``(lhs, rhs)``), `rules`, `rules_for`, `lookup` and `terminals` are
    views built on first use.  No reported scalar may depend on the order
    of the rules.
    """

    def __init__(self, root: str, rules: Iterable[Rule]):
        from .grammar_text import _symbol_ids

        rules = tuple(rules)
        self._build(root, *_symbol_ids(rules), [r.prob for r in rules],
                    [r.freq for r in rules])
        self._refuse_duplicates()
        self.rules = rules

    @classmethod
    def _of(cls, root: str, lhs, rhs_offsets, rhs, names, prob, freq) -> Pcfg:
        """The grammar whose rule i rewrites ``names[lhs[i]]`` as the names
        of ``rhs[rhs_offsets[i]:rhs_offsets[i + 1]]``, its probabilities
        `prob` (None for each rule's relative frequency) and frequencies
        `freq`; the names need not all be used.  No two rules may be equal,
        which only a caller that takes rules from outside checks
        (:meth:`_refuse_duplicates`)."""
        grammar = cls.__new__(cls)
        grammar._build(root, lhs, rhs_offsets, rhs, names, prob, freq)
        return grammar

    def _build(self, root, lhs, rhs_offsets, rhs, names, prob, freq) -> None:
        if not len(lhs):
            raise StructuralError("a grammar needs at least one rule")
        lengths = np.diff(rhs_offsets)
        if not lengths.all():
            raise StructuralError(
                f"rule '{names[lhs[int(np.argmin(lengths))]]} ->' has an empty rhs")
        # The non-terminals by first use as a left-hand side, then the
        # other symbols by first use on a right-hand side.
        unused = len(rhs)  # past every index of `lhs` and `rhs`: no rhs is empty
        first = np.full(len(names), unused)
        np.minimum.at(first, lhs, np.arange(len(lhs)))
        nonterminals = (first < unused).nonzero()[0]
        nonterminals = nonterminals[first[nonterminals].argsort()]
        first[:] = unused
        np.minimum.at(first, rhs, np.arange(len(rhs)))
        first[nonterminals] = unused
        terminals = (first < unused).nonzero()[0]
        ordered = np.concatenate([nonterminals, terminals[first[terminals].argsort()]])
        index = np.empty(len(names), np.intp)
        index[ordered] = np.arange(len(ordered))
        n = len(nonterminals)
        self.symbols: tuple[str, ...] = tuple([names[i] for i in ordered.tolist()])
        self.nonterminals: tuple[str, ...] = self.symbols[:n]
        self.nt_index: dict[str, int] = dict(zip(self.nonterminals, range(n)))
        if root not in self.nt_index:
            raise StructuralError(f"root symbol '{root}' has no rules")
        self.root = root
        self.lhs = index[lhs]
        self.rhs_offsets = np.asarray(rhs_offsets, np.intp)
        self.rhs = index[rhs]
        try:
            self.freq = np.array(freq, dtype=np.int64)
        except OverflowError:  # kept exactly; such a grammar is solved
            self.freq = np.array(freq, dtype=object)
        if prob is None:  # each rule's relative frequency
            prob = self.freq / np.bincount(self.lhs, self.freq, n)[self.lhs]
        self.prob = np.array(prob, dtype=np.float64)
        self.order = self.lhs.astype(np.min_scalar_type(n)).argsort(kind="stable")
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(self.lhs, minlength=n))))

    def _refuse_duplicates(self) -> None:
        """Raise :class:`StructuralError` if two rules are equal."""
        if any(len(_distinct(key)[0]) < len(key) for _, key in _packed(
                self.lhs, self.rhs, self.rhs_offsets, len(self.symbols).bit_length())):
            raise StructuralError("duplicate rules (same lhs and rhs)")

    def by_lhs(self, values) -> list[np.ndarray]:
        """Each non-terminal's entries of the per-rule array `values`, in
        rule order."""
        return np.split(np.asarray(values)[self.order], self.starts[1:-1])

    @functools.cached_property
    def expansions(self) -> list[tuple[str, tuple[str, ...]]]:
        heads, bodies = self._texts(tuple)
        return list(zip(heads, bodies))

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
        return dict(zip(self.expansions, range(len(self))))

    def _texts(self, joined):
        """Each rule's left-hand side, and `joined` of its right-hand
        side's symbols."""
        symbols, cuts = self.symbols, self.rhs_offsets.tolist()
        names = [symbols[i] for i in self.rhs.tolist()]
        return ([symbols[i] for i in self.lhs.tolist()],
                [joined(names[a:b]) for a, b in zip(cuts, cuts[1:])])

    def rules_for(self, nonterminal: str) -> list[Rule]:
        k = self.nt_index[nonterminal]
        return [self.rules[i] for i in self.order[self.starts[k]:self.starts[k + 1]]]

    def lookup(self, lhs: str, rhs: tuple[str, ...]) -> Rule | None:
        i = self._rule_ids.get((lhs, rhs))
        return None if i is None else self.rules[i]

    def __len__(self):
        return len(self.lhs)

    def validate(self, tol: float = PROPERNESS_TOL) -> None:
        """Raise unless the grammar is proper within `tol`: the first
        non-terminal whose probabilities' exact sum (``math.fsum``) is
        further than `tol` from one.  Sums in floats decide every
        non-terminal but those within their rounding bound of the
        tolerance, which are summed exactly."""
        bad = np.flatnonzero(~((self.prob >= 0.0) & (self.prob <= 1.0)))  # NaN too
        if bad.size:
            i = bad[0]
            rhs = " ".join(self.symbols[j] for j in self.rhs[self.rhs_offsets[i]:
                                                             self.rhs_offsets[i + 1]])
            raise StructuralError(f"rule '{self.symbols[self.lhs[i]]} -> {rhs}' has "
                                  f"probability {float(self.prob[i])}")
        probs = self.prob[self.order]
        sums = np.add.reduceat(probs, self.starts[:-1])
        # A sum of k terms in [0, 1] is off by at most (k - 1) u times the
        # sum, u = 2**-53; 2**-50 also covers the gap's own rounding.
        slack = (np.diff(self.starts) + 1) * 2.0**-50 * (sums + 1.0)
        gaps = np.abs(sums - 1.0)
        close = np.flatnonzero(np.abs(gaps - tol) <= slack)
        exact = [math.fsum(probs[self.starts[k]:self.starts[k + 1]].tolist()) - 1.0
                 for k in close.tolist()]
        over = gaps - tol > slack
        over[close] = np.abs(exact) > tol
        if over.any():
            k = int(over.argmax())
            gap = math.fsum(probs[self.starts[k]:self.starts[k + 1]].tolist()) - 1.0
            raise StructuralError(
                f"probabilities of '{self.nonterminals[k]}' sum to 1{gap:+.3e}")


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
    freq = np.bincount(ids, minlength=len(table))[used]
    lhs, rhs_offsets, rhs = table.rows(used)
    names, symbols = table.names, table.symbols
    internal = np.zeros(len(names), bool)  # the ids of the internal labels
    internal[lhs] = True
    leaf_labels = set(leaves)
    leaf = np.array([symbols[x] for x in leaf_labels if x in symbols], np.int64)
    clash = leaf[internal[leaf]]
    if clash.size:
        raise AlphabetClashError(
            "labels used both internally and as leaves: "
            + ", ".join(sorted(names[i] for i in clash.tolist())[:10])
        )
    root_counts = Counter(roots)
    if len(root_counts) == 1:
        (root,) = root_counts
        if root not in symbols or not internal[symbols[root]]:
            # Corpus of bare single-leaf trees has no expansions to learn.
            raise StructuralError("corpus contains no internal nodes")
    else:
        root = SYNTHETIC_ROOT
        if root in leaf_labels or root in symbols and internal[symbols[root]]:
            raise AlphabetClashError(
                f"reserved root symbol '{SYNTHETIC_ROOT}' occurs in the corpus"
            )
        # One rule per root label, which need not be a symbol of the table.
        more = [x for x in (root, *root_counts) if x not in symbols]
        extra = dict(zip(more, range(len(names), len(names) + len(more))))
        names = names + more
        top = [symbols[x] if x in symbols else extra[x] for x in (root, *root_counts)]
        lhs = np.append(lhs, np.full(len(root_counts), top[0]))
        rhs = np.append(rhs, top[1:])
        rhs_offsets = np.append(rhs_offsets, rhs_offsets[-1] + np.arange(1, len(root_counts) + 1))
        freq = np.append(freq, list(root_counts.values()))
    return Pcfg._of(root, lhs, rhs_offsets, rhs, names, None, freq), used


def dumps(grammar: Pcfg) -> str:
    """Serialize to text: a ``#root`` header plus one rule per line
    ``prob<TAB>freq<TAB>lhs -> rhs1 rhs2 ...``.

    Probabilities are printed with 17 significant digits, so parsing the
    output reproduces them bit-exactly.  Symbols must be non-empty and
    whitespace-free and must not equal ``->``.
    """
    from .grammar_text import written

    return written(grammar)


def loads(text: str) -> Pcfg:
    """Parse the serialization produced by :func:`dumps`.

    Exactly one ``#root <symbol>`` header is read, other lines starting with
    ``#`` are comments, and ``->`` is reserved for the arrow; anything else
    raises :class:`ParseError` at its line.  The grammar is validated: a
    probability outside [0, 1] (NaN included) or a non-terminal whose
    probabilities do not sum to one raises :class:`StructuralError`.

    Text in the form that :func:`dumps` writes is read in whole-file array
    passes (:func:`~.grammar_text.scanned`); any other text is read line by
    line (:func:`~.grammar_text.lines`), which gives every
    :class:`ParseError`.
    """
    from .grammar_text import lines, scanned  # only where a grammar file is read

    parts = scanned(text)
    grammar = Pcfg._of(*(lines(text) if parts is None else parts))
    grammar._refuse_duplicates()
    grammar.validate()
    return grammar


def write_grammar(grammar: Pcfg, path) -> None:
    text = dumps(grammar)  # a grammar it refuses leaves no file
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_grammar(path) -> Pcfg:
    return loads(read_text(path))


#: The names defined in modules that load on first use, found here too.
_ELSEWHERE = {**dict.fromkeys(("Corpus", "Tree"), "tree_objects"),
              **dict.fromkeys(("MAX_SAMPLE_RETRIES", "Sampler", "TreeProbability", "sample",
                               "tree_probability"), "sampling")}


def __getattr__(name):  # PEP 562
    if name in _ELSEWHERE:
        return getattr(importlib.import_module(f".{_ELSEWHERE[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
