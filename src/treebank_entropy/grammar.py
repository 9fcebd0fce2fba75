"""Probabilistic context-free grammars: induction, tree probability, sampling.

A grammar is a root symbol plus an ordered list of rules; non-terminals are
exactly the symbols that occur as a left-hand side, terminals are the
remaining right-hand-side symbols, so the two alphabets are disjoint by
construction.  Rule probabilities per left-hand side must sum to one.
Frequencies observed during induction are kept alongside the probabilities;
the bias-corrected entropy estimators need the raw counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
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
from .trees import Corpus, CountedCorpus, Derivation, Tree

#: Synthetic start symbol used when the treebank has several root labels.
SYNTHETIC_ROOT = "⊤ROOT⊤"

#: Properness tolerance: per-lhs probabilities must sum to 1 within this.
PROPERNESS_TOL = 1e-9

DEFAULT_MAX_NODES = 10_000
MAX_SAMPLE_RETRIES = 1000


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]
    prob: float
    freq: int = 0

    def __str__(self):
        return f"{self.lhs} -> {' '.join(self.rhs)}"


@dataclass(frozen=True)
class FreqTable:
    """Observed outcome frequencies of one discrete random variable."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or any(c < 1 for c in self.counts):
            raise StructuralError("a frequency table needs positive counts")

    @property
    def n(self) -> int:
        return sum(self.counts)


class TreeProbability(NamedTuple):
    prob: float
    log2: float


class Pcfg:
    """Immutable PCFG.

    `rules` keeps its given order; `nonterminals` lists symbols in
    first-encounter order of their left-hand sides, which fixes the indexing
    of the characteristic matrix.  No reported scalar may depend on that
    order.
    """

    def __init__(self, root: str, rules: Iterable[Rule]):
        self.root = root
        self.rules = tuple(rules)
        if not self.rules:
            raise StructuralError("a grammar needs at least one rule")
        order: dict[str, int] = {}
        by_lhs: dict[str, list[Rule]] = {}
        for rule in self.rules:
            if not rule.rhs:
                raise StructuralError(f"rule '{rule.lhs} ->' has an empty rhs")
            if rule.lhs not in order:
                order[rule.lhs] = len(order)
                by_lhs[rule.lhs] = []
            by_lhs[rule.lhs].append(rule)
        self.nonterminals: tuple[str, ...] = tuple(order)
        self.nt_index: dict[str, int] = order
        self._by_lhs = by_lhs
        terminals = set()
        for rule in self.rules:
            for sym in rule.rhs:
                if sym not in order:
                    terminals.add(sym)
        self.terminals: frozenset[str] = frozenset(terminals)
        if root not in order:
            raise StructuralError(f"root symbol '{root}' has no rules")
        self._rule_index = {(r.lhs, r.rhs): r for r in self.rules}
        if len(self._rule_index) != len(self.rules):
            raise StructuralError("duplicate rules (same lhs and rhs)")

    def rules_for(self, nonterminal: str) -> list[Rule]:
        return self._by_lhs[nonterminal]

    def lookup(self, lhs: str, rhs: tuple[str, ...]) -> Rule | None:
        return self._rule_index.get((lhs, rhs))

    def __len__(self):
        return len(self.rules)

    def properness_gaps(self) -> dict[str, float]:
        """Per-non-terminal signed deviation of the probability sum from one."""
        return {
            nt: math.fsum(r.prob for r in rules) - 1.0
            for nt, rules in self._by_lhs.items()
        }

    def validate(self, tol: float = PROPERNESS_TOL) -> None:
        """Raise unless the grammar is proper within `tol`."""
        for rule in self.rules:
            if not 0.0 <= rule.prob <= 1.0:
                raise StructuralError(f"rule '{rule}' has probability {rule.prob}")
        for nt, gap in self.properness_gaps().items():
            if abs(gap) > tol:
                raise StructuralError(
                    f"probabilities of '{nt}' sum to 1{gap:+.3e}"
                )


class RuleCounts:
    """Sufficient statistics of ML induction over a multiset of derivations.

    `rules` counts ``(lhs, rhs)`` expansions and `roots` root labels, each
    in first-encounter order (a :class:`Counter` keeps insertion order);
    `leaves` holds every label seen on a leaf, for the alphabet check.
    Counts of a union of corpora are the sums of their counts, and adding
    derivations in corpus order keeps the first-encounter order of the
    union.  Trees are counted through :func:`~.trees.derivation`.
    """

    __slots__ = ("rules", "roots", "leaves")

    def __init__(self, derivations: Iterable[Derivation] = ()):
        self.rules: Counter[tuple[str, tuple[str, ...]]] = Counter()
        self.roots: Counter[str] = Counter()
        self.leaves: set[str] = set()
        self.add(derivations)

    def add(self, derivations: Iterable[Derivation]) -> None:
        """Count every expansion, root and leaf of `derivations`."""
        for root, rules, leaves in derivations:
            self.roots[root] += 1
            self.rules.update(rules)
            self.leaves.update(leaves)

    def grammar(self) -> Pcfg:
        """The maximum-likelihood grammar of the counted trees."""
        if not self.roots:
            raise EmptyInputError("cannot induce a grammar from an empty corpus")
        internal_labels = {lhs for lhs, _ in self.rules}
        clash = internal_labels & self.leaves
        if clash:
            raise AlphabetClashError(
                "labels used both internally and as leaves: "
                + ", ".join(sorted(clash)[:10])
            )
        lhs_total: Counter[str] = Counter()
        for (lhs, _), freq in self.rules.items():
            lhs_total[lhs] += freq
        rules = [
            Rule(lhs, rhs, freq / lhs_total[lhs], freq)
            for (lhs, rhs), freq in self.rules.items()
        ]
        if len(self.roots) == 1:
            (root,) = self.roots
            if root not in internal_labels:
                # Corpus of bare single-leaf trees has no expansions to learn.
                raise StructuralError("corpus contains no internal nodes")
        else:
            if SYNTHETIC_ROOT in internal_labels or SYNTHETIC_ROOT in self.leaves:
                raise AlphabetClashError(
                    f"reserved root symbol '{SYNTHETIC_ROOT}' occurs in the corpus"
                )
            root = SYNTHETIC_ROOT
            total = sum(self.roots.values())
            rules.extend(
                Rule(root, (label,), freq / total, freq)
                for label, freq in self.roots.items()
            )
        return Pcfg(root, rules)


def induce(corpus: Corpus | CountedCorpus) -> Pcfg:
    """Maximum-likelihood induction: one rule per distinct expansion,
    probability equal to its relative frequency among the left-hand side's
    expansions.

    When the trees disagree on the root label a synthetic start symbol is
    added with one rule per observed root.  A symbol appearing both as an
    internal and as a leaf label raises :class:`AlphabetClashError`.
    """
    return RuleCounts(corpus.derivations()).grammar()


def tree_probability(grammar: Pcfg, tree: Tree) -> TreeProbability:
    """Probability of a tree: product of its rule probabilities.

    Computed in log space; the linear-scale value may underflow to 0.0 for
    large trees while the returned log2 stays exact.  An expansion missing
    from the grammar raises :class:`OutOfGrammarError` naming the rule.
    When the grammar carries a synthetic start symbol, the unary rule
    rewriting it as the tree's root label enters the product as well.
    """
    log2 = 0.0
    missing = []
    if tree.label != grammar.root:
        wrapper = grammar.lookup(grammar.root, (tree.label,))
        if wrapper is None:
            missing.append(f"{grammar.root} -> {tree.label}")
        else:
            log2 += math.log2(wrapper.prob)
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        rule = grammar.lookup(node.label, tuple(c.label for c in node.children))
        if rule is None:
            missing.append(f"{node.label} -> "
                           + " ".join(c.label for c in node.children))
            continue
        log2 += math.log2(rule.prob)
    if missing:
        raise OutOfGrammarError("tree uses unknown rules", rules=missing)
    return TreeProbability(2.0 ** log2, log2)


class Sampler:
    """Repeated sampling from one grammar.

    Expansion is leftmost; each non-terminal draws a rule from its own
    distribution with one ``rng.random()``.  :meth:`sample` returns the
    draw's :class:`Derivation`, which is all that rule counting reads, and
    :meth:`sample_tree` builds the tree of the same draw.  Draws exceeding
    the node budget are rejected and retried; the retry count of the last
    draw is kept in `last_retries`.  Every draw takes its randomness from
    the generator passed in.
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
        self._tables = {}
        for nt in grammar.nonterminals:
            rules = grammar.rules_for(nt)
            cum = np.cumsum([r.prob for r in rules]).tolist()
            picks = [((nt, r.rhs), len(r.rhs), r.rhs[::-1]) for r in rules]
            self._tables[nt] = (cum, picks)

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


def rule_freq_tables(grammar: Pcfg) -> dict[str, FreqTable]:
    """Observed expansion frequencies of every non-terminal, in rule order."""
    tables = {}
    for nt in grammar.nonterminals:
        counts = tuple(r.freq for r in grammar.rules_for(nt))
        if any(c < 1 for c in counts):
            raise StructuralError(
                f"'{nt}' has rules without frequency counts; induce the "
                "grammar from a corpus to retain them"
            )
        tables[nt] = FreqTable(counts)
    return tables


def dumps(grammar: Pcfg) -> str:
    """Serialize to text: a ``#root`` header plus one rule per line
    ``prob<TAB>freq<TAB>lhs -> rhs1 rhs2 ...``.

    Probabilities are printed with 17 significant digits, so parsing the
    output reproduces them bit-exactly.  Symbols must be whitespace-free and
    must not equal ``->``.
    """
    for rule in grammar.rules:
        for sym in (rule.lhs, *rule.rhs):
            if sym == "->" or any(c.isspace() for c in sym):
                raise StructuralError(f"symbol {sym!r} is not serializable")
    lines = [f"#root {grammar.root}"]
    lines.extend(
        f"{rule.prob:.17g}\t{rule.freq}\t{rule.lhs} -> {' '.join(rule.rhs)}"
        for rule in grammar.rules
    )
    return "\n".join(lines) + "\n"


def loads(text: str) -> Pcfg:
    """Parse the serialization produced by :func:`dumps`.

    The grammar is validated: a probability outside [0, 1] (NaN included)
    or a non-terminal whose probabilities do not sum to one raises
    :class:`StructuralError`.
    """
    root = None
    rules = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#root"):
            root = line[len("#root"):].strip()
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected prob<TAB>freq<TAB>rule", line=line_no)
        try:
            prob = float(fields[0])
            freq = int(fields[1])
        except ValueError:
            raise ParseError(
                f"bad numeric fields {fields[0]!r}, {fields[1]!r}", line=line_no
            ) from None
        symbols = fields[2].split()
        if len(symbols) < 3 or symbols[1] != "->":
            raise ParseError("expected 'lhs -> rhs...'", line=line_no)
        rules.append(Rule(symbols[0], tuple(symbols[2:]), prob, freq))
    if root is None:
        raise ParseError("missing '#root <symbol>' header")
    grammar = Pcfg(root, rules)
    grammar.validate()
    return grammar


def write_grammar(grammar: Pcfg, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(grammar))


def read_grammar(path) -> Pcfg:
    return loads(read_text(path))
