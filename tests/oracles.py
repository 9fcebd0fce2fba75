"""Independent reference computations used by the test suite.

Nothing here calls the closed-form entropy path it is meant to check: tree
entropies come from explicit enumeration of derivations, spectral radii from
the dense eigensolver or from every strongly connected block iterated,
single vertices included (:func:`reference_sparse_radius`), the expected-counts matrix and the expected terminals
per expansion from a loop over the rules, projective graphs from direct interval splitting,
crossing arcs from each head's projection as a set, CoNLL-U graphs from
the original line-by-line reader, whose treeness check walks from every
token to the root, the derivations of a CoNLL-U text from those graphs
converted to trees and walked,
cleaned trees from the original read pipeline, in which parsing, trace
stripping, function-tag cutting and pre-terminalization each rebuild the tree
in a pass of their own, sampled trees from the original tree sampler, which
builds every node as it draws, CWJ estimates from
``scipy.special.digamma`` and a tail summed in ``mpmath``, and grammars,
with every array and value computed from them, from the implementation
that kept each grammar as a list of :class:`Rule` objects and walked it
(:class:`ReferencePcfg` and the functions after it), a grammar's arrays
from dictionaries keyed by symbol strings (:func:`reference_pcfg_arrays`),
rule counts from a
:class:`Counter` of ``(lhs, rhs)`` keys (:class:`RuleCounts`), and the
certificate of a row of counts from the strongly connected blocks of M, each
tested for an occurrence from outside (:func:`reference_certify_counts`),
where the package searches from the root.  The package's searches before
they ran in numpy are kept as well: the spectral radius over the blocks
that Tarjan's search finds in the whole graph
(:func:`reference_tarjan_radius`) and the certificate's depth-first search
from the root in Python (:func:`reference_search_certificate`).  The cross-entropy of a
grammar on test trees (:func:`cross_entropy`) walks each tree through
:func:`~treebank_entropy.grammar.tree_probability`.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.special import digamma, gammaln

from treebank_entropy.conllu import DepGraph
from treebank_entropy.depconv import ConversionConfig, dep_to_tree
from treebank_entropy.entropy import (
    CountTotals,
    RateReport,
    _perron_upper_bound,
    _strong_components,
    entropy_from_probs,
    solve_system,
)
from treebank_entropy.errors import (
    AlphabetClashError,
    DivergentGrammarError,
    EmptyInputError,
    NonProjectiveError,
    NumericalError,
    OutOfGrammarError,
    ParseError,
    SamplingDivergenceError,
    StructuralError,
)
from treebank_entropy.estimators import SmootherKind, cae_entropy, cwj_entropy, ml_entropy
from treebank_entropy.grammar import (
    MAX_SAMPLE_RETRIES,
    PROPERNESS_TOL,
    SYNTHETIC_ROOT,
    FreqTable,
    Pcfg,
    Rule,
    TreeProbability,
    tree_probability,
)
from treebank_entropy.trees import DEFAULT_DROP_LABELS, Corpus, Tree, derivation


def enumerate_entropy(grammar, mass_tol=1e-10, max_pops=5_000_000):
    """Tree entropy in bits by best-first enumeration of leftmost derivations.

    Complete derivations are popped in order of decreasing probability until
    the accumulated tree mass reaches ``1 - mass_tol``.  Returns
    ``(entropy_bits, covered_mass, pops)``.
    """
    nt_rules = {
        nt: [
            (r.prob, tuple(s for s in r.rhs if s in grammar.nt_index))
            for r in grammar.rules_for(nt)
        ]
        for nt in grammar.nonterminals
    }
    heap = [(-1.0, 0, (grammar.root,))]
    tie = 1
    mass = 0.0
    entropy = 0.0
    pops = 0
    while heap and mass < 1.0 - mass_tol:
        pops += 1
        if pops > max_pops:
            raise RuntimeError(
                f"enumeration budget exhausted at mass {mass:.12f}"
            )
        neg_p, _, pending = heapq.heappop(heap)
        p = -neg_p
        if not pending:
            mass += p
            if p < 1.0:
                entropy -= p * math.log2(p)
            continue
        head, rest = pending[0], pending[1:]
        for prob, rhs_nts in nt_rules[head]:
            heapq.heappush(heap, (-(p * prob), tie, rhs_nts + rest))
            tie += 1
    return entropy, mass, pops


def binary_recursion_entropy(q: float, mass_tol=1e-18, max_leaves=200_000):
    """Entropy in bits of the grammar S -> S S (q) | a (1-q), by leaf count.

    Every tree with n leaves has probability q**(n-1) * (1-q)**n and there
    are Catalan(n-1) of them, so the infinite tree sum collapses to a sum
    over n, evaluated in log space until the remaining mass is negligible.
    """
    total = 0.0
    mass = 0.0
    for n in range(1, max_leaves + 1):
        log_count = (
            gammaln(2 * n - 1) - gammaln(n) - gammaln(n + 1)
            if n > 1
            else 0.0
        )
        log_p = (n - 1) * math.log(q) + n * math.log(1.0 - q)
        log_mass = log_count + log_p
        m = math.exp(log_mass)
        mass += m
        total += m * (-log_p / math.log(2.0))
        if n > 10 and m < mass_tol:
            break
    return total, mass


def reference_characteristic_matrix(grammar) -> np.ndarray:
    """M, adding each right-hand-side occurrence's probability in rule
    order."""
    index = grammar.nt_index
    matrix = np.zeros((len(index), len(index)))
    for rule in grammar.rules:
        for sym in rule.rhs:
            if sym in index:
                matrix[index[rule.lhs], index[sym]] += rule.prob
    return matrix


def reference_local_lengths(grammar) -> np.ndarray:
    """Expected terminals of one expansion, adding rule by rule."""
    index = grammar.nt_index
    out = np.zeros(len(index))
    for rule in grammar.rules:
        out[index[rule.lhs]] += rule.prob * sum(sym not in index for sym in rule.rhs)
    return out


def reference_tail(u: float, offset: int, digits: int = 30) -> float:
    """Sum of u**k / (offset + k) over k >= 1, at the float u, in
    `digits`-digit arithmetic: the series itself while u <= 1/2, beyond
    that u * Φ(u, 1, offset + 1), the Lerch transcendent."""
    with mpmath.workdps(digits):
        u = mpmath.mpf(u)
        if u > 0.5:
            return float(u * mpmath.lerchphi(u, 1, offset + 1))
        total, term, k = mpmath.mpf(0), u, 1
        while term > total * mpmath.mpf(10) ** -digits:
            total += term / (offset + k)
            term *= u
            k += 1
        return float(total)


def reference_cwj_entropy(table) -> float:
    """CWJ estimate in bits of a frequency table, table by table, with ψ
    from ``scipy.special.digamma`` and the unseen tail from
    :func:`reference_tail`."""
    counts = np.asarray(table.counts, dtype=np.float64)
    n = table.n
    seen = counts[counts <= n - 1]
    first = float(np.sum((seen / n) * (digamma(n) - digamma(seen))))
    f1 = int(np.count_nonzero(counts == 1))
    f2 = int(np.count_nonzero(counts == 2))
    if f2 > 0:
        a = 2.0 * f2 / ((n - 1) * f1 + 2.0 * f2)
    elif f1 > 0:
        a = 2.0 / ((n - 1) * (f1 - 1) + 2.0)
    else:
        a = 1.0
    nats = first
    if f1 > 0 and a < 1.0:
        nats += (f1 / n) * reference_tail(1.0 - a, n - 1)
    return nats / math.log(2.0)


def random_enumerable_pcfg(
    rng: np.random.Generator,
    max_nonterminals: int = 5,
    radius_max: float = 0.9,
    mass_tol: float = 1e-10,
    pop_budget: int = 400_000,
    tries: int = 2000,
):
    """A random proper PCFG with spectral radius below `radius_max` whose
    tree distribution can be exhaustively enumerated within `pop_budget`.

    Acceptance runs the enumeration itself (a purely mass-based stopping
    rule), so rejection can only ever exclude slow grammars, never steer the
    enumerated value.  Returns ``(grammar, entropy_bits, covered_mass)``
    with the enumeration result of the accepted grammar.
    """
    from treebank_entropy.entropy import characteristic_matrix

    for _ in range(tries):
        n_nts = int(rng.integers(1, max_nonterminals + 1))
        nts = [f"N{i}" for i in range(n_nts)]
        terms = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
        rules = []
        try:
            for nt in nts:
                k = int(rng.integers(1, 4))
                probs = rng.dirichlet(np.full(k, 0.7))
                seen_rhs = set()
                for j in range(k):
                    for _attempt in range(20):
                        length = int(rng.integers(1, 4))
                        rhs = tuple(
                            nts[int(rng.integers(0, n_nts))]
                            if rng.random() < 0.3
                            else terms[int(rng.integers(0, len(terms)))]
                            for _ in range(length)
                        )
                        if rhs not in seen_rhs:
                            seen_rhs.add(rhs)
                            break
                    else:
                        raise ValueError("could not draw distinct rhs")
                    rules.append(Rule(nt, rhs, float(probs[j]), 1))
            grammar = Pcfg("N0", rules)
        except Exception:
            continue
        matrix = characteristic_matrix(grammar)
        radius = float(np.max(np.abs(np.linalg.eigvals(matrix))))
        if radius > radius_max:
            continue
        try:
            entropy, mass, _ = enumerate_entropy(
                grammar, mass_tol=mass_tol, max_pops=pop_budget
            )
        except RuntimeError:
            continue
        return grammar, entropy, mass
    raise RuntimeError("failed to draw a suitable random grammar")


def unreachable_nonterminals(grammar: Pcfg) -> set[str]:
    """Non-terminals not reachable from the root."""
    seen = {grammar.root}
    agenda = [grammar.root]
    while agenda:
        for rule in grammar.rules_for(agenda.pop()):
            for sym in rule.rhs:
                if sym in grammar.nt_index and sym not in seen:
                    seen.add(sym)
                    agenda.append(sym)
    return set(grammar.nonterminals) - seen


_POS_TAGS = ("NN", "VB", "DT", "JJ", "RB", "PRP", "IN", "CC")
_RELS = ("sub", "obj", "mod", "det", "cc", "adv")


def random_projective_graph(rng: np.random.Generator, n: int) -> DepGraph:
    """A random projective dependency graph over `n` tokens.

    Built by recursive interval splitting: a head is chosen inside the
    interval, and the positions on each side are cut into contiguous blocks
    whose heads attach to it.
    """
    heads = [0] * n

    def build(lo: int, hi: int) -> int:
        head = int(rng.integers(lo, hi + 1))
        pos = lo
        while pos <= head - 1:
            end = int(rng.integers(pos, head))
            block_head = build(pos, end)
            heads[block_head - 1] = head
            pos = end + 1
        pos = head + 1
        while pos <= hi:
            end = int(rng.integers(pos, hi + 1))
            block_head = build(pos, end)
            heads[block_head - 1] = head
            pos = end + 1
        return head

    root = build(1, n)
    heads[root - 1] = 0
    tags = [str(rng.choice(_POS_TAGS)) for _ in range(n)]
    tokens = [(tag, tag) for tag in tags]
    labels = [
        None if heads[i] == 0 else str(rng.choice(_RELS)) for i in range(n)
    ]
    return DepGraph(tokens=tokens, heads=heads, labels=labels)


def random_dependency_graph(rng: np.random.Generator, n: int) -> DepGraph:
    """A random dependency tree over `n` tokens, usually not projective:
    tokens join in a random order, each under a random earlier one."""
    order = [int(t) for t in rng.permutation(n) + 1]
    heads = [0] * n
    for i, token in enumerate(order[1:], start=1):
        heads[token - 1] = order[int(rng.integers(0, i))]
    labels = [None if h == 0 else str(rng.choice(_RELS)) for h in heads]
    tags = [str(rng.choice(_POS_TAGS)) for _ in range(n)]
    return DepGraph(tokens=[(t, t) for t in tags], heads=heads, labels=labels)


def dependents(graph: DepGraph) -> list[list[int]]:
    """For each 1-based head position, its dependents in surface order;
    position 0 holds the root."""
    out: list[list[int]] = [[] for _ in range(len(graph.tokens) + 1)]
    for i, h in enumerate(graph.heads, start=1):
        out[h].append(i)
    return out


def reference_crossing_arcs(graph: DepGraph) -> list[tuple[int, int]]:
    """Arcs (head, dependent) with a token inside their surface interval
    that the head does not dominate, checked against each head's
    projection as a set."""
    n = len(graph)
    spans = [set() for _ in range(n + 1)]
    deps = dependents(graph)
    order = []
    stack = list(deps[0])
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(deps[node])
    for node in reversed(order):
        acc = {node}
        for d in deps[node]:
            acc |= spans[d]
        spans[node] = acc
    bad = []
    for dep, head in enumerate(graph.heads, start=1):
        if head == 0:
            continue
        lo, hi = min(head, dep), max(head, dep)
        if not set(range(lo, hi + 1)) <= spans[head]:
            bad.append((head, dep))
    return bad


def reference_validate(graph: DepGraph) -> None:
    """The single-root and treeness checks of a graph, walking from every
    token towards the root.

    A walk stops at a token that an earlier walk has shown to reach the
    root, so every arc is walked once.  A walk that meets a cycle touches
    no such token, so it reports the cycle as a full walk would."""
    n = len(graph.tokens)
    ident = graph.sent_id or "dependency graph"
    if not (len(graph.heads) == len(graph.labels) == n):
        raise StructuralError(f"{ident}: field lengths disagree")
    roots = [i for i, h in enumerate(graph.heads) if h == 0]
    if len(roots) != 1:
        raise StructuralError(
            f"{ident}: expected exactly one root, found {len(roots)}"
        )
    for i, h in enumerate(graph.heads):
        if not 0 <= h <= n:
            raise StructuralError(
                f"{ident}: head index {h} of token {i + 1} out of range"
            )
    # Walk from every token towards the root; a repeat means a cycle.
    rooted = {0}
    for start in range(1, n + 1):
        seen = set()
        node = start
        while node not in rooted:
            if node in seen:
                raise StructuralError(f"{ident}: cycle through token {node}")
            seen.add(node)
            node = graph.heads[node - 1]
        rooted |= seen


def reference_parse_conllu(text: str) -> list[DepGraph]:
    """CoNLL-U text read line by line into graphs, each checked by
    :func:`reference_validate` when its sentence closes.

    The original reader, with one change: a kept row's ID must be its
    1-based position in the sentence.
    """
    graphs = []
    rows: list[tuple[str, str, int, str]] = []
    sent_id = ""
    sent_start_line = None
    n_sent = 0

    def finish():
        nonlocal rows, sent_id, sent_start_line, n_sent
        if not rows:
            sent_id = ""
            sent_start_line = None
            return
        n_sent += 1
        ident = sent_id or f"sentence {n_sent} (line {sent_start_line})"
        graph = DepGraph(
            tokens=[(form, pos) for form, pos, _, _ in rows],
            heads=[head for _, _, head, _ in rows],
            labels=[None if head == 0 else rel for _, _, head, rel in rows],
            sent_id=ident,
        )
        reference_validate(graph)
        graphs.append(graph)
        rows = []
        sent_id = ""
        sent_start_line = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            finish()
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                sent_id = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"expected 10 tab-separated columns, got {len(cols)}",
                line=line_no,
            )
        token_id = cols[0]
        if "-" in token_id or "." in token_id:
            continue  # multiword ranges and empty nodes carry no tree arcs
        try:
            position = int(token_id)
        except ValueError:
            raise ParseError(f"non-integer ID {token_id!r}", line=line_no) from None
        if position != len(rows) + 1:
            raise ParseError(
                f"ID {token_id!r} out of sequence, expected {len(rows) + 1}",
                line=line_no,
            )
        try:
            head = int(cols[6])
        except ValueError:
            raise ParseError(
                f"non-integer HEAD {cols[6]!r}", line=line_no
            ) from None
        if head and not cols[7]:
            raise ParseError("empty DEPREL of a non-root token", line=line_no)
        if sent_start_line is None:
            sent_start_line = line_no
        rows.append((cols[1], cols[3], head, cols[7]))
    finish()
    return graphs


def reference_count_conllu(text: str, config: ConversionConfig):
    """The derivations of the projective graphs of a CoNLL-U text and the
    number of the others, through `reference_parse_conllu`, `dep_to_tree`
    and `derivation`."""
    derivations = []
    skipped = 0
    for graph in reference_parse_conllu(text):
        try:
            derivations.append(derivation(dep_to_tree(graph, config)))
        except NonProjectiveError:
            skipped += 1
    return derivations, skipped


def reference_read(
    text: str,
    drop_labels=DEFAULT_DROP_LABELS,
    strip_tags: bool = False,
    preterminalize: bool = False,
) -> list[Tree]:
    """Parse, then strip, cut and pre-terminalize each tree in its own pass.

    Trees whose frontier ends up empty are skipped, and pre-terminalization
    starts only after the whole text has parsed and been cleaned.
    """
    kept = []
    for tree in reference_parse_bracketed(text):
        if drop_labels:
            tree = reference_strip_subtrees(tree, drop_labels)
            if tree is None:
                continue
        if strip_tags:
            tree = reference_strip_function_tags(tree)
        if not tree.frontier():
            continue
        kept.append(tree)
    if preterminalize:
        kept = [reference_preterminalize(t) for t in kept]
    return kept


def reference_parse_bracketed(text: str) -> list[Tree]:
    """Character-by-character bracketed parser; labels kept verbatim."""
    trees = []
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_atom(i):
        j = i
        while j < n and not text[j].isspace() and text[j] not in "()":
            j += 1
        return text[i:j], j

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            break
        if text[pos] != "(":
            raise ParseError("expected '('", offset=pos + 1)
        # Stack of (label-or-None, children-list, open-paren-offset).
        stack = []
        tree = None
        while tree is None:
            pos = skip_ws(pos)
            if pos >= n:
                raise ParseError("unbalanced", offset=n + 1)
            ch = text[pos]
            if ch == "(":
                stack.append([None, [], pos])
                pos += 1
            elif ch == ")":
                if not stack:
                    raise ParseError("unbalanced", offset=pos + 1)
                label, children, opened = stack.pop()
                if label is None:
                    if len(children) == 1 and not stack:
                        node = children[0]  # unwrap unlabeled top-level group
                    else:
                        raise StructuralError(
                            f"node without a label at offset {opened + 1}"
                        )
                elif not children:
                    raise StructuralError(
                        f"node '{label}' has no children at offset {opened + 1}"
                    )
                else:
                    node = Tree(label, children)
                pos += 1
                if stack:
                    stack[-1][1].append(node)
                else:
                    tree = node
            else:
                atom, pos = read_atom(pos)
                if not stack:
                    raise ParseError("expected '('", offset=pos)
                if stack[-1][0] is None and not stack[-1][1]:
                    stack[-1][0] = atom
                else:
                    stack[-1][1].append(Tree(atom))
        trees.append(tree)
    return trees


def _post_order(tree: Tree) -> list[Tree]:
    post = []
    stack = [tree]
    while stack:
        node = stack.pop()
        post.append(node)
        stack.extend(node.children)
    post.reverse()
    return post


def reference_strip_subtrees(tree: Tree, drop_labels=DEFAULT_DROP_LABELS):
    """Drop pre-terminals labeled in `drop_labels`, then emptied nodes."""
    if tree.is_leaf:
        return tree
    rebuilt: dict[int, Tree | None] = {}
    for node in _post_order(tree):
        if node.is_leaf:
            rebuilt[id(node)] = node
            continue
        if node.label in drop_labels and all(c.is_leaf for c in node.children):
            rebuilt[id(node)] = None
            continue
        kept = [rebuilt[id(c)] for c in node.children]
        kept = [c for c in kept if c is not None]
        rebuilt[id(node)] = Tree(node.label, kept) if kept else None
    return rebuilt[id(tree)]


def reference_strip_function_tags(tree: Tree) -> Tree:
    """Cut `-`/`=` suffixes from internal labels; leaves are untouched."""

    def cut(label: str) -> str:
        base = label
        for sep in ("-", "="):
            idx = base.find(sep)
            if idx > 0:
                base = base[:idx]
        return base if base else label

    rebuilt: dict[int, Tree] = {}
    for node in _post_order(tree):
        if node.is_leaf:
            rebuilt[id(node)] = node
        else:
            rebuilt[id(node)] = Tree(
                cut(node.label), [rebuilt[id(c)] for c in node.children]
            )
    return rebuilt[id(tree)]


def reference_preterminalize(tree: Tree) -> Tree:
    """Turn every pre-terminal into a leaf; mixed nodes raise."""
    if tree.is_leaf:
        return tree
    rebuilt: dict[int, Tree] = {}
    for node in _post_order(tree):
        if node.is_leaf:
            continue
        leaf_children = [c for c in node.children if c.is_leaf]
        if leaf_children and len(leaf_children) != len(node.children):
            raise StructuralError(
                f"node '{node.label}' mixes leaf and internal children"
            )
        if leaf_children:
            rebuilt[id(node)] = Tree(node.label)  # pre-terminal becomes a leaf
        else:
            rebuilt[id(node)] = Tree(
                node.label, [rebuilt[id(c)] for c in node.children]
            )
    return rebuilt[id(tree)]


def reference_sample(grammar: Pcfg, rng: np.random.Generator, max_nodes: int):
    """One leftmost draw with node-budget rejection, as ``(tree, retries)``.

    The tree sampler the package had before it drew derivations: each node
    is a :class:`Tree` whose children are set when it is expanded, with one
    ``rng.random()`` per expansion, picked by ``np.searchsorted`` on the
    cumulative probabilities.
    """
    tables = {}
    for nt in grammar.nonterminals:
        rules = grammar.rules_for(nt)
        cum = np.cumsum([r.prob for r in rules])
        tables[nt] = (cum, [r.rhs for r in rules])

    def try_sample():
        root = Tree(grammar.root)
        agenda = [root]
        nodes = 1
        while agenda:
            node = agenda.pop()
            cum, rhs_list = tables[node.label]
            u = rng.random()
            idx = int(np.searchsorted(cum, u, side="right"))
            if idx >= len(rhs_list):  # guards cum[-1] rounding below 1.0
                idx = len(rhs_list) - 1
            rhs = rhs_list[idx]
            nodes += len(rhs)
            if nodes > max_nodes:
                return None
            node.children = children = tuple(map(Tree, rhs))
            agenda.extend(c for c in reversed(children) if c.label in tables)
        return root

    for retries in range(MAX_SAMPLE_RETRIES):
        tree = try_sample()
        if tree is not None:
            return tree, retries
    raise SamplingDivergenceError("node budget exceeded on every try")


class ReferencePcfg:
    """A grammar as an ordered tuple of :class:`Rule` objects, indexed by
    dictionaries: the representation every computation below walks."""

    def __init__(self, root: str, rules):
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

    def properness_gaps(self) -> dict[str, float]:
        return {
            nt: math.fsum(r.prob for r in rules) - 1.0
            for nt, rules in self._by_lhs.items()
        }

    def validate(self, tol: float = PROPERNESS_TOL) -> None:
        for rule in self.rules:
            if not 0.0 <= rule.prob <= 1.0:
                raise StructuralError(f"rule '{rule}' has probability {rule.prob}")
        for nt, gap in self.properness_gaps().items():
            if abs(gap) > tol:
                raise StructuralError(f"probabilities of '{nt}' sum to 1{gap:+.3e}")


class RuleCounts:
    """The rule counts of a multiset of derivations, as induction counted
    them before the readers interned rule ids: `rules` counts ``(lhs,
    rhs)`` expansions and `roots` root labels, each in first-encounter order
    (a :class:`Counter` keeps insertion order); `leaves` holds every label
    seen on a leaf."""

    __slots__ = ("rules", "roots", "leaves")

    def __init__(self, derivations=()):
        self.rules: Counter[tuple[str, tuple[str, ...]]] = Counter()
        self.roots: Counter[str] = Counter()
        self.leaves: set[str] = set()
        for root, rules, leaves in derivations:
            self.roots[root] += 1
            self.rules.update(rules)
            self.leaves.update(leaves)


def reference_counts_grammar(counts: RuleCounts) -> ReferencePcfg:
    """The maximum-likelihood grammar of a :class:`RuleCounts`, one
    :class:`Rule` per counted expansion."""
    if not counts.roots:
        raise EmptyInputError("cannot induce a grammar from an empty corpus")
    internal_labels = {lhs for lhs, _ in counts.rules}
    clash = internal_labels & counts.leaves
    if clash:
        raise AlphabetClashError(
            "labels used both internally and as leaves: " + ", ".join(sorted(clash)[:10])
        )
    lhs_total: Counter[str] = Counter()
    for (lhs, _), freq in counts.rules.items():
        lhs_total[lhs] += freq
    rules = [
        Rule(lhs, rhs, freq / lhs_total[lhs], freq)
        for (lhs, rhs), freq in counts.rules.items()
    ]
    if len(counts.roots) == 1:
        (root,) = counts.roots
        if root not in internal_labels:
            raise StructuralError("corpus contains no internal nodes")
    else:
        if SYNTHETIC_ROOT in internal_labels or SYNTHETIC_ROOT in counts.leaves:
            raise AlphabetClashError(
                f"reserved root symbol '{SYNTHETIC_ROOT}' occurs in the corpus"
            )
        root = SYNTHETIC_ROOT
        total = sum(counts.roots.values())
        rules.extend(
            Rule(root, (label,), freq / total, freq) for label, freq in counts.roots.items()
        )
    return ReferencePcfg(root, rules)


def reference_dumps(grammar) -> str:
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


def reference_loads(text: str) -> ReferencePcfg:
    """A grammar file read line by line into :class:`Rule` objects."""
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
    grammar = ReferencePcfg(root, rules)
    grammar.validate()
    return grammar


class ReferencePcfgArrays(NamedTuple):
    """The arrays of a grammar as a :class:`~treebank_entropy.grammar.Pcfg`
    holds them."""

    symbols: tuple[str, ...]
    lhs: np.ndarray
    rhs_offsets: np.ndarray
    rhs: np.ndarray
    prob: np.ndarray
    freq: np.ndarray
    order: np.ndarray
    starts: np.ndarray


def reference_pcfg_arrays(root: str, rules) -> ReferencePcfgArrays:
    """The arrays of the grammar of `rules`, interned through dictionaries
    keyed by symbol strings, one rule at a time: the non-terminals in the
    order of their first left-hand side, then the terminals in the order of
    their first right-hand-side use."""
    rules = list(rules)
    ids: dict[str, int] = {}
    for rule in rules:
        ids.setdefault(rule.lhs, len(ids))
    n = len(ids)
    for rule in rules:
        for sym in rule.rhs:
            ids.setdefault(sym, len(ids))
    if ids.get(root, n) >= n:
        raise StructuralError(f"root symbol '{root}' has no rules")
    lhs = np.array([ids[r.lhs] for r in rules], np.intp)
    lengths = [len(r.rhs) for r in rules]
    try:
        freq = np.array([r.freq for r in rules], np.int64)
    except OverflowError:
        freq = np.array([r.freq for r in rules], object)
    order = np.array(sorted(range(len(rules)), key=lambda i: lhs[i]), np.intp)
    return ReferencePcfgArrays(
        tuple(ids), lhs, np.concatenate(([0], np.cumsum(lengths))).astype(np.intp),
        np.array([ids[s] for r in rules for s in r.rhs], np.intp),
        np.array([r.prob for r in rules], np.float64), freq, order,
        np.concatenate(([0], np.cumsum(np.bincount(lhs, minlength=n)))).astype(np.intp))


class ReferenceRuleArrays(NamedTuple):
    """Rule i expands `lhs[i]` with probability `prob[i]` and emits
    `emitted[i]` terminals; its right-hand side's non-terminal occurrences
    are the k with `rule[k]` = i, each of non-terminal `child[k]`.  M has the
    entries `weights`, summed in rule order, at (`rows`, `cols`), row-major."""

    n: int
    lhs: np.ndarray
    prob: np.ndarray
    emitted: np.ndarray
    rule: np.ndarray
    child: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


def reference_rule_arrays(grammar) -> ReferenceRuleArrays:
    """The arrays of a grammar, walking its :class:`Rule` objects."""
    index = grammar.nt_index
    rules = grammar.rules
    n = len(index)
    lengths = np.fromiter((len(r.rhs) for r in rules), np.intp, len(rules))
    symbols = np.fromiter(
        (index.get(s, -1) for r in rules for s in r.rhs), np.intp, int(lengths.sum())
    )
    inner = symbols >= 0
    rule = np.repeat(np.arange(len(rules)), lengths)[inner]
    child = symbols[inner]
    lhs = np.fromiter((index[r.lhs] for r in rules), np.intp, len(rules))
    prob = np.array([r.prob for r in rules], dtype=np.float64)
    emitted = lengths - np.bincount(rule, minlength=len(rules))
    keys, inverse = np.unique(lhs[rule] * n + child, return_inverse=True)
    rows, cols = np.divmod(keys, n)
    weights = np.bincount(inverse, prob[rule], minlength=keys.size)
    return ReferenceRuleArrays(n, lhs, prob, emitted, rule, child, rows, cols, weights)


def reference_matrix(grammar) -> np.ndarray:
    arrays = reference_rule_arrays(grammar)
    matrix = np.zeros((arrays.n, arrays.n))
    matrix[arrays.rows, arrays.cols] = arrays.weights
    return matrix


def reference_lengths(grammar) -> np.ndarray:
    arrays = reference_rule_arrays(grammar)
    return np.bincount(arrays.lhs, arrays.prob * arrays.emitted, minlength=arrays.n)


def reference_local_entropies(grammar) -> np.ndarray:
    """Each non-terminal's entropy, from a fresh array of its rules'
    probabilities."""
    out = np.empty(len(grammar.nonterminals))
    for i, nt in enumerate(grammar.nonterminals):
        probs = np.array([r.prob for r in grammar.rules_for(nt)])
        out[i] = entropy_from_probs(probs)
    return out


def reference_rule_freq_tables(grammar) -> dict[str, FreqTable]:
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


def reference_smoothed_local_entropies(grammar, smoother) -> np.ndarray:
    smoother = SmootherKind(smoother)
    tables = reference_rule_freq_tables(grammar)
    estimator = {SmootherKind.ML: ml_entropy, SmootherKind.CAE: cae_entropy,
                 SmootherKind.CWJ: cwj_entropy}[smoother]
    return np.array([estimator(tables[nt]) for nt in grammar.nonterminals])


def reference_block_labels(n: int, rows: np.ndarray, cols: np.ndarray):
    """The strongly connected blocks of the pattern, and each vertex's
    block and its position within it."""
    blocks = _strong_components(n, rows, cols)
    label = np.empty(n, dtype=np.intp)
    position = np.empty(n, dtype=np.intp)
    for b, block in enumerate(blocks):
        label[block] = b
        position[block] = np.arange(len(block))
    return blocks, label, position


def reference_certify_counts(grammar, counts, arrays=None):
    """N, if the int64 rule counts `counts` are those of N whole trees and
    every strongly connected block of M's pattern over the rules with a
    positive count that has occurrences receives one from outside itself;
    None if they are not the counts of whole trees.  The blocks come from
    Tarjan's search, and each is tested for a feeding edge."""
    if arrays is None:
        arrays = reference_rule_arrays(grammar)
    n = arrays.n
    used = counts[arrays.rule] > 0
    rule, child = arrays.rule[used], arrays.child[used]
    occurrences = np.zeros(n, dtype=np.int64)
    np.add.at(occurrences, arrays.lhs, counts)
    free = occurrences.copy()
    np.subtract.at(free, child, counts[rule])
    root = grammar.nt_index[grammar.root]
    sentences = int(free[root])
    free[root] = 0
    if sentences <= 0 or free.any():
        return None
    rows, cols = np.divmod(np.unique(arrays.lhs[rule] * n + child), n)
    blocks, label, _ = reference_block_labels(n, rows, cols)
    fed = np.zeros(len(blocks), dtype=bool)
    fed[label[root]] = True
    fed[label[cols[label[rows] != label[cols]]]] = True
    fed[label[occurrences == 0]] = True  # nothing to feed
    if not fed.all():
        raise DivergentGrammarError(
            "some strongly connected block(s) of M receive no occurrence from "
            "outside: spectral radius 1, expected subtree measures diverge"
        )
    return sentences


def reference_count_totals(grammar, arrays=None) -> CountTotals | None:
    if arrays is None:
        arrays = reference_rule_arrays(grammar)
    try:
        freq = np.array([r.freq for r in grammar.rules], dtype=np.float64)
    except OverflowError:
        return None
    if not ((freq >= 1).all()
            and freq.sum() + freq[arrays.rule].sum() + freq @ arrays.emitted < 2.0**53):
        return None
    occurrences = np.bincount(arrays.lhs, freq, minlength=arrays.n)
    if not (arrays.prob == freq / occurrences[arrays.lhs]).all():
        return None
    sentences = reference_certify_counts(grammar, freq.astype(np.int64), arrays)
    if sentences is None:
        return None
    return CountTotals(occurrences, sentences, int(freq @ arrays.emitted))


def reference_root_row(grammar, entropies, totals) -> np.ndarray:
    if entropies is None:
        entropies = reference_local_entropies(grammar)
    if totals is None:
        x = solve_system(reference_matrix(grammar),
                         np.column_stack((reference_lengths(grammar), entropies)))
        return x[grammar.nt_index[grammar.root]]
    n = totals.sentences
    columns = np.asarray(entropies, dtype=np.float64).reshape(len(totals.occurrences), -1)
    return np.array([
        totals.terminals / n,
        *(math.fsum(totals.occurrences * h) / n for h in columns.T),
    ])


def reference_site(grammar, smoother) -> float:
    """SITE of a grammar's frequencies: each non-terminal's table smoothed
    on its own, then the root row."""
    entropies = reference_smoothed_local_entropies(grammar, smoother)
    return float(reference_root_row(grammar, entropies, reference_count_totals(grammar))[1])


def reference_entropy_rate(grammar) -> RateReport:
    arrays = reference_rule_arrays(grammar)
    totals = reference_count_totals(grammar, arrays)
    mlu, entropy = map(float, reference_root_row(grammar, None, totals))
    if mlu <= 0.0:
        raise NumericalError(f"expected length {mlu} is not positive")
    positive = arrays.weights > 0
    radius = reference_sparse_radius(arrays.n, arrays.rows[positive],
                                     arrays.cols[positive], arrays.weights[positive])
    return RateReport(entropy, mlu, entropy / mlu, radius)


def reference_sparse_radius(n: int, rows, cols, weights) -> float:
    """The spectral radius as the package took it before it read single
    vertices' blocks off the diagonal: :func:`_perron_upper_bound` on every
    strongly connected block, single vertices included."""
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


def reference_tarjan_radius(n: int, rows, cols, weights) -> float:
    """The spectral radius as the package took it before it found the
    blocks in numpy: Tarjan's search over the whole graph, each single
    vertex's radius its diagonal entry, and :func:`_perron_upper_bound` on
    each larger block, its vertices in Tarjan's order."""
    blocks = _strong_components(n, rows, cols)
    diagonal = np.zeros(n)
    loop = rows == cols
    diagonal[rows[loop]] = weights[loop]
    singles = [block[0] for block in blocks if len(block) == 1]
    radius = float(diagonal[singles].max()) if singles else 0.0
    blocks = [block for block in blocks if len(block) > 1]
    label = np.full(n, -1, dtype=np.intp)
    position = np.empty(n, dtype=np.intp)  # within its block
    for b, block in enumerate(blocks):
        label[block] = b
        position[block] = np.arange(len(block))
    inside = np.flatnonzero((label[rows] == label[cols]) & (label[rows] >= 0))
    inside = inside[np.argsort(label[rows[inside]], kind="stable")]
    rows, cols, weights = rows[inside], cols[inside], weights[inside]
    bounds = np.searchsorted(label[rows], np.arange(len(blocks) + 1))
    for b, block in enumerate(blocks):
        part = slice(bounds[b], bounds[b + 1])
        radius = max(radius, _perron_upper_bound(
            len(block), position[rows[part]], position[cols[part]], weights[part]))
    return radius


def reference_search_certificate(grammar, counts):
    """:func:`~treebank_entropy.entropy.certify_counts` as the package took
    it before its search ran in numpy: sums by ``np.add.at``, and a
    depth-first search from the root in Python over the used edges, sorted
    by left-hand side for each row."""
    n = len(grammar.nonterminals)
    lengths = np.diff(grammar.rhs_offsets)
    rule = np.repeat(np.arange(lengths.size), lengths)
    inner = grammar.rhs < n
    rule, child = rule[inner], grammar.rhs[inner]
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


def reference_sampler_tables(grammar) -> dict:
    """Per non-terminal, the sampler's cumulative probabilities and, per
    rule, the (lhs, rhs) pair, its size and its rhs reversed."""
    tables = {}
    for nt in grammar.nonterminals:
        rules = grammar.rules_for(nt)
        cum = np.cumsum([r.prob for r in rules]).tolist()
        picks = [((nt, r.rhs), len(r.rhs), r.rhs[::-1]) for r in rules]
        tables[nt] = (cum, picks)
    return tables


def reference_tree_probability(grammar, tree):
    """A tree's probability, looking up the :class:`Rule` of each node."""
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
            missing.append(f"{node.label} -> " + " ".join(c.label for c in node.children))
            continue
        log2 += math.log2(rule.prob)
    if missing:
        raise OutOfGrammarError("tree uses unknown rules", rules=missing)
    return TreeProbability(2.0 ** log2, log2)


def cross_entropy(grammar: Pcfg, test: Corpus) -> float:
    """Cross-entropy in bits of `grammar` on the test trees.

    Every occurrence in the test multiset counts once.  A test tree using a
    rule absent from the grammar raises :class:`OutOfGrammarError` listing
    the offending rules.
    """
    if not test.sentences:
        raise EmptyInputError("empty test corpus")
    total = 0.0
    missing: list[str] = []
    for tree in test.sentences:
        try:
            total += tree_probability(grammar, tree).log2
        except OutOfGrammarError as err:
            missing.extend(err.rules)
    if missing:
        raise OutOfGrammarError(
            "test trees use rules absent from the training grammar",
            rules=sorted(set(missing)),
        )
    return -total / len(test.sentences)
