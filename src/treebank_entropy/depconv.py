"""Reversible conversion between projective dependency graphs and trees.

Each dependency node becomes an internal node labeled with its POS tag (or
word form), expanded into its left dependents, an anchor leaf marked with a
``*`` suffix, and its right dependents, all in surface order.  In the labeled
variant every dependent is wrapped in a relation node ``<headLabel>/<REL>``.
The dependency root hangs from a synthetic ``ROOT`` node.  For projective
input the mapping is information-preserving and :func:`tree_to_dep` inverts
it exactly.  :func:`counted_conllu` reads CoNLL-U text straight into the
interned rule ids of the converted trees (a :class:`~.trees.CountedCorpus`),
without building graphs or trees; it shares its row reader and tree walk
with :func:`~.conllu.parse_conllu`.
"""

from __future__ import annotations

from typing import NamedTuple

from .conllu import DepGraph, _sentences, _tree_walk
from .errors import NonProjectiveError, StructuralError
from .trees import Corpus, CountedCorpus, RuleTable, Tree

ROOT_LABEL = "ROOT"
ANCHOR_SUFFIX = "*"
RELATION_SEP = "/"


class ConversionConfig(NamedTuple):
    """`labeled` adds relation nodes; `use_pos` labels nodes by POS tag
    rather than word form."""

    labeled: bool = True
    use_pos: bool = True


def _crossing_arcs(heads: list[int], order: list[int]) -> list[tuple[int, int]]:
    """:func:`crossing_arcs` of the tree `heads`, given its pre-order from
    :func:`~.conllu._tree_walk`."""
    lo = list(range(len(heads) + 1))  # each projection's bounds and size
    hi = lo[:]
    size = [1] * len(lo)
    for node in reversed(order):
        head = heads[node - 1]
        if head:
            if lo[node] < lo[head]:
                lo[head] = lo[node]
            if hi[node] > hi[head]:
                hi[head] = hi[node]
            size[head] += size[node]
    if all(h - l + 1 == s for l, h, s in zip(lo, hi, size)):
        return []
    rank = [0] * len(lo)
    for i, node in enumerate(order):
        rank[node] = i
    bad = []
    for dep, head in enumerate(heads, start=1):
        if head == 0 or hi[head] - lo[head] + 1 == size[head]:
            continue
        first, end = rank[head], rank[head] + size[head]
        between = range(min(head, dep), max(head, dep) + 1)
        if not all(first <= rank[t] < end for t in between):
            bad.append((head, dep))
    return bad


def crossing_arcs(graph: DepGraph) -> list[tuple[int, int]]:
    """Arcs (head, dependent) that violate projectivity.

    An arc is reported when some token inside its surface interval is not
    dominated by the arc's head.  That happens only under a head whose
    projection has a gap, and no projection has one exactly when no arcs
    cross; so one pass over the projections' bounds and sizes settles the
    common, projective case.  Raises :class:`StructuralError` unless the
    graph passes :meth:`~.conllu.DepGraph.validate`.
    """
    _, order = graph._walk()
    return _crossing_arcs(graph.heads, order)


def is_projective(graph: DepGraph) -> bool:
    """True iff no two dependency arcs cross in surface order."""
    return not crossing_arcs(graph)


def dep_to_tree(graph: DepGraph, config: ConversionConfig = ConversionConfig()) -> Tree:
    """Convert a projective dependency graph to its derivation tree.

    Raises :class:`NonProjectiveError` (listing the crossing arcs) on
    non-projective input, and :class:`StructuralError` for a graph that
    fails :meth:`~.conllu.DepGraph.validate` and, in the labeled variant,
    for a dependent whose relation is empty or None.
    """
    deps, order = graph._walk()
    bad = _crossing_arcs(graph.heads, order)
    if bad:
        ident = graph.sent_id or "dependency graph"
        raise NonProjectiveError(f"{ident} is not projective", crossing=bad)

    def node_label(idx: int) -> str:
        form, pos = graph.tokens[idx - 1]
        return pos if config.use_pos else form

    # Post-order construction keeps arbitrarily deep chains off the call stack.
    built: dict[int, Tree] = {}
    for idx in reversed(order):
        label = node_label(idx)
        children = []
        for d in (d for d in deps[idx] if d < idx):
            children.append(_wrap(graph, config, idx, built[d], d))
        children.append(Tree(label + ANCHOR_SUFFIX))
        for d in (d for d in deps[idx] if d > idx):
            children.append(_wrap(graph, config, idx, built[d], d))
        built[idx] = Tree(label, children)
    return Tree(ROOT_LABEL, [built[order[0]]])


def _wrap(graph: DepGraph, config: ConversionConfig, head: int, sub: Tree, dep: int) -> Tree:
    if not config.labeled:
        return sub
    form, pos = graph.tokens[head - 1]
    head_label = pos if config.use_pos else form
    rel = graph.labels[dep - 1]
    if not rel:
        raise StructuralError(
            f"{graph.sent_id or 'dependency graph'}: token {dep} has no relation")
    return Tree(head_label + RELATION_SEP + rel, [sub])


def tree_to_dep(tree: Tree) -> DepGraph:
    """Invert :func:`dep_to_tree` for the labeled variant.

    Word forms are not encoded in the tree, so the recovered tokens carry the
    node label in both the form and POS slots.  Raises
    :class:`StructuralError` when the tree is not of conversion shape.
    """
    if (tree.is_leaf or tree.label != ROOT_LABEL or len(tree.children) != 1
            or tree.children[0].is_leaf):
        raise StructuralError("expected a ROOT node over exactly one dependency node")
    # One walk in frontier order, on an explicit stack so that chain depth is
    # unbounded: each node's anchor leaf fixes its surface position.
    position: dict[int, int] = {}
    arcs = []  # (node, its head's node or None, the relation)
    stack = [(tree.children[0], None, None)]
    while stack:
        item = stack.pop()
        if isinstance(item, Tree):  # the node whose anchor comes next
            position[id(item)] = len(position) + 1
            continue
        node, head, rel = item
        anchor = node.label + ANCHOR_SUFFIX
        leaves = [c.label for c in node.children if c.is_leaf]
        if leaves.count(anchor) != 1:
            raise StructuralError(
                f"node '{node.label}' must contain exactly one anchor leaf '{anchor}'")
        if len(leaves) > 1:
            stray = next(label for label in leaves if label != anchor)
            raise StructuralError(f"stray leaf '{stray}' under node '{node.label}'")
        arcs.append((node, head, rel))
        prefix = node.label + RELATION_SEP
        for child in reversed(node.children):
            if child.is_leaf:
                stack.append(node)
            elif not child.label.startswith(prefix):
                raise StructuralError(
                    f"expected relation node '{prefix}<rel>' under "
                    f"'{node.label}', found '{child.label}'"
                )
            elif len(child.children) != 1 or child.children[0].is_leaf:
                raise StructuralError(
                    f"relation node '{child.label}' must wrap exactly one node")
            else:
                stack.append((child.children[0], node, child.label[len(prefix):]))
    tokens, heads, labels = [None] * len(arcs), [0] * len(arcs), [None] * len(arcs)
    for node, head, rel in arcs:
        i = position[id(node)] - 1
        tokens[i] = (node.label, node.label)
        heads[i] = 0 if head is None else position[id(head)]
        labels[i] = rel
    graph = DepGraph(tokens=tokens, heads=heads, labels=labels)
    graph.validate()
    return graph


def graphs_to_corpus(
    graphs,
    config: ConversionConfig = ConversionConfig(),
    source_id: str = "",
):
    """Convert a batch of graphs, rejecting non-projective ones.

    Returns ``(corpus, skipped)`` where `skipped` lists ``(index, error)``
    pairs for the rejected sentences.
    """
    trees = []
    skipped = []
    for idx, graph in enumerate(graphs):
        try:
            trees.append(dep_to_tree(graph, config))
        except NonProjectiveError as err:
            skipped.append((idx, err))
    return Corpus(trees, source_id=source_id), skipped


def counted_conllu(
    text: str,
    config: ConversionConfig = ConversionConfig(),
    table: RuleTable | None = None,
    source_id: str = "",
) -> tuple[CountedCorpus, int]:
    """The converted trees ``dep_to_tree(g, config)`` of the projective
    graphs g that ``parse_conllu(text)`` returns, read in one pass without
    building either, as a :class:`~.trees.CountedCorpus` over `table` (a
    new one if None); returns ``(corpus, skipped)``, the second the number
    of non-projective sentences left out.

    The sentences come from the reader that :func:`~.conllu.parse_conllu`
    uses, so malformed text raises the same error.  Each sentence's heads
    are walked once from the root (:func:`~.conllu._tree_walk`); the walk
    checks that they form a tree and gives the rules in pre-order, each
    interned as it is made, and projectivity is tested as
    :func:`crossing_arcs` does.
    """
    table = RuleTable() if table is None else table
    ids, offsets, leaves, leaf_offsets = [], [0], [], [0]
    skipped = 0
    for ident, forms, tags, heads, rels in _sentences(text):
        _, order = _tree_walk(heads, ident)
        if _crossing_arcs(heads, order):
            skipped += 1
            continue
        labels = tags if config.use_pos else forms
        anchors = [label + ANCHOR_SUFFIX for label in labels]
        ids.extend(table.intern(
            _rules(labels, anchors, heads, rels, order, config.labeled)))
        offsets.append(len(ids))
        leaves.extend(anchors)
        leaf_offsets.append(len(leaves))
    roots = [ROOT_LABEL] * (len(offsets) - 1)
    corpus = CountedCorpus._of(table, roots, ids, offsets, leaves, leaf_offsets, source_id)
    return corpus, skipped


def _rules(labels, anchors, heads, rels, order, labeled: bool) -> list:
    """The rules, in pre-order, of the converted tree of a projective graph,
    given its tokens' labels, anchors, heads and relations and its
    pre-order."""
    if labeled:  # the relation node that stands for each token under its head
        shown = [labels[h - 1] + RELATION_SEP + rel for h, rel in zip(heads, rels)]
    else:
        shown = labels
    # Each node's children in surface order: its dependents and its anchor.
    rhs = [[] for _ in range(len(heads) + 1)]
    for i, head in enumerate(heads):
        rhs[i + 1].append(anchors[i])
        rhs[head].append(shown[i])
    rules = [(ROOT_LABEL, (labels[order[0] - 1],))]
    for node in order:
        label = labels[node - 1]
        if labeled and heads[node - 1]:
            rules.append((shown[node - 1], (label,)))
        rules.append((label, tuple(rhs[node])))
    return rules
