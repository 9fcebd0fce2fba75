"""Reversible conversion between projective dependency graphs and trees.

Each dependency node becomes an internal node labeled with its POS tag (or
word form), expanded into its left dependents, an anchor leaf marked with a
``*`` suffix, and its right dependents, all in surface order.  In the labeled
variant every dependent is wrapped in a relation node ``<headLabel>/<REL>``.
The dependency root hangs from a synthetic ``ROOT`` node.  For projective
input the mapping is information-preserving and :func:`tree_to_dep` inverts
it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import DepGraph
from .errors import NonProjectiveError, StructuralError
from .trees import Corpus, Tree

ROOT_LABEL = "ROOT"
ANCHOR_SUFFIX = "*"
RELATION_SEP = "/"


@dataclass(frozen=True)
class ConversionConfig:
    """`labeled` adds relation nodes; `use_pos` labels nodes by POS tag
    rather than word form."""

    labeled: bool = True
    use_pos: bool = True


def crossing_arcs(graph: DepGraph) -> list[tuple[int, int]]:
    """Arcs (head, dependent) that violate projectivity.

    An arc is reported when some token inside its surface interval is not
    dominated by the arc's head.  That happens only under a head whose
    projection (the tokens it dominates) has a gap, and no projection has
    one exactly when no arcs cross; so one pass over the projections' bounds
    and sizes settles the common, projective case.
    """
    n = len(graph)
    heads = graph.heads
    deps = graph.dependents()
    order = []  # pre-order: every projection is a contiguous run of it
    stack = [graph.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(deps[node])
    lo = list(range(n + 1))  # bounds and size of each token's projection
    hi = lo[:]
    size = [1] * (n + 1)
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
    rank = [0] * (n + 1)
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


def is_projective(graph: DepGraph) -> bool:
    """True iff no two dependency arcs cross in surface order."""
    return not crossing_arcs(graph)


def dep_to_tree(graph: DepGraph, config: ConversionConfig = ConversionConfig()) -> Tree:
    """Convert a projective dependency graph to its derivation tree.

    Raises :class:`NonProjectiveError` (listing the crossing arcs) on
    non-projective input.
    """
    bad = crossing_arcs(graph)
    if bad:
        ident = graph.sent_id or "dependency graph"
        raise NonProjectiveError(f"{ident} is not projective", crossing=bad)

    def node_label(idx: int) -> str:
        form, pos = graph.tokens[idx - 1]
        return pos if config.use_pos else form

    deps = graph.dependents()
    # Post-order construction keeps arbitrarily deep chains off the call stack.
    order = []
    stack = [graph.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(deps[node])
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
    return Tree(ROOT_LABEL, [built[graph.root]])


def _wrap(graph: DepGraph, config: ConversionConfig, head: int, sub: Tree, dep: int) -> Tree:
    if not config.labeled:
        return sub
    form, pos = graph.tokens[head - 1]
    head_label = pos if config.use_pos else form
    rel = graph.labels[dep - 1] or "dep"
    return Tree(head_label + RELATION_SEP + rel, [sub])


def tree_to_dep(tree: Tree) -> DepGraph:
    """Invert :func:`dep_to_tree` for the labeled variant.

    Word forms are not encoded in the tree, so the recovered tokens carry the
    node label in both the form and POS slots.  Raises
    :class:`StructuralError` when the tree is not of conversion shape.
    """
    if tree.is_leaf or tree.label != ROOT_LABEL or len(tree.children) != 1:
        raise StructuralError("expected a ROOT node with exactly one child")

    tokens: list[tuple[str, str]] = []
    heads: list[int] = []
    labels: list[str | None] = []

    def expect_node(node: Tree) -> None:
        if node.is_leaf:
            raise StructuralError(f"unexpected leaf '{node.label}' as a node")
        anchors = [
            c for c in node.children
            if c.is_leaf and c.label == node.label + ANCHOR_SUFFIX
        ]
        if len(anchors) != 1:
            raise StructuralError(
                f"node '{node.label}' must contain exactly one anchor leaf "
                f"'{node.label}{ANCHOR_SUFFIX}'"
            )

    def _relation_child(parent: Tree, rel_node: Tree) -> Tree:
        prefix = parent.label + RELATION_SEP
        if not rel_node.label.startswith(prefix):
            raise StructuralError(
                f"expected relation node '{prefix}<rel>' under "
                f"'{parent.label}', found '{rel_node.label}'"
            )
        if len(rel_node.children) != 1 or rel_node.children[0].is_leaf:
            raise StructuralError(
                f"relation node '{rel_node.label}' must wrap exactly one node"
            )
        return rel_node.children[0]

    top = tree.children[0]
    if top.is_leaf:
        raise StructuralError("ROOT must dominate a dependency node")

    # First pass, in frontier order: each node's anchor leaf fixes its
    # surface position.  Explicit stack, so chain depth is unbounded.
    position: dict[int, int] = {}
    counter = 0
    stack = [top]
    while stack:
        node = stack.pop()
        expect_node(node)
        for child in reversed(node.children):
            if child.is_leaf:
                if child.label != node.label + ANCHOR_SUFFIX:
                    raise StructuralError(
                        f"stray leaf '{child.label}' under node '{node.label}'"
                    )
            else:
                stack.append(_relation_child(node, child))
    # Frontier positions: depth-first left to right, so each relation
    # subtree is exhausted before the anchor that follows it.
    walk: list[tuple[str, Tree]] = [("expand", top)]
    while walk:
        kind, node = walk.pop()
        if kind == "anchor":
            counter += 1
            position[id(node)] = counter
            continue
        for child in reversed(node.children):
            if child.is_leaf:
                walk.append(("anchor", node))
            else:
                walk.append(("expand", child.children[0]))

    n = counter
    tokens = [("", "")] * n
    heads = [0] * n
    labels = [None] * n

    # Second pass: record each node against its head's position.
    emit_stack: list[tuple[Tree, int, str | None]] = [(top, 0, None)]
    while emit_stack:
        node, head_pos, rel = emit_stack.pop()
        pos = position[id(node)]
        tokens[pos - 1] = (node.label, node.label)
        heads[pos - 1] = head_pos
        labels[pos - 1] = rel
        for child in node.children:
            if child.is_leaf:
                continue
            sub = child.children[0]
            rel_label = child.label[len(node.label) + len(RELATION_SEP):]
            emit_stack.append((sub, pos, rel_label))

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
