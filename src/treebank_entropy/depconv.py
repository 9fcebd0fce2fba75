"""Reversible conversion between projective dependency graphs and trees.

Each dependency node becomes an internal node labeled with its POS tag (or
word form), expanded into its left dependents, an anchor leaf marked with a
``*`` suffix, and its right dependents, all in surface order.  In the labeled
variant every dependent is wrapped in a relation node ``<headLabel>/<REL>``.
The dependency root hangs from a synthetic ``ROOT`` node.  For projective
input the mapping is information-preserving and :func:`tree_to_dep` inverts
it exactly.  :func:`counted_conllu` reads CoNLL-U text straight into the
interned rule ids of the converted trees (a :class:`~.trees.CountedCorpus`),
without building graphs or trees: a scan of the whole file's bytes gives the
token columns, and array operations over all sentences at once convert
them.  Text the scan does not cover, and heads that form no tree, go
through the row reader and tree walk of :func:`~.conllu.parse_conllu`,
which raise its errors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NonProjectiveError, StructuralError
from .trees import Corpus, CountedCorpus, RuleTable, Tree, _interned

# The row reader of .conllu, and dataclasses with it, is imported by the
# functions that use it: regular text never reaches it.
if TYPE_CHECKING:
    from .conllu import DepGraph

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
    from .conllu import DepGraph

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


class _Columns(NamedTuple):
    """The token rows of a CoNLL-U text, sentence after sentence, sentence
    k's being rows ``offsets[k]:offsets[k + 1]``: each token's head
    (1-based within its sentence, 0 at the root) and the ids of its label
    (tag or form) and relation into `label_names` and `relation_names`
    (which the scan leaves None for an unlabeled conversion)."""

    heads: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    label_names: list[str]
    relations: np.ndarray
    relation_names: list[str]


def counted_conllu(
    text: str,
    config: ConversionConfig = ConversionConfig(),
    table: RuleTable | None = None,
    source_id: str = "",
) -> tuple[CountedCorpus, int]:
    """The converted trees ``dep_to_tree(g, config)`` of the projective
    graphs g that ``parse_conllu(text)`` returns, read without building
    either, as a :class:`~.trees.CountedCorpus` over `table` (a new one if
    None); returns ``(corpus, skipped)``, the second the number of
    non-projective sentences left out.

    The text is read into columns in whole-file passes over its bytes
    (:func:`_scanned`) and converted by array operations
    (:func:`_converted`).  Text that the scan does not cover, or whose
    heads do not form trees, is read again by the row reader and tree walk
    of :func:`~.conllu.parse_conllu` (:func:`_walked`), so malformed text
    raises the same error.
    """
    table = RuleTable() if table is None else table
    columns = _scanned(text, config)
    counts = None if columns is None else _converted(columns, config.labeled, table)
    if counts is None:
        counts = _converted(_walked(text, config), config.labeled, table)
    ids, offsets, leaves, leaf_offsets, skipped = counts
    roots = [ROOT_LABEL] * (len(offsets) - 1)
    corpus = CountedCorpus._of(table, roots, ids, offsets, leaves, leaf_offsets, source_id)
    return corpus, skipped


def _walked(text: str, config: ConversionConfig) -> _Columns:
    """The columns of CoNLL-U `text` as the row reader of
    :func:`~.conllu.parse_conllu` gives them, every sentence walked as a
    tree first, so that malformed text raises that reader's error."""
    from .conllu import _sentences, _tree_walk

    heads, offsets, labels, relations, label_ids, relation_ids = [], [0], [], [], {}, {}
    for ident, forms, tags, sentence_heads, rels in _sentences(text):
        _tree_walk(sentence_heads, ident)
        heads += sentence_heads
        offsets.append(len(heads))
        labels += [label_ids.setdefault(x, len(label_ids))
                   for x in (tags if config.use_pos else forms)]
        relations += [relation_ids.setdefault(x, len(relation_ids)) for x in rels]
    return _Columns(np.array(heads, np.int64), np.array(offsets), np.array(labels, np.int64),
                    list(label_ids), np.array(relations, np.int64), list(relation_ids))


#: The characters other than "\n" that end a line for ``str.splitlines``,
#: and NUL, which pads the fields that :func:`_interned` compares.
_IRREGULAR = "\x00\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_TAB, _NEWLINE, _HASH, _DASH, _DOT, _ZERO = b"\t\n#-.0"


def _scanned(text: str, config: ConversionConfig) -> _Columns | None:
    """The columns of CoNLL-U `text`, read in whole-file passes over its
    UTF-8 bytes, or None unless every line is empty, a ``#`` comment or a
    row of ten tab-separated fields, and every row either has a ``-`` or
    ``.`` in its ID (a multiword range or empty node, which is dropped) or
    has an ID and a HEAD of 1 to 9 ASCII digits, the ID its position in the
    sentence, and a DEPREL unless the HEAD is 0.  Whether the heads form
    trees is left to :func:`_converted`.  Offsets into the text are int32,
    and the largest scan arrays are freed before the fields are interned.
    """
    if any(c in text for c in _IRREGULAR):
        return None
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    if len(data) >= 2**31:
        return None
    buf = np.frombuffer(data, np.uint8)
    line_ends = np.flatnonzero(buf == _NEWLINE).astype(np.int32)
    line_starts = np.empty(len(line_ends) + 1, np.int32)
    line_starts[0], line_starts[1:] = 0, line_ends + 1
    line_ends = np.append(line_ends, np.int32(len(buf)))
    blank = line_starts == line_ends
    filled = np.flatnonzero(~blank)
    rows = filled[buf[line_starts[filled]] != _HASH]
    tabs = np.flatnonzero(buf == _TAB).astype(np.int32)
    first = np.searchsorted(tabs, line_starts[rows])  # each row's first tab
    if (np.searchsorted(tabs, line_ends[rows]) - first != 9).any():
        return None
    ids, dropped = _numbers(buf, line_starts[rows], tabs[first])
    rows, first, ids = rows[~dropped], first[~dropped], ids[~dropped]
    heads, _ = _numbers(buf, tabs[first + 5] + 1, tabs[first + 6])
    rel_starts, rel_ends = tabs[first + 6] + 1, tabs[first + 7]
    if (ids < 0).any() or (heads < 0).any() or ((rel_starts == rel_ends) & (heads != 0)).any():
        return None
    # A sentence is a run of rows that no empty line breaks.
    sentence = np.cumsum(blank)[rows]
    offsets = np.append(np.flatnonzero(np.diff(sentence, prepend=-1)), len(rows))
    sizes = np.diff(offsets)
    if (ids != np.arange(len(rows)) - np.repeat(offsets[:-1] - 1, sizes)).any():
        return None
    label = 2 if config.use_pos else 0  # the tab before UPOS or FORM
    label_starts, label_ends = tabs[first + label] + 1, tabs[first + label + 1]
    del buf, tabs, first, rows  # the largest scan arrays go before the fields are interned
    labels, label_names = _interned(data, label_starts, label_ends)
    relations, relation_names = (_interned(data, rel_starts, rel_ends) if config.labeled
                                 else (None, None))
    return _Columns(heads, offsets, labels, label_names, relations, relation_names)


def _numbers(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The fields ``buf[starts:ends]`` read as decimal numbers, -1 where a
    field is not 1 to 9 ASCII digits; and the fields with a ``-`` or ``.``
    among their first nine bytes."""
    widths = ends - starts
    digits = (widths >= 1) & (widths <= 9)
    values = np.zeros(len(starts), np.int32)
    marked = np.zeros(len(starts), bool)
    for k in range(min(9, int(widths.max(initial=0)))):
        live = k < widths
        byte = buf[np.where(live, starts + k, starts)]
        digit = byte.astype(np.int32) - _ZERO
        digits &= ~live | ((digit >= 0) & (digit <= 9))
        marked |= live & ((byte == _DASH) | (byte == _DOT))
        values = np.where(live, values * 10 + digit, values)
    return np.where(digits, values, -1), marked


def _converted(columns: _Columns, labeled: bool, table: RuleTable):
    """The counts of the converted trees of the projective sentences of
    `columns` as a :class:`~.trees.CountedCorpus` holds them, ``(ids,
    offsets, leaves, leaf_offsets)``, and the number of the other
    sentences; or None unless every sentence's heads form a tree.

    Each step is a few array operations over all sentences at once, and
    only the distinct rules are looked up in `table`.  Token indices are
    int32, and each step's temporaries are freed when it returns.
    """
    heads, offsets, labels, label_names, relations, relation_names = columns
    sizes = np.diff(offsets)
    sentence = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    tree = _tree(heads, offsets, sizes, sentence)
    if tree is None:
        return None
    parent, depth, rounds = tree
    root = heads == 0
    child, dependent, begins, counts = _children(parent, root)
    kept, nodes = _projective(child, dependent, begins, counts, depth, sentence,
                              len(sizes), rounds)

    # Symbols: label nodes, anchors, relation nodes, ROOT.
    k = len(label_names)
    names = label_names + [label + ANCHOR_SUFFIX for label in label_names]
    if labeled:  # the relation node that stands for a dependent under its head
        pairs, shown = np.unique(labels[parent].astype(np.int64) * len(relation_names)
                                 + relations, return_inverse=True)
        shown += len(names)
        head_labels, rels = divmod(pairs, len(relation_names))
        names += [label_names[a] + RELATION_SEP + relation_names[b]
                  for a, b in zip(head_labels.tolist(), rels.tolist())]
    else:
        shown = labels
    names.append(ROOT_LABEL)
    # Each node's children, then each token's label node.
    symbols = np.concatenate([np.where(dependent, shown[child], k + labels[child]), labels])
    del child, dependent

    # The rules in pre-order, each a left-hand side and a run of `symbols`:
    # a node's lead rule (ROOT or its relation node over its label node),
    # where it has one, then its own rule.
    lhs = np.stack([np.where(root, len(names) - 1, shown)[nodes], labels[nodes]], 1).ravel()
    starts = np.stack([len(symbols) - len(labels) + nodes, begins[nodes]], 1).ravel()
    lengths = np.stack([np.ones_like(nodes), counts[nodes]], 1).ravel()
    if not labeled:  # only the root has a lead rule
        present = np.stack([root[nodes], np.ones(len(nodes), bool)], 1).ravel()
        lhs, starts, lengths = lhs[present], starts[present], lengths[present]
    named = np.array(names, dtype=object)
    interned = table.symbol_ids(names)
    ids = table.rule_ids(interned[lhs], interned[symbols], starts, lengths)
    per_sentence = sizes[kept] + (sizes[kept] if labeled else 1)
    leaves = named[k + labels[kept[sentence]]].tolist()
    return (ids, np.concatenate(([0], np.cumsum(per_sentence))), leaves,
            np.concatenate(([0], np.cumsum(sizes[kept]))), int(len(sizes) - kept.sum()))


def _tree(heads, offsets, sizes, sentence):
    """Each token's parent (itself at a root) and depth, and a number of
    pointer-jumping rounds that outreaches every path; or None unless each
    sentence has one root, every head is in range and every token reaches
    the root.

    In round r, `up` climbs 2**r arcs and `depth` adds the arcs it climbs.
    """
    root = heads == 0
    if ((heads > sizes[sentence]).any()
            or (np.bincount(sentence[root], minlength=len(sizes)) != 1).any()):
        return None
    parent = np.where(root, np.arange(len(heads), dtype=np.int32),
                      offsets[sentence] + heads - 1).astype(np.int32)
    rounds = int(sizes.max(initial=0)).bit_length()
    up, depth = parent, (~root).astype(np.int32)
    for _ in range(rounds):
        depth = depth + depth[up]
        up = up[up]
    if not root[up].all():  # a token on or under a cycle
        return None
    return parent, depth, rounds


def _children(parent: np.ndarray, root: np.ndarray):
    """Every node's children in surface order, node j's being ``child[
    begins[j]:begins[j] + counts[j]]``: its dependents and itself, for its
    anchor (`dependent` False).

    One stable sort on (head, position) orders them: token t's anchor is
    slot 2t and its place under its head slot 2t + 1; the roots' second
    slots sort last and are cut.
    """
    n = len(parent)
    owner = np.stack([np.arange(n, dtype=np.int32), np.where(root, n, parent)], 1).ravel()
    slots = np.argsort(owner, kind="stable")[:2 * n - np.count_nonzero(root)].astype(np.int32)
    counts = (np.bincount(parent[~root], minlength=n) + 1).astype(np.int32)
    begins = (np.cumsum(counts) - counts).astype(np.int32)
    return slots >> 1, (slots & 1).astype(bool), begins, counts


def _projective(child, dependent, begins, counts, depth, sentence, sentences, rounds):
    """Which sentences are projective, and their tokens in pre-order.

    A projection's bounds come from following each node's first (last)
    child by pointer jumping.  A sentence is projective exactly when the
    projections of every node's children tile its own, one after another;
    then node j is preceded in pre-order by the nodes whose projections
    start before lo[j], and by those above it on the chain of nodes whose
    projections start at lo[j], which ends at token lo[j].
    """
    ends = begins + counts
    lo, hi = child[begins], child[ends - 1]
    for _ in range(rounds):
        lo, hi = lo[lo], hi[hi]
    start = np.where(dependent, lo[child], child)
    end = np.where(dependent, hi[child], child)
    torn = end[:-1] + 1 != start[1:]
    torn[ends[:-1] - 1] = False  # a node's last child and the next node's first
    kept = np.ones(sentences, bool)
    kept[sentence[child[:-1][torn]]] = False
    nodes = np.flatnonzero(kept[sentence]).astype(np.int32)
    bottom = lo[nodes]
    above = np.cumsum(np.bincount(bottom, minlength=len(lo)))[bottom] - 1 - depth[bottom]
    nodes[above + depth[nodes]] = nodes.copy()
    return kept, nodes
