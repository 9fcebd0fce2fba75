"""CoNLL-U dependency graphs: reading, and conversion to and from trees.

Only the columns needed downstream are kept: ID, FORM, UPOS, HEAD, DEPREL.
Multiword-token ranges (``3-4``) and empty nodes (``5.1``) are skipped, as
are comment lines; every other row's ID must be its 1-based position in the
sentence.  Each sentence is checked to be a single-rooted tree, and every
token but the root must have a DEPREL.  One reader (:func:`_sentences`)
gives the rows of every sentence, and one walk (:func:`_tree_walk`) checks
treeness, for :func:`parse_conllu` here.  :func:`~.depconv.counted_conllu`,
which reads text into rule counts, scans regular text in whole-file numpy
passes and uses this reader and walk only for text the scan does not cover
or that does not form trees (:func:`_walked`), so both raise the same
errors.

The conversion of a projective graph to its tree (:func:`dep_to_tree`, the
tree shape described in :mod:`.depconv`) and back (:func:`tree_to_dep`) is
here too, with the graphs it reads; :mod:`.depconv` finds its public names
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .depconv import ANCHOR_SUFFIX, RELATION_SEP, ROOT_LABEL, ConversionConfig, _Columns
from .errors import NonProjectiveError, ParseError, StructuralError, read_text
from .tree_objects import Corpus, Tree

_ID, _FORM, _LEMMA, _UPOS, _XPOS, _FEATS, _HEAD, _DEPREL, _DEPS, _MISC = range(10)


@dataclass
class DepGraph:
    """Dependency structure of one sentence.

    `tokens` holds ``(form, pos)`` pairs in surface order; `heads` holds the
    1-based index of each token's head, 0 marking the root; `labels` holds
    the relation label of the incoming arc, ``None`` at the root token.
    """

    tokens: list[tuple[str, str]]
    heads: list[int]
    labels: list[str | None]
    sent_id: str = field(default="", compare=False)

    def __len__(self):
        return len(self.tokens)

    def validate(self) -> None:
        """Check the single-root and treeness invariants."""
        self._walk()

    def _walk(self):
        """:func:`_tree_walk` of the heads, once the field lengths agree."""
        ident = self.sent_id or "dependency graph"
        if not (len(self.heads) == len(self.labels) == len(self.tokens)):
            raise StructuralError(f"{ident}: field lengths disagree")
        return _tree_walk(self.heads, ident)


def _tree_walk(heads: list[int], ident: str):
    """Walk the dependency tree that `heads` describes (1-based, 0 at the
    root) once, from its root.

    Returns each position's dependents in surface order (``deps[0]`` holds
    the root) and the tokens in left-to-right pre-order, in which every
    token's projection is a contiguous run.  Raises
    :class:`StructuralError`, naming the sentence `ident`, unless there is
    exactly one root, every head is in 0..n and every token is reached.
    """
    n = len(heads)
    roots = heads.count(0)
    if roots != 1:
        raise StructuralError(f"{ident}: expected exactly one root, found {roots}")
    if min(heads) < 0 or max(heads) > n:
        i = next(i for i, h in enumerate(heads) if not 0 <= h <= n)
        raise StructuralError(
            f"{ident}: head index {heads[i]} of token {i + 1} out of range")
    deps = [[] for _ in range(n + 1)]
    for dep, head in enumerate(heads, start=1):
        deps[head].append(dep)
    order = []
    stack = deps[0][:]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(deps[node][::-1])
    if len(order) != n:
        # A token never reached leads through unreached tokens into a cycle;
        # the first repeat from the first such token names it.
        reached = set(order)
        node = next(t for t in range(1, n + 1) if t not in reached)
        seen = set()
        while node not in seen:
            seen.add(node)
            node = heads[node - 1]
        raise StructuralError(f"{ident}: cycle through token {node}")
    return deps, order


def _sentences(text: str):
    """Yield ``(ident, forms, tags, heads, relations)`` for each sentence of
    CoNLL-U `text` that has a token row, raising :class:`ParseError` at the
    line of the first malformed row.

    `ident` is the sentence's ``sent_id`` comment, or its number and first
    token line.  The rows are not checked to form a tree.
    """
    forms, tags, heads, rels = [], [], [], []
    sent_id = ""
    start = count = 0
    # The blank line after the text closes its last sentence.
    for line_no, line in enumerate([*text.splitlines(), ""], start=1):
        if not line.strip():
            if heads:
                count += 1
                yield (sent_id or f"sentence {count} (line {start})",
                       forms, tags, heads, rels)
                forms, tags, heads, rels = [], [], [], []
            sent_id = ""
        elif line[0] == "#":
            body = line[1:].strip()
            if body.startswith("sent_id"):
                sent_id = body.partition("=")[2].strip()
        else:
            try:
                token_id, form, _, tag, _, _, head, rel, _, _ = line.split("\t")
                if "-" in token_id or "." in token_id:
                    continue  # multiword ranges and empty nodes carry no tree arcs
                good = int(token_id) == len(heads) + 1
                head = int(head)
            except ValueError:
                good = False
            if not (good and (rel or not head)):  # a relation node needs a relation
                raise _row_error(line, line_no, len(heads) + 1)
            if not heads:
                start = line_no
            forms.append(form)
            tags.append(tag)
            heads.append(head)
            rels.append(rel)


def _row_error(line: str, line_no: int, position: int) -> ParseError:
    """The error of the malformed token row `line`, expected to be token
    `position`: the first of its faults, in column order."""
    cols = line.split("\t")
    if len(cols) != 10:
        return ParseError(
            f"expected 10 tab-separated columns, got {len(cols)}", line=line_no)
    try:
        token_id = int(cols[_ID])
    except ValueError:
        return ParseError(f"non-integer ID {cols[_ID]!r}", line=line_no)
    if token_id != position:
        return ParseError(
            f"ID {cols[_ID]!r} out of sequence, expected {position}", line=line_no)
    try:
        int(cols[_HEAD])
    except ValueError:
        return ParseError(f"non-integer HEAD {cols[_HEAD]!r}", line=line_no)
    return ParseError("empty DEPREL of a non-root token", line=line_no)


def parse_conllu(text: str) -> list[DepGraph]:
    """Parse CoNLL-U text into a list of validated :class:`DepGraph`."""
    graphs = []
    for ident, forms, tags, heads, rels in _sentences(text):
        graph = DepGraph(
            tokens=list(zip(forms, tags)),
            heads=heads,
            labels=[None if head == 0 else rel for head, rel in zip(heads, rels)],
            sent_id=ident,
        )
        graph.validate()
        graphs.append(graph)
    return graphs


def read_conllu(path) -> list[DepGraph]:
    """Read and parse a CoNLL-U file."""
    return parse_conllu(read_text(path))


def _walked(text: str, config: ConversionConfig) -> _Columns:
    """The columns of CoNLL-U `text` as the row reader of
    :func:`parse_conllu` gives them, every sentence walked as a tree first,
    so that malformed text raises that reader's error: what
    :func:`~.depconv.counted_conllu` converts when its scan does not cover
    the text."""
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


def _crossing_arcs(heads: list[int], order: list[int]) -> list[tuple[int, int]]:
    """:func:`crossing_arcs` of the tree `heads`, given its pre-order from
    :func:`_tree_walk`."""
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
    graph passes :meth:`DepGraph.validate`.
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
    fails :meth:`DepGraph.validate` and, in the labeled variant,
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
