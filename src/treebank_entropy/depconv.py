"""Dependency treebanks as the rule counts of their converted trees.

Each dependency node becomes an internal node labeled with its POS tag (or
word form), expanded into its left dependents, an anchor leaf marked with a
``*`` suffix, and its right dependents, all in surface order.  In the labeled
variant every dependent is wrapped in a relation node ``<headLabel>/<REL>``.
The dependency root hangs from a synthetic ``ROOT`` node.  For projective
input the mapping is information-preserving.  :func:`counted_conllu` reads
CoNLL-U text straight into the interned rule ids of the converted trees (a
:class:`~.trees.CountedCorpus`), without building graphs or trees: a scan
of the whole file's bytes gives the token columns, and array operations
over all sentences at once convert them.  Text the scan does not cover, and
heads that form no tree, go through the row reader and tree walk of
:func:`~.conllu.parse_conllu`, which raise its errors.

The conversion of graphs to trees and back (:func:`~.conllu.dep_to_tree`,
:func:`~.conllu.tree_to_dep`) lives with the graphs in :mod:`.conllu`,
imported on first use; its public names are still found here (PEP 562).
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

import numpy as np

from .trees import CountedCorpus, RuleTable, _interned

ROOT_LABEL = "ROOT"
ANCHOR_SUFFIX = "*"
RELATION_SEP = "/"


class ConversionConfig(NamedTuple):
    """`labeled` adds relation nodes; `use_pos` labels nodes by POS tag
    rather than word form."""

    labeled: bool = True
    use_pos: bool = True


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
    of :func:`~.conllu.parse_conllu` (:func:`~.conllu._walked`), so
    malformed text raises the same error.
    """
    table = RuleTable() if table is None else table
    columns = _scanned(text, config)
    counts = None if columns is None else _converted(columns, config.labeled, table)
    if counts is None:
        from .conllu import _walked

        counts = _converted(_walked(text, config), config.labeled, table)
    ids, offsets, leaves, leaf_offsets, skipped = counts
    roots = [ROOT_LABEL] * (len(offsets) - 1)
    corpus = CountedCorpus._of(table, roots, ids, offsets, leaves, leaf_offsets, source_id)
    return corpus, skipped


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


#: The names of the conversion of graphs, defined in :mod:`.conllu`.
_CONVERSION = frozenset({"crossing_arcs", "dep_to_tree", "graphs_to_corpus", "is_projective",
                         "tree_to_dep"})


def __getattr__(name):  # PEP 562
    if name in _CONVERSION:
        return getattr(importlib.import_module(".conllu", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
