"""Ordered labeled trees, bracketed-treebank reading, and corpus statistics.

Trees are the common currency of the package: internal nodes carry
non-terminal labels, leaves carry terminal labels, and the left-to-right
sequence of leaves (the frontier) is the surface string.  All traversals are
iterative; parsed trees can be arbitrarily deep.

Every measure the package computes is a function of rule counts, so a
corpus is counted into a :class:`CountedCorpus`: each rule key ``(lhs,
rhs)`` is interned once in a :class:`RuleTable` as it is read, and every
sentence becomes its rule ids in pre-order, its root label and its
frontier.  :func:`counted_bracketed` counts regular bracketed text in a
columnar scan, whole-file array passes over its bytes that build no tree.
:func:`parse_bracketed` builds the trees, in one token loop that cleans
each node as it closes; it also reads the text that the scan leaves, and
so gives every error.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import EmptyInputError, ParseError, StructuralError, read_text

#: Pre-terminal labels whose subtrees are dropped on reading (trace/empty
#: elements carry no surface tokens and would corrupt MLU).
DEFAULT_DROP_LABELS = frozenset({"-NONE-"})


class Tree:
    """Ordered rooted tree; a node with no children is a leaf."""

    __slots__ = ("label", "children")

    def __init__(self, label: str, children=()):
        self.label = label
        self.children = tuple(children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        # Iterative comparison; recursion would overflow on deep trees.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return hash((self.label, len(self.children)))

    def __repr__(self):
        return f"Tree({write_bracketed(self)!r})"

    def iter_nodes(self):
        """Yield every node in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def frontier(self) -> list[str]:
        """Leaf labels from left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.label)
            else:
                stack.extend(reversed(node.children))
        return out

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())


class Derivation(NamedTuple):
    """What rule counting reads of one tree.

    `rules` holds the ``(lhs, rhs)`` expansion of every internal node in
    pre-order (the leftmost derivation), and `leaves` the frontier.
    """

    root: str
    rules: list[tuple[str, tuple[str, ...]]]
    leaves: list[str]

    @property
    def terminals(self) -> int:
        return len(self.leaves)

    def node_count(self) -> int:
        """Nodes of the tree: one per expansion plus one per leaf."""
        return len(self.rules) + len(self.leaves)


def derivation(tree: Tree) -> Derivation:
    """The derivation of a tree, walking it once."""
    rules = []
    leaves = []
    stack = [tree]
    while stack:  # pre-order, left to right
        node = stack.pop()
        children = node.children
        if children:
            rules.append((node.label, tuple([c.label for c in children])))
            stack.extend(children[::-1])
        else:
            leaves.append(node.label)
    return Derivation(tree.label, rules, leaves)


class RuleTable:
    """Rule keys ``(lhs, rhs)``, each interned once: `ids` maps each key to
    its id, the number of keys interned before it.  The corpora of one
    command share one table, so their ids agree."""

    __slots__ = ("ids",)

    def __init__(self):
        self.ids: dict[tuple[str, tuple[str, ...]], int] = {}

    def __len__(self):
        return len(self.ids)

    def intern(self, keys: list[tuple[str, tuple[str, ...]]]) -> list[int]:
        """The ids of `keys`, the new ones interned in order."""
        ids = self.ids
        setdefault = ids.setdefault
        return [setdefault(key, len(ids)) for key in keys]

    def keys(self) -> list[tuple[str, tuple[str, ...]]]:
        """Every key, indexed by its id."""
        return list(self.ids)


#: A character that would split or end a label when the text is read back.
_UNSERIALIZABLE = re.compile(r"[\s()]")


def parse_bracketed(
    text: str,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
) -> list[Tree]:
    """Parse one or more parenthesized trees from `text`.

    Node labels are kept verbatim unless one of the keywords asks otherwise.
    Each internal node is cleaned as it closes, so every kept tree is built
    once: a pre-terminal labeled in `drop_labels` is dropped, and so is a
    node none of whose children were kept; with `strip_tags` function-tag
    suffixes are cut, after the drop test; with `preterminalize` a
    pre-terminal becomes a leaf labeled with its tag.  Trees left empty are
    omitted.  A top-level group that wraps exactly one subtree without a
    label of its own (the common treebank file convention ``( (S ...) )``)
    is unwrapped.  Raises :class:`ParseError` on unbalanced parentheses
    (reporting the 1-based character offset in `text`, not a byte offset)
    and :class:`StructuralError` on empty nodes; with `preterminalize`, a
    node mixing word and phrase children raises :class:`StructuralError`
    once the whole text has parsed.  This is the tree builder, and the
    error path of :func:`counted_bracketed`.
    """
    return _read(text, drop_labels, strip_tags, preterminalize)


def counted_bracketed(
    text: str,
    table: RuleTable | None = None,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
    source_id: str = "",
) -> CountedCorpus:
    """The trees ``parse_bracketed(text, ...)`` returns, as a
    :class:`CountedCorpus` over `table` (a new one if None).

    Regular text is counted by a columnar scan of its bytes
    (:func:`_scanned`), which builds no tree.  Other text is read by the
    tree builder of :func:`parse_bracketed` and its trees are counted, so
    text that does not parse raises the same error at the same offset.
    """
    table = RuleTable() if table is None else table
    counts = _scanned(text, drop_labels, strip_tags, preterminalize, table)
    if counts is None:
        return counted(Corpus(_read(text, drop_labels, strip_tags, preterminalize),
                              source_id), table)
    return CountedCorpus._of(table, *counts, source_id=source_id)


def _read(text, drop_labels, strip_tags, preterminalize):
    """Read bracketed `text` into its kept trees.

    The tokens are those of ``str.split`` once every parenthesis is spaced
    out.  Each node applies the close rule of :func:`parse_bracketed` as it
    closes; a pre-terminal, the most common node, is closed without being
    pushed.  Offsets are found only when raising, by counting parentheses
    in `text` again.
    """
    out = []  # the kept trees
    # Open nodes: [label or None, kept children, words, phrases, ordinal],
    # where words and phrases count the node's children as written and
    # ordinal counts the '(' before the node's own.
    stack = []
    opened = 0  # the '(' read so far
    label_next = False  # the token after a '(' is its node's label
    mixed = None
    # A '(' under an open node waits off the stack: `pending` is its
    # ordinal, and `tag` and `word` are the tokens read after it.  Read as
    # "( tag word )" it closes as a pre-terminal, by the close rule below,
    # without entering the stack; any other token first pushes it as read
    # so far.
    pending = tag = word = None
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if pending is not None:
            if token == "(" or token == ")":
                if token == ")" and word is not None:
                    if tag in drop_labels:
                        node = None
                    else:
                        if strip_tags:
                            tag = _cut_function_tags(tag)
                        node = Tree(tag) if preterminalize else Tree(tag, (Tree(word),))
                    parent = stack[-1]
                    parent[3] += 1
                    if node is not None:
                        parent[1].append(node)
                    pending = tag = word = None
                    continue
            elif tag is None:
                tag = token
                continue
            elif word is None:
                word = token
                continue
            kept = [] if word is None else [Tree(word)]
            stack.append([tag, kept, len(kept), 0, pending])
            pending = tag = word = None
            label_next = False
        if token == "(":
            if stack:  # it waits for its tag and word
                pending = opened
                label_next = False
            else:
                stack.append([None, [], 0, 0, opened])
                label_next = True
            opened += 1
        elif not stack:
            # The stray token is the first one after the last top-level ')'.
            pos = _after(text, ")", opened)
            while text[pos].isspace():
                pos += 1
            raise ParseError("expected '('", offset=pos + 1)
        elif token == ")":
            label_next = False
            label, kept, words, phrases, ordinal = stack.pop()
            if label is None:
                if stack or words + phrases != 1:
                    offset = _after(text, "(", ordinal + 1)
                    raise StructuralError(f"node without a label at offset {offset}")
                node = kept[0] if kept else None  # unwrap unlabeled top-level group
            elif not words + phrases:
                offset = _after(text, "(", ordinal + 1)
                raise StructuralError(f"node '{label}' has no children at offset {offset}")
            elif not kept or (not phrases and label in drop_labels):
                node = None
            else:
                if strip_tags:
                    label = _cut_function_tags(label)
                if not (preterminalize and words):
                    node = Tree(label, kept)
                elif words == len(kept):  # the pre-terminal becomes a leaf
                    node = Tree(label)
                else:
                    # Raised once the text has parsed: a syntax error
                    # anywhere in the text takes precedence over it.
                    mixed = mixed or StructuralError(
                        f"node '{label}' mixes leaf and internal children"
                    )
                    node = None
            if stack:
                parent = stack[-1]
                parent[3] += 1
                if node is not None:
                    parent[1].append(node)
            elif node is not None:
                out.append(node)
        elif label_next:
            stack[-1][0] = token
            label_next = False
        else:
            top = stack[-1]
            top[2] += 1
            top[1].append(Tree(token))
    if stack:
        raise ParseError("unbalanced", offset=len(text) + 1)
    if mixed is not None:
        raise mixed
    return out


#: The characters other than ASCII whitespace that ``str.split`` splits
#: on, and NUL, which pads the fields that :func:`_interned` compares.
_IRREGULAR = ("\x00\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
              "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
#: Each byte's token class: ASCII whitespace, part of an atom (a label or
#: a word), '(' or ')'.
_SPACE, _ATOM, _OPEN, _CLOSE = range(4)
_KINDS = bytes(_SPACE if b in b" \t\n\v\f\r" else _OPEN if b == ord("(")
               else _CLOSE if b == ord(")") else _ATOM for b in range(256))


def _scanned(text, drop_labels, strip_tags, preterminalize, table):
    """The counts of the trees ``parse_bracketed(text, ...)`` returns, as
    a :class:`CountedCorpus` holds them, ``(roots, ids, offsets, leaves,
    leaf_offsets)``, read in whole-file passes over the UTF-8 bytes of
    `text`; or None, with `table` untouched, unless the text is regular.

    Regular text splits into tokens at ASCII whitespace alone, and each of
    its nodes is a pre-terminal ``(tag word)``, a phrase ``(label node
    ...)`` or an unlabeled top-level group over one node.  One stable sort
    of the parentheses on the depth before each lists the nodes level by
    level and each node's children together, in order.  A node is kept
    when its span holds a kept pre-terminal; labels are tested and cut once
    per distinct label, and only the distinct rules become keys
    (:func:`_rule_ids`).
    """
    if any(c in text for c in _IRREGULAR):
        return None
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    kind = np.frombuffer(b" " + data.translate(_KINDS) + b" ", np.int8)
    atom = kind == _ATOM
    edges = (atom[1:] != atom[:-1]).nonzero()[0]
    atom_starts, atom_ends = edges[0::2], edges[1::2]
    # A token starts at each parenthesis and at the first byte of an atom.
    tokens = kind[1:-1][(kind[1:-1] > atom[:-2]).nonzero()[0]]
    if not len(tokens):
        return [], [], [0], [], [0]

    # The shape: balanced parentheses, each '(' followed by a label or, at
    # the top, by a '(', and each atom a label or a pre-terminal's word.
    parens = (tokens != _ATOM).nonzero()[0]
    is_open = tokens[parens] == _OPEN
    step = is_open * 2 - 1
    depth = step.cumsum()
    if not len(depth) or depth.min() < 0 or depth[-1]:
        return None
    depth -= step  # before each parenthesis
    open_at = is_open.nonzero()[0]
    opens = parens[open_at]  # node j's '(' is token opens[j]
    level = depth[open_at]
    # opens + 2 passes the end only for a '(' just before the last ')': refused.
    first, second = tokens[opens + 1], tokens.take(opens + 2, mode="clip")
    wrapper, labeled = first == _OPEN, first == _ATOM
    pre = labeled & (second == _ATOM)
    if ((wrapper & (level > 0)).any() or not (wrapper | labeled).all()
            or (labeled & ~pre & (second != _OPEN)).any()
            or (tokens[opens[pre] + 3] != _CLOSE).any()
            or len(atom_starts) != np.count_nonzero(labeled) + np.count_nonzero(pre)):
        return None

    # Sorted on the depth before them, the parentheses give the '(' of the
    # nodes at depth 0, then for each depth d > 0 and each node at depth
    # d - 1 in turn, the '(' of its children and its own ')'.
    order = depth.astype(np.min_scalar_type(depth.max())).argsort(kind="stable")
    opened = is_open.cumsum()[order]
    sorted_open = is_open[order]
    by_level = opened[sorted_open.nonzero()[0]] - 1  # the nodes
    closes = (~sorted_open).nonzero()[0]  # by_level[k]'s ')' is the k-th
    end = np.empty(len(opens), np.int64)  # node j's subtree is nodes j to end[j] - 1
    end[by_level] = opened[closes]
    tops = (level == 0).nonzero()[0]  # a sentence each
    groups = tops[wrapper[tops]]
    if (end[groups] != end[groups + 1]).any():  # a group of several nodes
        return None

    # Labels, tested for dropping and cut once per distinct label.  An
    # atom's index is its token's, less the parentheses before it.
    labels = labeled.nonzero()[0]
    label_atom = opens - open_at
    label = np.zeros(len(opens), np.int64)
    label[labels], names = _interned(data, atom_starts[label_atom[labels]],
                                     atom_ends[label_atom[labels]])
    kept_pre = pre & ~np.array([name in drop_labels for name in names], bool)[label]
    if strip_tags:
        cut = {}
        label = np.array([cut.setdefault(_cut_function_tags(name), len(cut))
                          for name in names], np.int64)[label]
        names = list(cut)

    # The kept nodes and sentences; the root of a kept sentence is its
    # top node or the node that its group wraps.
    pres_before = np.zeros(len(opens) + 1, np.int64)  # kept pre-terminals before each node
    kept_pre.cumsum(out=pres_before[1:])
    kept = pres_before[end] > pres_before[:-1]
    node = labeled & kept
    sentences = tops[kept[tops]]
    leaf = (node & pre).nonzero()[0]
    if preterminalize:
        rule = (node & ~pre).nonzero()[0]
        leaf_symbols = label[leaf]
    else:
        rule = node.nonzero()[0]
        words, word_names = _interned(data, atom_starts[label_atom[leaf] + 1],
                                      atom_ends[label_atom[leaf] + 1])
        leaf_symbols = words + len(names)
        names += word_names

    # A phrase's right-hand side is the run of its kept children among the
    # kept nodes level by level, and a pre-terminal's is its word, after
    # them.  by_level[k]'s children are by_level[runs[k]:runs[k + 1]], and
    # kept_before maps that run into the kept nodes, by_level[in_level].
    in_level = node[by_level]
    kept_before = np.zeros(len(opens) + 1, np.int64)
    in_level.cumsum(out=kept_before[1:])
    runs = np.empty(len(opens) + 1, np.int64)
    runs[0] = len(tops)
    runs[1:] = closes - np.arange(len(closes))
    runs = kept_before[runs]
    rank = np.empty(len(opens), np.int64)
    rank[by_level] = np.arange(len(opens))
    starts = runs[rank[rule]]
    lengths = runs[rank[rule] + 1] - starts
    if not preterminalize:
        word_rule = pre[rule]
        starts[word_rule] = kept_before[-1] + np.arange(len(leaf))
        lengths[word_rule] = 1
    named = np.array(names, dtype=object)
    ids = _rule_ids(label[rule], np.concatenate([label[by_level[in_level]], leaf_symbols]),
                    starts, lengths, named, table)
    return (named[label[sentences + wrapper[sentences]]].tolist(), ids,
            np.append(np.searchsorted(rule, sentences), len(rule)),
            named[leaf_symbols].tolist(),
            np.append(np.searchsorted(leaf, sentences), len(leaf)))


#: The low 8k bits of a word, for k = 0 to 8.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _interned(data: bytes, starts: np.ndarray, ends: np.ndarray):
    """The ids of the byte fields ``data[starts:ends]``, equal for equal
    fields, and the fields decoded, indexed by id.

    The fields of each number of 8-byte words are read as those words,
    padded with NUL (which `data` must lack): each word is one unaligned
    load from a view of the bytes.
    """
    padded = data + bytes(8)
    windows = np.ndarray((len(data) + 1,), "<u8", padded, strides=(1,))
    widths = ends - starts
    words = (widths + 7) >> 3
    ids = np.empty(len(starts), np.int64)
    names = []
    for size in np.bincount(words).nonzero()[0].tolist():
        group = (words == size).nonzero()[0]
        if size <= 1:
            key = windows[starts[group]] & _MASKS[np.minimum(widths[group], 8)]
        else:
            step = 8 * np.arange(size)
            cells = (windows[starts[group, None] + step]
                     & _MASKS[np.clip(widths[group, None] - step, 0, 8)])
            key = cells.view(np.dtype((np.void, 8 * size)))[:, 0]
        one, inverse = _distinct(key)
        ids[group] = inverse + len(names)
        one = group[one]
        names += [data[a:b].decode() for a, b in zip(starts[one].tolist(), ends[one].tolist())]
    return ids, names


def _rule_ids(lhs, symbols, starts, lengths, named, table: RuleTable) -> np.ndarray:
    """The ids in `table` of the rules ``named[lhs[i]] -> named[symbols[
    starts[i]:starts[i] + lengths[i]]]``, new ones interned in the order of
    their first use.

    Each rule is packed into int64 words, its lhs and then its symbols,
    each its id + 1 so that 0 pads, and the rules of each number of words,
    nearly all of them one, are told apart together.  Only the distinct
    rules become keys, built a length at a time from one list of names.
    """
    if not len(lhs):
        return np.empty(0, np.int64)
    bits = len(named).bit_length()
    per = 63 // bits  # symbols to a word
    words = lengths // per + 1
    rule = np.empty(len(lhs), np.int64)  # each rule's distinct id
    firsts = []  # the first use of each distinct rule
    for size in np.bincount(words).nonzero()[0].tolist():
        at = (words == size).nonzero()[0]
        if size == 1:  # each symbol shifted to its slot, and summed
            span = lengths[at]
            before = span.cumsum() - span
            slot = np.arange(1, before[-1] + span[-1] + 1) - before.repeat(span)
            cells = symbols[(starts[at] - 1).repeat(span) + slot] + 1
            key = np.add.reduceat(cells << bits * slot, before) + lhs[at] + 1
        else:
            slot = np.arange(size * per)
            cells = np.where(slot <= lengths[at, None],
                             symbols.take(starts[at, None] + slot - 1, mode="clip") + 1, 0)
            cells[:, 0] = lhs[at] + 1
            cells = cells.reshape(len(at), size, per) << bits * np.arange(per)
            key = cells.sum(2).view(np.dtype((np.void, 8 * size)))[:, 0]
        first, inverse = _distinct(key)
        rule[at] = inverse + sum(map(len, firsts))
        firsts.append(at[first])
    first = np.concatenate(firsts)
    order = first.argsort()  # the distinct rules by first use
    by_length = lengths[first[order]].argsort(kind="stable")
    rows = first[order[by_length]]
    span = lengths[rows]
    before = span.cumsum() - span
    names = named[symbols[(starts[rows] - before).repeat(span)
                          + np.arange(before[-1] + span[-1])]].tolist()
    heads = named[lhs[rows]].tolist()
    keys = []
    done = 0
    for length, count in enumerate(np.bincount(span).tolist()):
        if count:
            block = names[before[done]:before[done] + length * count]
            keys += zip(heads[done:done + count], zip(*[block[k::length] for k in range(length)]))
            done += count
    table_ids = np.empty(len(first), np.int64)
    table_ids[order] = table.intern(list(map(keys.__getitem__, by_length.argsort().tolist())))
    return table_ids[rule]


def _distinct(keys):
    """The first index of each distinct value of `keys`, and each value's id
    (the rank of its value)."""
    order = keys.argsort()
    ranked = keys[order]
    new = np.empty(len(keys), bool)
    new[:1] = True
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(keys), np.int64)
    inverse[order] = new.cumsum() - 1
    return np.minimum.reduceat(order, new.nonzero()[0]), inverse


def _after(text: str, char: str, count: int) -> int:
    """The index just past the `count`-th `char` in `text` (0 for none),
    which is the 1-based offset of that character."""
    pos = 0
    for _ in range(count):
        pos = text.index(char, pos) + 1
    return pos


def _cut_function_tags(label: str) -> str:
    """``NP-SBJ=2`` -> ``NP``; a separator at the start of a label does not
    cut it (``-NONE-`` stays)."""
    for sep in ("-", "="):
        idx = label.find(sep)
        if idx > 0:
            label = label[:idx]
    return label


def write_bracketed(tree: Tree) -> str:
    """Serialize a tree to the bracketed format read by :func:`parse_bracketed`.

    Labels containing whitespace or parentheses cannot round-trip and are
    rejected.
    """
    out = []
    # Emission stack holds trees and literal strings.
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if not item.label or _UNSERIALIZABLE.search(item.label):
            raise StructuralError(
                f"label {item.label!r} is not serializable in bracketed form"
            )
        if item.is_leaf:
            out.append(item.label)
            continue
        out.append(f"({item.label}")
        stack.append(")")
        for child in reversed(item.children):
            stack.append(child)
            stack.append(" ")
    return "".join(out)


class Corpus:
    """A list of parsed sentences plus provenance."""

    def __init__(self, sentences: list[Tree], source_id: str = ""):
        self.sentences = sentences
        self.source_id = source_id

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sentences, self.source_id) == (other.sentences, other.source_id)

    def __repr__(self):
        return f"Corpus(sentences={self.sentences!r}, source_id={self.source_id!r})"

    def __len__(self):
        return len(self.sentences)


class CountedCorpus:
    """The rule counts of a list of sentences plus provenance: what the
    counting readers (:func:`counted_bracketed`,
    :func:`~.depconv.counted_conllu`) return.  It stands in for a
    :class:`Corpus` wherever only rule counts, sentence counts and frontier
    lengths are read.

    Every sentence's rules are ids into `table` in pre-order, all in one
    int64 stream `ids`, sentence k's being ``ids[offsets[k]:offsets[k +
    1]]``; `roots` holds each sentence's root label, and `leaves` every
    frontier one after another, sentence k's being
    ``leaves[leaf_offsets[k]:leaf_offsets[k + 1]]``.  ``CountedCorpus(
    derivations)`` interns a list of :class:`Derivation` into `table` (a new
    one if None), and :meth:`derivations` gives them back.
    """

    def __init__(self, derivations=(), source_id: str = "",
                 table: RuleTable | None = None):
        table = RuleTable() if table is None else table
        roots, ids, offsets, leaves, leaf_offsets = [], [], [0], [], [0]
        for root, rules, frontier in derivations:
            roots.append(root)
            ids.extend(table.intern(rules))
            offsets.append(len(ids))
            leaves.extend(frontier)
            leaf_offsets.append(len(leaves))
        self._set(table, roots, ids, offsets, leaves, leaf_offsets, source_id)

    @classmethod
    def _of(cls, table, roots, ids, offsets, leaves, leaf_offsets,
            source_id: str = "") -> CountedCorpus:
        corpus = cls.__new__(cls)
        corpus._set(table, roots, ids, offsets, leaves, leaf_offsets, source_id)
        return corpus

    def _set(self, table, roots, ids, offsets, leaves, leaf_offsets, source_id):
        self.table = table
        self.roots: list[str] = roots
        self.ids = np.asarray(ids, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.leaves: list[str] = leaves
        self.leaf_offsets = np.asarray(leaf_offsets, dtype=np.int64)
        self.source_id = source_id

    def __len__(self):
        return len(self.roots)

    def derivations(self) -> list[Derivation]:
        keys = self.table.keys()
        rules = [keys[i] for i in self.ids.tolist()]
        cuts, leaf_cuts = self.offsets.tolist(), self.leaf_offsets.tolist()
        return [Derivation(root, rules[a:b], self.leaves[c:d]) for root, a, b, c, d
                in zip(self.roots, cuts, cuts[1:], leaf_cuts, leaf_cuts[1:])]


def counted(corpus: Corpus | CountedCorpus,
            table: RuleTable | None = None) -> CountedCorpus:
    """`corpus` itself if it is counted, else its trees' derivations
    interned into `table`."""
    if isinstance(corpus, CountedCorpus):
        return corpus
    return CountedCorpus(map(derivation, corpus.sentences), corpus.source_id, table)


def merge(corpora: list[CountedCorpus], source_id: str = "") -> CountedCorpus:
    """The sentences of `corpora` one after another, over their one table,
    or over a new table that their ids are mapped into if they have
    several."""
    table = corpora[0].table
    if any(c.table is not table for c in corpora):
        table = RuleTable()
    ids = [c.ids if c.table is table else
           np.array(table.intern(c.table.keys()), np.int64)[c.ids]
           for c in corpora]
    return CountedCorpus._of(
        table, list(chain.from_iterable(c.roots for c in corpora)), np.concatenate(ids),
        _joined([c.offsets for c in corpora]),
        list(chain.from_iterable(c.leaves for c in corpora)),
        _joined([c.leaf_offsets for c in corpora]), source_id)


def _joined(offsets: list[np.ndarray]) -> np.ndarray:
    """The offsets of CSR arrays laid one after another."""
    return np.concatenate(([0], np.cumsum(np.concatenate([np.diff(o) for o in offsets]))))


def corpus_mlu(corpus: Corpus | CountedCorpus) -> float:
    """Mean frontier length in tokens per sentence."""
    if not len(corpus):
        raise EmptyInputError("MLU is undefined for an empty corpus")
    if isinstance(corpus, CountedCorpus):
        total = len(corpus.leaves)
    else:
        total = sum(len(t.frontier()) for t in corpus.sentences)
    return total / len(corpus)


def read_bracketed(
    path,
    drop_labels=DEFAULT_DROP_LABELS,
    strip_tags: bool = False,
    source_id: str | None = None,
    preterminalize: bool = False,
) -> Corpus:
    """Read a bracketed treebank file into a :class:`Corpus`.

    Subtrees under pre-terminals listed in `drop_labels` are removed; with
    `strip_tags`, function-tag suffixes on internal labels are cut; with
    `preterminalize`, the word layer is deleted, so pre-terminals (POS tags)
    become the leaves.  Every node is cleaned as :func:`parse_bracketed`
    reads it.
    """
    trees = parse_bracketed(
        read_text(path),
        drop_labels=drop_labels or frozenset(),
        strip_tags=strip_tags,
        preterminalize=preterminalize,
    )
    return Corpus(trees, source_id=source_id if source_id is not None else str(path))
