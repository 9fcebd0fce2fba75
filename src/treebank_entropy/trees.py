"""Ordered labeled trees, bracketed-treebank reading, and corpus statistics.

Trees are the common currency of the package: internal nodes carry
non-terminal labels, leaves carry terminal labels, and the left-to-right
sequence of leaves (the frontier) is the surface string.  All traversals are
iterative; parsed trees can be arbitrarily deep.

Every measure the package computes is a function of rule counts, so a
corpus is counted into a :class:`CountedCorpus`: each rule key ``(lhs,
rhs)`` is interned once in a :class:`RuleTable` as it is read, and every
sentence becomes its rule ids in pre-order, its root label and its
frontier.  Bracketed text has one reader, one token loop that cleans each
node as it closes: :func:`counted_bracketed` runs it straight into rule ids,
without building a tree, and :func:`parse_bracketed` runs it building the
trees.
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
    once the whole text has parsed.  This is the one bracketed reader, with
    trees built: :func:`counted_bracketed` runs it without them.
    """
    return _read(text, drop_labels, strip_tags, preterminalize, None)


def counted_bracketed(
    text: str,
    table: RuleTable | None = None,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
    source_id: str = "",
) -> CountedCorpus:
    """The trees ``parse_bracketed(text, ...)`` returns, read by the same
    reader without building them, as a :class:`CountedCorpus` over `table`
    (a new one if None); text that does not parse raises the same error."""
    table = RuleTable() if table is None else table
    roots, *arrays = _read(text, drop_labels, strip_tags, preterminalize, table)
    return CountedCorpus._of(table, roots, *arrays, source_id=source_id)


def _read(text, drop_labels, strip_tags, preterminalize, table):
    """Read bracketed `text` into trees if `table` is None, else into the
    rule ids of `table` that a :class:`CountedCorpus` holds: ``(roots, ids,
    offsets, leaves, leaf_offsets)``.

    The tokens are those of ``str.split`` once every parenthesis is spaced
    out.  Each node applies the close rule of :func:`parse_bracketed` as it
    closes, to a tree when building and to its label when counting; when
    counting, each node reserves a slot for its rule when it opens and
    fills it with the rule's id (interned in `table`) when it closes, so
    every sentence's rules come out in pre-order.  A pre-terminal, the most
    common node, is closed without being pushed.  Offsets are found only
    when raising, by counting parentheses in `text` again.
    """
    build = table is None
    out = []  # the kept trees with `build`, their root labels without
    # Open nodes: [label or None, kept children, words, phrases, rule slot]
    # where words and phrases count the node's children as written, and the
    # kept children are trees with `build`, labels without.
    stack = []
    slots = []  # the open sentence's rule ids, one slot per '(' so far
    rule_ids = None if build else table.ids
    ids, offsets, leaves, leaf_offsets = [], [0], [], [0]  # unused with `build`
    closed = 0  # the '(' of the sentences read so far, which all closed
    word_leaves = not (build or preterminalize)
    label_next = False  # the token after a '(' is its node's label
    mixed = None
    # A '(' under an open node waits off the stack: `pending` is its rule
    # slot, and `tag` and `word` are the tokens read after it.  Read as
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
                        if preterminalize:
                            leaves.append(tag)
                            node = Tree(tag) if build else tag
                        elif build:
                            node = Tree(tag, (Tree(word),))
                        else:
                            key = (tag, (word,))
                            slots[pending] = rule_ids.setdefault(key, len(rule_ids))
                            leaves.append(word)
                            node = tag
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
            kept = []
            if word is not None:
                kept.append(Tree(word) if build else word)
                if word_leaves:
                    leaves.append(word)
            stack.append([tag, kept, len(kept), 0, pending])
            pending = tag = word = None
            label_next = False
        if token == "(":
            if stack:  # it waits for its tag and word
                pending = len(slots)
                label_next = False
            else:
                stack.append([None, [], 0, 0, len(slots)])
                label_next = True
            slots.append(None)
        elif not stack:
            # The stray token is the first one after the last top-level ')'.
            pos = _after(text, ")", closed)
            while text[pos].isspace():
                pos += 1
            raise ParseError("expected '('", offset=pos + 1)
        elif token == ")":
            label_next = False
            label, kept, words, phrases, slot = stack.pop()
            if label is None:
                if stack or words + phrases != 1:
                    offset = _after(text, "(", closed + slot + 1)
                    raise StructuralError(f"node without a label at offset {offset}")
                node = kept[0] if kept else None  # unwrap unlabeled top-level group
            elif not words + phrases:
                offset = _after(text, "(", closed + slot + 1)
                raise StructuralError(f"node '{label}' has no children at offset {offset}")
            elif not kept or (not phrases and label in drop_labels):
                node = None
                if word_leaves:  # its words are the last leaves read
                    del leaves[len(leaves) - words:]
            else:
                if strip_tags:
                    label = _cut_function_tags(label)
                if not (preterminalize and words):
                    if build:
                        node = Tree(label, kept)
                    else:
                        key = (label, tuple(kept))
                        slots[slot] = rule_ids.setdefault(key, len(rule_ids))
                        node = label
                elif words == len(kept):  # the pre-terminal becomes a leaf
                    leaves.append(label)
                    node = Tree(label) if build else label
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
            else:
                if node is not None:
                    out.append(node)
                    if not build:
                        ids.extend([rule for rule in slots if rule is not None])
                        offsets.append(len(ids))
                        leaf_offsets.append(len(leaves))
                closed += len(slots)
                slots = []
        elif label_next:
            stack[-1][0] = token
            label_next = False
        else:
            top = stack[-1]
            top[2] += 1
            top[1].append(Tree(token) if build else token)
            if word_leaves:
                leaves.append(token)
    if stack:
        raise ParseError("unbalanced", offset=len(text) + 1)
    if mixed is not None:
        raise mixed
    return out if build else (out, ids, offsets, leaves, leaf_offsets)


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
