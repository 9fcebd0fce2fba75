"""Trees as objects: the bracketed tree builder and writer, and tree corpora.

The commands count their input without building a tree (:mod:`.trees`), so
this module is imported only where trees are built or walked: text that the
bracketed scan refuses, whose tree builder (:func:`parse_bracketed`) gives
every error of the bracketed format; a tree corpus handed to the library;
rule keys given as strings (:meth:`~.trees.RuleTable.intern`); and the
commands that write trees.  Every traversal is iterative, so parsed trees
can be arbitrarily deep.
"""

from __future__ import annotations

import re
from itertools import islice

import numpy as np

from .errors import ParseError, StructuralError, read_text
from .trees import DEFAULT_DROP_LABELS, CountedCorpus, Derivation, RuleTable, _cut_function_tags


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


def derivation(tree: Tree) -> Derivation:
    """The derivation of a tree, walking it once."""
    rules, leaves = [], []
    _walk(tree, rules, leaves)
    return Derivation(tree.label, rules, leaves)


def _walk(tree: Tree, rules: list, leaves: list) -> None:
    """Append the ``(lhs, rhs)`` expansion of every internal node of `tree`
    to `rules`, in pre-order, and its frontier to `leaves`."""
    stack = [tree]
    while stack:  # pre-order, left to right
        node = stack.pop()
        children = node.children
        if children:
            rules.append((node.label, tuple([c.label for c in children])))
            stack.extend(children[::-1])
        else:
            leaves.append(node.label)


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


def counted_trees(corpus: Corpus, table: RuleTable) -> CountedCorpus:
    """The derivations of `corpus`'s trees interned into `table`, every tree
    walked once: :func:`~.trees.counted` of a tree corpus."""
    roots, keys, offsets, leaves, leaf_offsets = [], [], [0], [], [0]
    for tree in corpus.sentences:
        roots.append(tree.label)
        _walk(tree, keys, leaves)
        offsets.append(len(keys))
        leaf_offsets.append(len(leaves))
    return CountedCorpus._of(table, roots, interned(table, keys), offsets, leaves,
                             leaf_offsets, corpus.source_id)


def interned(table: RuleTable, keys: list[tuple[str, tuple[str, ...]]]) -> np.ndarray:
    """:meth:`~.trees.RuleTable.intern`: the ids of the rule keys `keys` in
    `table`, the new ones interned in order.

    A dict of string keys holds every rule of the table once this has run
    (the rules that :meth:`~.trees.RuleTable.rule_ids` added since are named
    first), so a key that it lacks is new.
    """
    known = table._strings
    if len(known) < len(table):
        known.update(zip(table.keys()[len(known):], range(len(known), len(table))))
    before = len(known)
    setdefault = known.setdefault
    ids = np.array([setdefault(key, len(known)) for key in keys], np.int64)
    fresh = list(islice(known, before, None))  # the new keys, by first use
    if fresh:
        lengths = np.array([len(rhs) for _, rhs in fresh], np.int64)
        symbols = table.symbol_ids([sym for lhs, rhs in fresh for sym in (lhs, *rhs)])
        heads = (lengths + 1).cumsum() - lengths - 1  # each lhs among the symbols
        body = np.ones(len(symbols), bool)
        body[heads] = False
        table.lhs = np.concatenate([table.lhs, symbols[heads]])
        table.rhs = np.concatenate([table.rhs, symbols[body]])
        table.rhs_offsets = np.concatenate([table.rhs_offsets,
                                            table.rhs_offsets[-1] + lengths.cumsum()])
        table._bits = 0  # the packed keys are made when the table is next looked up
    return ids


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
    error path of :func:`~.trees.counted_bracketed`.
    """
    return _read(text, drop_labels, strip_tags, preterminalize)


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


def _after(text: str, char: str, count: int) -> int:
    """The index just past the `count`-th `char` in `text` (0 for none),
    which is the 1-based offset of that character."""
    pos = 0
    for _ in range(count):
        pos = text.index(char, pos) + 1
    return pos


#: A character that would split or end a label when the text is read back.
_UNSERIALIZABLE = re.compile(r"[\s()]")


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
