"""Ordered labeled trees, bracketed-treebank reading, and corpus statistics.

Trees are the common currency of the package: internal nodes carry
non-terminal labels, leaves carry terminal labels, and the left-to-right
sequence of leaves (the frontier) is the surface string.  All traversals are
iterative; parsed trees can be arbitrarily deep.

Every measure the package computes is a function of rule counts, so a tree
is counted through its :class:`Derivation`: the root label, the expansions
in pre-order and the frontier.  Bracketed text has one reader, one token
loop that cleans each node as it closes: :func:`count_bracketed` runs it
straight into derivations, without building a tree, and
:func:`parse_bracketed` runs it building the trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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
    trees built: :func:`count_bracketed` runs it without them.
    """
    return _read(text, drop_labels, strip_tags, preterminalize, build=True)


def count_bracketed(
    text: str,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
) -> list[Derivation]:
    """The derivations of the trees ``parse_bracketed(text, ...)`` returns,
    read by the same reader without building them; text that does not
    parse raises the same error."""
    return _read(text, drop_labels, strip_tags, preterminalize, build=False)


def _read(text, drop_labels, strip_tags, preterminalize, build):
    """Read bracketed `text` into trees with `build`, else into derivations.

    The tokens are those of ``str.split`` once every parenthesis is spaced
    out.  Each node applies the close rule of :func:`parse_bracketed` as it
    closes, to a tree with `build` and to its label without; without, each
    node reserves a slot for its rule when it opens and fills it when it
    closes, so every sentence's rules come out in pre-order.  Offsets are
    found only when raising, by counting parentheses in `text` again.
    """
    out = []
    # Open nodes: [label or None, kept children, words, phrases, rule slot]
    # where words and phrases count the node's children as written, and the
    # kept children are trees with `build`, labels without.
    stack = []
    slots = []  # the open sentence's rules, one slot per '(' so far
    leaves = []  # the open sentence's frontier so far, unused with `build`
    closed = 0  # the '(' of the sentences read so far, which all closed
    word_leaves = not (build or preterminalize)
    label_next = False  # the token after a '(' is its node's label
    mixed = None
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([None, [], 0, 0, len(slots)])
            slots.append(None)
            label_next = True
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
                        slots[slot] = (label, tuple(kept))
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
                    if not build:
                        rules = [rule for rule in slots if rule is not None]
                        node = Derivation(node, rules, leaves)
                    out.append(node)
                closed += len(slots)
                slots = []
                leaves = []
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
    return out


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


@dataclass
class Corpus:
    """A list of parsed sentences plus provenance."""

    sentences: list[Tree]
    source_id: str = ""

    def __len__(self):
        return len(self.sentences)

    def derivations(self) -> list[Derivation]:
        return [derivation(t) for t in self.sentences]


@dataclass
class CountedCorpus:
    """The derivations of a list of sentences plus provenance: what
    :func:`count_bracketed` reads.  It stands in for a :class:`Corpus`
    wherever only rule counts, sentence counts and frontier lengths are
    read."""

    sentences: list[Derivation]
    source_id: str = ""

    def __len__(self):
        return len(self.sentences)

    def derivations(self) -> list[Derivation]:
        return self.sentences


def corpus_mlu(corpus: Corpus | CountedCorpus) -> float:
    """Mean frontier length in tokens per sentence."""
    if not corpus.sentences:
        raise EmptyInputError("MLU is undefined for an empty corpus")
    if isinstance(corpus, CountedCorpus):
        total = sum(d.terminals for d in corpus.sentences)
    else:
        total = sum(len(t.frontier()) for t in corpus.sentences)
    return total / len(corpus.sentences)


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
