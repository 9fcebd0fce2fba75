"""Ordered labeled trees, bracketed-treebank reading, and corpus statistics.

Trees are the common currency of the package: internal nodes carry
non-terminal labels, leaves carry terminal labels, and the left-to-right
sequence of leaves (the frontier) is the surface string.  All traversals are
iterative; parsed trees can be arbitrarily deep.

Every measure the package computes is a function of rule counts, so a tree
is counted through its :class:`Derivation`: the root label, the expansions
in pre-order and the frontier.  :func:`count_bracketed` reads bracketed text
straight into derivations, without building a tree.
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


#: One token per match: a parenthesis or a maximal run of other non-space
#: characters.  ``\s`` and ``str.isspace`` agree on every code point.
_TOKENS = re.compile(r"\(|\)|[^\s()]+")

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
    and :class:`StructuralError` on empty nodes; with `preterminalize`, a node mixing word and phrase
    children raises :class:`StructuralError` once the whole text has parsed.
    """
    trees = []
    # Open nodes: [label or None, kept children, offset of '(', words, phrases]
    # where words and phrases count the node's children as written.
    stack = []
    mixed = None
    for match in _TOKENS.finditer(text):
        token = match.group()
        if token == "(":
            stack.append([None, [], match.start(), 0, 0])
        elif not stack:
            raise ParseError("expected '('", offset=match.start() + 1)
        elif token == ")":
            label, kept, opened, words, phrases = stack.pop()
            if label is None:
                if stack or words + phrases != 1:
                    raise StructuralError(
                        f"node without a label at offset {opened + 1}"
                    )
                node = kept[0] if kept else None  # unwrap unlabeled top-level group
            elif not words + phrases:
                raise StructuralError(
                    f"node '{label}' has no children at offset {opened + 1}"
                )
            elif not kept or (not phrases and label in drop_labels):
                node = None
            else:
                if strip_tags:
                    label = _cut_function_tags(label)
                if not (preterminalize and words):
                    node = Tree(label, kept)
                elif words == len(kept):
                    node = Tree(label)  # the pre-terminal becomes a leaf
                else:
                    # Raised once the text has parsed: a syntax error
                    # anywhere in the text takes precedence over it.
                    mixed = mixed or StructuralError(
                        f"node '{label}' mixes leaf and internal children"
                    )
                    node = None
            if stack:
                parent = stack[-1]
                parent[4] += 1
                if node is not None:
                    parent[1].append(node)
            elif node is not None:
                trees.append(node)
        else:
            top = stack[-1]
            if top[0] is None and not top[3] + top[4]:
                top[0] = token
            else:
                top[3] += 1
                top[1].append(Tree(token))
    if stack:
        raise ParseError("unbalanced", offset=len(text) + 1)
    if mixed is not None:
        raise mixed
    return trees


def _cut_function_tags(label: str) -> str:
    """``NP-SBJ=2`` -> ``NP``; a separator at the start of a label does not
    cut it (``-NONE-`` stays)."""
    for sep in ("-", "="):
        idx = label.find(sep)
        if idx > 0:
            label = label[:idx]
    return label


def count_bracketed(
    text: str,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
) -> list[Derivation]:
    """The derivations of the trees ``parse_bracketed(text, ...)`` returns,
    read without building them.

    The tokens and the close rule are those of :func:`parse_bracketed`,
    applied to labels instead of nodes.  Each node reserves a slot for its
    rule when it opens and fills it when it closes, so every sentence's
    rules come out in pre-order.  Malformed text is handed to
    :func:`parse_bracketed`, so the error raised is its own.
    """

    def malformed():
        parse_bracketed(text, drop_labels, strip_tags, preterminalize)
        raise AssertionError("the two bracketed readers disagree on this text")

    derivations = []
    # Open nodes: [label or None, kept child labels, words, phrases, rule slot]
    # where words and phrases count the node's children as written.
    stack = []
    slots = []  # the open sentence's rules, one slot per '(' so far
    leaves = []  # the open sentence's frontier so far
    # split() cuts at str.isspace, as \s in _TOKENS does: the same tokens.
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([None, [], 0, 0, len(slots)])
            slots.append(None)
        elif not stack:
            malformed()
        elif token == ")":
            label, kept, words, phrases, slot = stack.pop()
            if label is None:
                if stack or words + phrases != 1:
                    malformed()
                label = kept[0] if kept else None  # unwrap unlabeled top-level group
            elif not words + phrases:
                malformed()
            elif not kept or (not phrases and label in drop_labels):
                label = None
                if not preterminalize:  # its words are the last leaves read
                    del leaves[len(leaves) - words:]
            else:
                if strip_tags:
                    label = _cut_function_tags(label)
                if not (preterminalize and words):
                    slots[slot] = (label, tuple(kept))
                elif words == len(kept):
                    leaves.append(label)  # the pre-terminal becomes a leaf
                else:
                    malformed()  # mixes leaf and internal children
            if stack:
                parent = stack[-1]
                parent[3] += 1
                if label is not None:
                    parent[1].append(label)
            else:
                if label is not None:
                    rules = [rule for rule in slots if rule is not None]
                    derivations.append(Derivation(label, rules, leaves))
                slots = []
                leaves = []
        else:
            top = stack[-1]
            if top[0] is None and not top[2] + top[3]:
                top[0] = token
            else:
                top[2] += 1
                top[1].append(token)
                if not preterminalize:
                    leaves.append(token)
    if stack:
        malformed()
    return derivations


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
