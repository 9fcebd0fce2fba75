"""Ordered labeled trees, bracketed-treebank reading, and corpus statistics.

Trees are the common currency of the package: internal nodes carry
non-terminal labels, leaves carry terminal labels, and the left-to-right
sequence of leaves (the frontier) is the surface string.  All traversals are
iterative; parsed trees can be arbitrarily deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EmptyInputError, ParseError, StructuralError

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


#: One token per match: a parenthesis or a maximal run of other non-space
#: characters.  ``\s`` and ``str.isspace`` agree on every code point.
_TOKENS = re.compile(r"\(|\)|[^\s()]+")


def parse_bracketed(
    text: str,
    drop_labels=frozenset(),
    strip_tags: bool = False,
    preterminalize: bool = False,
) -> list[Tree]:
    """Parse one or more parenthesized trees from `text`.

    Node labels are kept verbatim unless one of the keywords asks otherwise;
    each node is cleaned as it closes (see :func:`_close_rule`), so every
    kept tree is built once.  Trees left empty by `drop_labels` are omitted.
    A top-level group that wraps exactly one subtree without a label of its
    own (the common treebank file convention ``( (S ...) )``) is unwrapped.
    Raises :class:`ParseError` on unbalanced parentheses (reporting the
    1-based byte offset) and :class:`StructuralError` on empty nodes; with
    `preterminalize`, a node mixing word and phrase children raises
    :class:`StructuralError` once the whole text has parsed.
    """
    close = _close_rule(drop_labels, strip_tags, preterminalize)
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
            else:
                try:
                    node = close(label, kept, words, phrases)
                except StructuralError as err:
                    # Raised once the text has parsed: a syntax error
                    # anywhere in the text takes precedence over it.
                    mixed = mixed or err
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


def _close_rule(drop_labels=frozenset(), strip_tags=False, preterminalize=False):
    """The cleaning applied to each internal node once its children are final.

    The returned ``close(label, children, words, phrases)`` gets the node's
    label as written, its kept (already cleaned) children, and how many of
    its children as written were words (leaves) and phrases (internal
    nodes).  It returns the cleaned node, or None when the node is dropped:
    a pre-terminal labeled in `drop_labels`, or a node none of whose
    children were kept.  With `strip_tags` function-tag suffixes are cut,
    after the drop test; with `preterminalize` a pre-terminal becomes a leaf
    labeled with its tag, and a node mixing words and kept phrases raises
    :class:`StructuralError`.
    """

    def close(label, children, words, phrases):
        if not phrases and label in drop_labels:
            return None
        if not children:
            return None
        if strip_tags:
            label = _cut_function_tags(label)
        if preterminalize and words:
            if words != len(children):
                raise StructuralError(
                    f"node '{label}' mixes leaf and internal children"
                )
            return Tree(label)
        return Tree(label, children)

    return close


def _rebuild(tree: Tree, close) -> Tree | None:
    """Apply a close rule bottom-up to an existing tree."""
    if tree.is_leaf:
        return tree
    pre = []
    stack = [tree]
    while stack:
        node = stack.pop()
        pre.append(node)
        stack.extend(c for c in node.children if c.children)
    built: dict[int, Tree | None] = {}
    for node in reversed(pre):  # children before parents, left to right
        children = []
        words = 0
        for child in node.children:
            if child.children:
                child = built[id(child)]
                if child is None:
                    continue
            else:
                words += 1
            children.append(child)
        built[id(node)] = close(
            node.label, children, words, len(node.children) - words
        )
    return built[id(tree)]


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
        if not item.label or any(c in "() \t\n\r" for c in item.label):
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


def strip_subtrees(tree: Tree, drop_labels=DEFAULT_DROP_LABELS) -> Tree | None:
    """Remove subtrees rooted at pre-terminals with a label in `drop_labels`.

    Internal nodes left without children are removed as well.  Returns None
    when the whole tree is dropped.
    """
    return _rebuild(tree, _close_rule(drop_labels=drop_labels))


def strip_function_tags(tree: Tree) -> Tree:
    """Strip `-`/`=` suffixes from internal labels (``NP-SBJ`` -> ``NP``).

    Labels that would become empty (pure punctuation-style labels such as
    ``-NONE-`` or ``-LRB-``) are kept verbatim.  Leaf labels are never touched.
    """
    return _rebuild(tree, _close_rule(strip_tags=True))


def preterminalize(tree: Tree) -> Tree:
    """Delete the word layer so pre-terminals (POS tags) become the leaves.

    Requires every leaf's parent to be a pre-terminal, i.e. an internal node
    whose children are all leaves; a node mixing leaf and internal children
    raises :class:`StructuralError` naming the offending label.  Every
    root-to-leaf path shortens by exactly one edge.  A bare single-leaf tree
    is returned unchanged.
    """
    return _rebuild(tree, _close_rule(preterminalize=True))


@dataclass
class Corpus:
    """A list of parsed sentences plus provenance.

    `preterminalized` records whether the word layer has already been
    removed, making :func:`preterminalize_corpus` idempotent.
    """

    sentences: list[Tree]
    source_id: str = ""
    preterminalized: bool = field(default=False, compare=False)

    def __len__(self):
        return len(self.sentences)


def preterminalize_corpus(corpus: Corpus) -> Corpus:
    """Pre-terminalize every sentence; no-op on an already processed corpus."""
    if corpus.preterminalized:
        return corpus
    return Corpus(
        [preterminalize(t) for t in corpus.sentences],
        source_id=corpus.source_id,
        preterminalized=True,
    )


def corpus_mlu(corpus: Corpus) -> float:
    """Mean frontier length in tokens per sentence."""
    if not corpus.sentences:
        raise EmptyInputError("MLU is undefined for an empty corpus")
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
    `preterminalize`, the word layer is deleted as by :func:`preterminalize`.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    trees = parse_bracketed(
        text,
        drop_labels=drop_labels or frozenset(),
        strip_tags=strip_tags,
        preterminalize=preterminalize,
    )
    return Corpus(
        trees,
        source_id=source_id if source_id is not None else str(path),
        preterminalized=preterminalize,
    )
