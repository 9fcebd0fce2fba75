"""CoNLL-U dependency treebank reading.

Only the columns needed downstream are kept: ID, FORM, UPOS, HEAD, DEPREL.
Multiword-token ranges (``3-4``) and empty nodes (``5.1``) are skipped, as
are comment lines; every other row's ID must be its 1-based position in the
sentence.  Each sentence is checked to be a single-rooted tree, and every
token but the root must have a DEPREL.  One reader (:func:`_sentences`)
gives the rows of every sentence, and one walk (:func:`_tree_walk`) checks
treeness, for :func:`parse_conllu` here.  :func:`~.depconv.counted_conllu`,
which reads text into rule counts, scans regular text in whole-file numpy
passes and uses this reader and walk only for text the scan does not cover
or that does not form trees, so both raise the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, StructuralError, read_text

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
