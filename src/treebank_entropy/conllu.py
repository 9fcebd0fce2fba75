"""CoNLL-U dependency treebank reading.

Only the columns needed downstream are kept: ID, FORM, UPOS, HEAD, DEPREL.
Multiword-token ranges (``3-4``) and empty nodes (``5.1``) are skipped, as
are comment lines.  Each sentence is validated to be a single-rooted tree,
and every token but the root must have a DEPREL.
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

    @property
    def root(self) -> int:
        """1-based index of the root token."""
        return self.heads.index(0) + 1

    def validate(self) -> None:
        """Check the single-root and treeness invariants."""
        n = len(self.tokens)
        ident = self.sent_id or "dependency graph"
        if not (len(self.heads) == len(self.labels) == n):
            raise StructuralError(f"{ident}: field lengths disagree")
        roots = [i for i, h in enumerate(self.heads) if h == 0]
        if len(roots) != 1:
            raise StructuralError(
                f"{ident}: expected exactly one root, found {len(roots)}"
            )
        for i, h in enumerate(self.heads):
            if not 0 <= h <= n:
                raise StructuralError(
                    f"{ident}: head index {h} of token {i + 1} out of range"
                )
        # Walk from every token towards the root; a repeat means a cycle.
        for start in range(1, n + 1):
            seen = set()
            node = start
            while node != 0:
                if node in seen:
                    raise StructuralError(f"{ident}: cycle through token {node}")
                seen.add(node)
                node = self.heads[node - 1]

    def dependents(self) -> list[list[int]]:
        """For each 1-based head position, its dependents in surface order."""
        out: list[list[int]] = [[] for _ in range(len(self.tokens) + 1)]
        for i, h in enumerate(self.heads, start=1):
            out[h].append(i)
        return out


def parse_conllu(text: str) -> list[DepGraph]:
    """Parse CoNLL-U text into a list of validated :class:`DepGraph`."""
    graphs = []
    rows: list[tuple[str, str, int, str]] = []
    sent_id = ""
    sent_start_line = None
    n_sent = 0

    def finish():
        nonlocal rows, sent_id, sent_start_line, n_sent
        if not rows:
            sent_id = ""
            sent_start_line = None
            return
        n_sent += 1
        ident = sent_id or f"sentence {n_sent} (line {sent_start_line})"
        graph = DepGraph(
            tokens=[(form, pos) for form, pos, _, _ in rows],
            heads=[head for _, _, head, _ in rows],
            labels=[None if head == 0 else rel for _, _, head, rel in rows],
            sent_id=ident,
        )
        graph.validate()
        graphs.append(graph)
        rows = []
        sent_id = ""
        sent_start_line = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            finish()
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                sent_id = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(
                f"expected 10 tab-separated columns, got {len(cols)}",
                line=line_no,
            )
        token_id = cols[_ID]
        if "-" in token_id or "." in token_id:
            continue  # multiword ranges and empty nodes carry no tree arcs
        try:
            int(token_id)
        except ValueError:
            raise ParseError(f"non-integer ID {token_id!r}", line=line_no) from None
        try:
            head = int(cols[_HEAD])
        except ValueError:
            raise ParseError(
                f"non-integer HEAD {cols[_HEAD]!r}", line=line_no
            ) from None
        if head and not cols[_DEPREL]:
            raise ParseError("empty DEPREL of a non-root token", line=line_no)
        if sent_start_line is None:
            sent_start_line = line_no
        rows.append((cols[_FORM], cols[_UPOS], head, cols[_DEPREL]))
    finish()
    return graphs


def read_conllu(path) -> list[DepGraph]:
    """Read and parse a CoNLL-U file."""
    return parse_conllu(read_text(path))
