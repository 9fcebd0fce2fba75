"""Grammar files: the text that :func:`~.grammar.dumps` writes
(:func:`written`) and :func:`~.grammar.loads` reads.

:func:`scanned` reads text in that form in whole-file numpy passes over its
bytes, and :func:`lines` reads any text line by line, which gives every
:class:`~.errors.ParseError`.  :func:`~.grammar.loads` and
:func:`~.grammar.dumps` import this module when they run, so a command that
reads or writes no grammar file does not load it.  ``Pcfg(root, rules)``
imports it too, for :func:`_symbol_ids`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParseError, StructuralError
from .trees import _IRREGULAR as _TREE_IRREGULAR
from .trees import _interned

if TYPE_CHECKING:
    from .grammar import Pcfg


def written(grammar: Pcfg) -> str:
    """The text of :func:`~.grammar.dumps`."""
    for sym in grammar.symbols:
        if not sym or sym == "->" or any(c.isspace() for c in sym):
            raise StructuralError(f"symbol {sym!r} is not serializable")
    out = [f"#root {grammar.root}"]
    out.extend(
        f"{prob:.17g}\t{freq}\t{lhs} -> {rhs}"
        for lhs, rhs, prob, freq
        in zip(*grammar._texts(" ".join), grammar.prob.tolist(), grammar.freq.tolist())
    )
    return "\n".join(out) + "\n"


def _symbol_ids(expansions) -> tuple:
    """The rule keys `expansions` as ``(lhs, rhs_offsets, rhs, names)``,
    each symbol an index into `names`."""
    ids = {}
    lhs = [ids.setdefault(key[0], len(ids)) for key in expansions]
    rhs = [ids.setdefault(sym, len(ids)) for key in expansions for sym in key[1]]
    offsets = np.zeros(len(lhs) + 1, np.intp)
    np.cumsum([len(key[1]) for key in expansions], out=offsets[1:])
    return np.array(lhs, np.intp), offsets, np.array(rhs, np.intp), list(ids)


def lines(text: str):
    """The arguments of :meth:`~.grammar.Pcfg._of` for the grammar file
    `text`, read line by line."""
    root = None
    expansions, probs, freqs = [], [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#root"):
            header = line.split()
            if header[0] != "#root" or len(header) != 2:
                raise ParseError("expected '#root <symbol>'", line=line_no)
            if root is not None:
                raise ParseError("a second '#root' header", line=line_no)
            root = header[1]
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected prob<TAB>freq<TAB>rule", line=line_no)
        try:
            probs.append(float(fields[0]))
            freqs.append(int(fields[1]))
        except ValueError:
            raise ParseError(
                f"bad numeric fields {fields[0]!r}, {fields[1]!r}", line=line_no
            ) from None
        symbols = fields[2].split()
        if len(symbols) < 3 or symbols[1] != "->" or symbols.count("->") > 1:
            raise ParseError("expected 'lhs -> rhs...', '->' only as the arrow",
                             line=line_no)
        expansions.append((symbols[0], tuple(symbols[2:])))
    if root is None:
        raise ParseError("missing '#root <symbol>' header")
    return (root, *_symbol_ids(expansions), probs, freqs)


#: The characters other than "\n" that end a line for ``str.splitlines``,
#: those other than " " and "\t" that ``str.split`` splits on, and NUL,
#: which pads the fields that :func:`~.trees._interned` compares.
_IRREGULAR = _TREE_IRREGULAR + "\v\f\r"
#: Each byte's class: part of a token, or the separator tab, space or newline.
_TOKEN, _TAB, _SPACE, _NEWLINE = range(4)
_SEPARATORS = bytes(_TAB if b == ord("\t") else _SPACE if b == ord(" ")
                    else _NEWLINE if b == ord("\n") else _TOKEN for b in range(256))
#: A probability field that the scan reads.
_PROB = re.compile(r"[-.0-9][-+.0-9eE]*\Z")


def scanned(text: str):
    """The arguments of :meth:`~.grammar.Pcfg._of` for the grammar file
    `text`, read in whole-file passes over its UTF-8 bytes, or None unless
    every line is empty, a comment, the one header ``#root <symbol>`` or a
    rule line as :func:`~.grammar.dumps` writes it: ``prob<TAB>freq<TAB>``
    and then the rule's symbols, one space between each two, the second
    ``->`` and no other.  A probability must match `_PROB`, and each
    distinct one is read by ``float``; a frequency is an optional ``-`` and
    1 to 18 ASCII digits.  Symbols are interned by
    :func:`~.trees._interned`, in no particular order.
    """
    if any(c in text for c in _IRREGULAR):
        return None
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate
        return None
    if not 0 < len(data) < 2**31:  # int32 offsets take the bytes and one more
        return None
    buf = np.frombuffer(data, np.uint8)
    kind = np.frombuffer(data.translate(_SEPARATORS), np.uint8)
    # Token j, perhaps empty, runs from just past separator j - 1 to
    # separator j, where a newline stands before the text and one after it.
    edges = np.empty(np.count_nonzero(kind) + 2, np.int32)
    edges[0], edges[-1] = -1, len(data)
    edges[1:-1] = (kind != _TOKEN).nonzero()[0]
    starts, ends = edges[:-1] + 1, edges[1:]
    widths = ends - starts
    ended_by = kind.take(ends, mode="clip")
    ended_by[-1] = _NEWLINE
    lasts = (ended_by == _NEWLINE).nonzero()[0]  # each line's last token
    counts = np.diff(lasts, prepend=-1)
    firsts = lasts - counts + 1
    filled = widths[firsts] > 0
    comment = filled & (buf.take(starts[firsts], mode="clip") == ord("#"))
    rule = ~comment & (filled | (counts > 1))  # not blank

    # The header: the one comment line that starts with "#root".
    headers = [j for j in firsts[comment].tolist() if data.startswith(b"#root", starts[j])]
    if len(headers) != 1:
        return None
    (j,) = headers
    if (ended_by[j] != _SPACE or widths[j] != 5 or ended_by[j + 1] != _NEWLINE
            or not widths[j + 1]):
        return None
    root = data[starts[j + 1]:ends[j + 1]].decode()

    # Rule lines: at least five tokens, the first two, and no others, ended
    # by a tab; token 0 is the probability, 1 the frequency, 2 the
    # left-hand side, 3 the arrow and the rest the right-hand side.
    symbol = rule.repeat(counts)  # the rule lines' tokens, for now
    first, counts = firsts[rule], counts[rule]
    tabbed = ended_by == _TAB
    if (not len(first) or (counts < 5).any() or np.count_nonzero(tabbed & symbol) != 2 * len(first)
            or not (tabbed[first] & tabbed[first + 1]).all() or (symbol & (widths == 0)).any()):
        return None
    probs = _floats(data, starts[first], ends[first])
    freqs = _integers(buf, starts[first + 1], ends[first + 1])
    if probs is None or freqs is None:
        return None
    symbol[first] = symbol[first + 1] = symbol[first + 3] = False
    arrows = np.concatenate([first + 3, (symbol & (widths == 2)).nonzero()[0]])
    arrows = arrows[(widths[arrows] == 2) & (buf[starts[arrows]] == ord("-"))
                    & (buf.take(starts[arrows] + 1, mode="clip") == ord(">"))]
    if not np.array_equal(arrows, first + 3):  # the arrow, and no symbol "->"
        return None
    ids, names = _interned(data, starts[symbol], ends[symbol])
    heads = np.zeros(len(counts) + 1, np.int64)  # each rule's lhs among the symbols
    np.cumsum(counts - 3, out=heads[1:])
    body = np.ones(len(ids), bool)
    body[heads[:-1]] = False
    return root, ids[heads[:-1]], heads - np.arange(len(heads)), ids[body], names, probs, freqs


def _floats(data, starts, ends):
    """The byte fields ``data[starts:ends]`` read by ``float``, once per
    distinct field, or None unless each matches `_PROB` and ``float``
    takes it."""
    ids, fields = _interned(data, starts, ends)
    try:
        if all(map(_PROB.match, fields)):
            return np.array(list(map(float, fields)))[ids]
    except ValueError:
        pass
    return None


def _integers(buf, starts, ends):
    """The byte fields ``buf[starts:ends]``, none empty, read as decimal
    int64 numbers, a digit column at a time, or None unless each is 1 to 18
    ASCII digits after an optional ``-``."""
    negative = buf[starts] == ord("-")
    starts = starts + negative
    widths = ends - starts
    if widths.min() < 1 or widths.max() > 18:
        return None
    values = np.zeros(len(starts), np.int64)
    for k in range(int(widths.max())):
        live = k < widths
        digit = buf[np.where(live, starts + k, starts)].astype(np.int64) - ord("0")
        if ((digit < 0) | (digit > 9)).any():
            return None
        values = np.where(live, values * 10 + digit, values)
    return np.where(negative, -values, values)
