"""Exception hierarchy.

Input-side problems (malformed files, structurally invalid trees or graphs,
out-of-grammar material) derive from :class:`InputError`; numerical failures
(divergent grammars, non-converging iterations) derive from
:class:`NumericalError`.  The command-line driver maps the former to exit
code 2 and the latter to exit code 3.  Every input file is read through
:func:`read_text`, so bytes that are not UTF-8 are a :class:`ParseError` too.
"""


class TreebankEntropyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TreebankEntropyError):
    """Invalid or malformed input data."""


class ParseError(InputError):
    """Syntactically malformed input text.

    `offset` is the 1-based character offset of the problem in the decoded
    text, with newlines normalized as :func:`read_text` gives them, when
    known (for text that is not UTF-8, the offset of its first bad byte);
    `line` is the 1-based line number.
    """

    def __init__(self, message, offset=None, line=None):
        self.offset = offset
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"offset {offset}")
        if where:
            message = f"{message} at {', '.join(where)}"
        super().__init__(message)


class StructuralError(InputError):
    """Input parses but violates a structural invariant."""


class AlphabetClashError(StructuralError):
    """A symbol is used both as an internal label and as a leaf label."""


class NonProjectiveError(StructuralError):
    """Dependency graph has crossing arcs and cannot be converted."""

    def __init__(self, message, crossing=()):
        self.crossing = tuple(crossing)
        if self.crossing:
            arcs = ", ".join(f"{h}->{d}" for h, d in self.crossing)
            message = f"{message} (crossing arcs: {arcs})"
        super().__init__(message)


class OutOfGrammarError(InputError):
    """A tree uses a rule that the grammar does not contain."""

    def __init__(self, message, rules=()):
        self.rules = tuple(rules)
        if self.rules:
            listed = "; ".join(rules[:10])
            message = f"{message}: {listed}"
        super().__init__(message)


class EmptyInputError(InputError):
    """An operation that requires non-empty input received none."""


class NumericalError(TreebankEntropyError):
    """A numerical computation failed or did not converge."""


class DivergentGrammarError(NumericalError):
    """Spectral radius >= 1: entropies and expected lengths do not exist."""


class SamplingDivergenceError(NumericalError):
    """Sampling repeatedly exceeded the node budget."""


def read_text(path) -> str:
    """The text of a UTF-8 file, with universal newlines as :func:`open`
    gives it.  Bytes that are not UTF-8 raise :class:`ParseError` at the
    1-based byte offset of the first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text", offset=err.start + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
