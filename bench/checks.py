"""Output checks for the benchmark's CLI runs.

Each check takes the text the CLI printed (and, where needed, what the input
generator knows about its own output) and returns ``None`` when the output
is right or a one-line message when it is not.  No check depends on the
order in which the program consumes random numbers.
"""

from __future__ import annotations

import csv
import io
import math

#: Relative tolerance for MLU against the generator's token count: the
#: grammar-level MLU comes out of a linear solve and differs from the plain
#: ratio in the last bits.
MLU_RTOL = 1e-12

#: Absolute tolerance in bits for the incremental endpoint, as in the
#: repository's own order-independence criterion.
ENDPOINT_ATOL = 1e-9


def scalars(text: str) -> dict[str, str]:
    """Parse ``key<TAB>value`` lines as printed by scalar subcommands."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            out[key] = value
    return out


def csv_rows(text: str) -> list[list[str]]:
    """CSV rows without the ``#`` metadata line and without the header."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def no_traceback(stderr: str) -> str | None:
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    return None


def site_ml_equals_entropy(site_ml: str, rate: str) -> str | None:
    got = float(scalars(site_ml)["entropy_bits"])
    want = float(scalars(rate)["entropy"])
    if got != want:
        return f"site --smoother ml {got!r} != entropy {want!r}"
    return None


def rate_consistent(rate: str) -> str | None:
    values = {k: float(v) for k, v in scalars(rate).items()}
    if values["rate"] != values["entropy"] / values["mlu"]:
        return f"rate {values['rate']!r} != entropy / mlu"
    if not values["spectral_radius"] < 1.0:
        return f"spectral radius {values['spectral_radius']!r} is not below 1"
    return None


def mlu_matches(rate: str, tokens: int, sentences: int) -> str | None:
    got = float(scalars(rate)["mlu"])
    want = tokens / sentences
    if not math.isclose(got, want, rel_tol=MLU_RTOL, abs_tol=0.0):
        return f"mlu {got!r} != {tokens}/{sentences} = {want!r}"
    return None


def site_sentences(site: str, sentences: int) -> str | None:
    got = int(scalars(site)["sentences"])
    if got != sentences:
        return f"site read {got} sentences, generated {sentences}"
    return None


def incremental_endpoint(incremental: str, site: str) -> str | None:
    rows = csv_rows(incremental)
    end = float(rows[-1][3])
    merged = float(scalars(site)["entropy_bits"])
    if not abs(end - merged) <= ENDPOINT_ATOL:
        return f"incremental endpoint {end!r} != site {merged!r}"
    return None


def report_counts(report: str, files) -> str | None:
    """`files` lists ``(file_id, sentences, tokens)`` in command-line order."""
    rows = csv_rows(report)
    if len(rows) != len(files):
        return f"report has {len(rows)} rows for {len(files)} files"
    for row, (file_id, sentences, tokens) in zip(rows, files):
        if row[0] != file_id or int(row[1]) != sentences:
            return f"report row {row[:2]} != ({file_id}, {sentences})"
        if not math.isclose(float(row[2]), tokens / sentences, rel_tol=MLU_RTOL):
            return f"report mlu {row[2]} of {file_id} != {tokens}/{sentences}"
    return None


def converge_rows(converge: str, expected_rows: int) -> str | None:
    rows = csv_rows(converge)
    if len(rows) != expected_rows:
        return f"converge wrote {len(rows)} rows, expected {expected_rows}"
    for row in rows:
        if not all(math.isfinite(float(x)) for x in row[2:5]):
            return f"converge row {row} is not finite"
    return None


def identical(got: str, want: str, what: str) -> str | None:
    if got != want:
        return f"{what} differs ({len(got)} vs {len(want)} characters)"
    return None
