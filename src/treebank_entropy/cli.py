"""Command-line driver.

Subcommands cover grammar induction, exact entropy/MLU/rate reports, SITE
estimation, sampling, dependency conversion, convergence sweeps, incremental
curves, per-file reports, and regression fitting.  Tabular output is
RFC-4180 CSV; exit codes are 0 on success, 2 on input errors, and 3 on
numerical errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import InputError, NumericalError, read_text

# The package modules, numpy with them, and json and csv are imported by
# the functions that use them, so a process loads only what its subcommand
# runs.
if TYPE_CHECKING:
    from .grammar import Pcfg
    from .trees import CountedCorpus, RuleTable


def _conversion_config(args):
    from .depconv import ConversionConfig

    return ConversionConfig(
        labeled=not args.unlabeled, use_pos=not args.use_form
    )


def _read_conllu(path, args, table: RuleTable) -> CountedCorpus:
    """The rule counts of a CoNLL-U file's converted trees, interned into
    `table`, built without graphs or trees."""
    from .depconv import counted_conllu

    corpus, skipped = counted_conllu(
        read_text(path), _conversion_config(args), table, str(path))
    if skipped:
        print(
            f"{path}: skipped {skipped} non-projective sentence(s)",
            file=sys.stderr,
        )
    return corpus


#: The reader options that each format leaves unread.
_UNREAD_BY_FORMAT = {
    "ptb": {"--unlabeled", "--use-form"},
    "conllu": {"--drop-label", "--strip-tags", "--no-preterminalize"},
}


def _reader_options(args) -> list[str]:
    """The reader options given."""
    given = {
        "--format": args.format, "--drop-label": args.drop_label,
        "--strip-tags": args.strip_tags, "--unlabeled": args.unlabeled,
        "--no-preterminalize": not args.preterminalize,
        "--use-form": args.use_form,
    }
    return [name for name, value in given.items() if value]


def _read_files(paths, args) -> list[CountedCorpus]:
    """Every file's rule counts, over one shared table: all that the
    treebank commands read.  A reader option that the format does not read
    is refused before any file is read; each file is read once the files
    before it are counted."""
    from .trees import DEFAULT_DROP_LABELS, RuleTable, counted_texts

    form = args.format or "ptb"
    unread = [o for o in _reader_options(args) if o in _UNREAD_BY_FORMAT[form]]
    if unread:
        raise InputError(f"--format {form} leaves input unread: {' '.join(unread)}")
    table = RuleTable()
    if form == "conllu":
        corpora = [_read_conllu(p, args, table) for p in paths]
    else:
        corpora = counted_texts(
            ((read_text(p), str(p)) for p in paths), table,
            frozenset(args.drop_label or DEFAULT_DROP_LABELS), args.strip_tags,
            args.preterminalize)
    if not any(len(c) for c in corpora):
        raise InputError("no sentences found in input")
    return corpora


def _merge(corpora) -> CountedCorpus:
    from .trees import merge

    return merge(corpora, ";".join(c.source_id for c in corpora))


def _load_grammar(args) -> Pcfg:
    from .grammar import induce, read_grammar

    if args.grammar:
        unread = args.files + _reader_options(args)
        if unread:
            raise InputError(f"--grammar leaves input unread: {' '.join(unread)}")
        return read_grammar(args.grammar)
    if not args.files:
        raise InputError("provide treebank files or --grammar")
    return induce(_merge(_read_files(args.files, args)))


@contextlib.contextmanager
def _out_handle(args):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _write_text(args, text: str):
    with _out_handle(args) as handle:
        handle.write(text)


def _write_json(args, payload):
    import json

    _write_text(args, json.dumps(payload, ensure_ascii=False) + "\n")


def _write_rows(args, header, rows, metadata=None):
    import csv

    with _out_handle(args) as handle:
        if metadata:
            handle.write(f"# {metadata}\r\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _print_scalar(args, payload: dict):
    if args.json:
        _write_json(args, payload)
    else:
        _write_text(args, "".join(f"{key}\t{value}\n" for key, value in payload.items()))


def _cmd_induce(args):
    from .grammar import dumps, induce

    g = induce(_merge(_read_files(args.files, args)))
    _write_text(args, dumps(g))


def _cmd_entropy(args):
    from .entropy import derivational_entropy

    g = _load_grammar(args)
    _print_scalar(args, {"entropy_bits": derivational_entropy(g)})


def _cmd_mlu(args):
    if args.grammar:
        from .entropy import grammar_mlu

        value = grammar_mlu(_load_grammar(args))
    else:
        from .trees import corpus_mlu

        value = corpus_mlu(_merge(_read_files(args.files, args)))
    _print_scalar(args, {"mlu": value})


def _cmd_rate(args):
    from .entropy import entropy_rate

    _print_scalar(args, entropy_rate(_load_grammar(args))._asdict())


def _cmd_site(args):
    from .estimators import site

    result = site(_merge(_read_files(args.files, args)), args.smoother)
    _print_scalar(args, {"entropy_bits": result.value, "method": result.method,
                         "sentences": result.sample_size})


def _cmd_sample(args):
    if args.count < 0:
        raise InputError(f"--count must not be negative, not {args.count}")
    if args.seed < 0:
        raise InputError(f"--seed must not be negative, not {args.seed}")
    import numpy as np

    from .grammar import read_grammar
    from .sampling import Sampler
    from .tree_objects import write_bracketed

    g = read_grammar(args.grammar)
    sampler = Sampler(g, max_nodes=args.max_nodes)
    rng = np.random.default_rng(args.seed)
    with _out_handle(args) as handle:
        for _ in range(args.count):
            tree = sampler.sample_tree(rng)
            if sampler.last_retries:
                print(f"draw retried {sampler.last_retries} time(s)", file=sys.stderr)
            handle.write(write_bracketed(tree) + "\n")


def _cmd_convert(args):
    from .conllu import graphs_to_corpus, read_conllu
    from .tree_objects import write_bracketed

    config = _conversion_config(args)
    total_skipped = 0
    with _out_handle(args) as handle:
        for path in args.files:
            corpus, skipped = graphs_to_corpus(
                read_conllu(path), config, source_id=str(path)
            )
            total_skipped += len(skipped)
            for idx, err in skipped:
                print(f"{path}: sentence {idx + 1}: {err}", file=sys.stderr)
            for tree in corpus.sentences:
                handle.write(write_bracketed(tree) + "\n")
    if total_skipped:
        print(f"skipped {total_skipped} non-projective sentence(s)", file=sys.stderr)


def _cmd_converge(args):
    from . import analysis

    corpus = _merge(_read_files(args.files, args))
    try:
        sizes = (analysis.DEFAULT_SIZES if args.sizes is None
                 else [int(s) for s in args.sizes.split(",")])
    except ValueError:
        raise InputError(
            f"--sizes takes comma-separated integers, not {args.sizes!r}"
        ) from None
    rows = analysis.converge(
        corpus,
        sizes=sizes,
        replications=args.replications,
        estimators=(analysis.DEFAULT_ESTIMATORS if args.estimators is None
                    else args.estimators.split(",")),
        seed=args.seed,
        coverage=not args.no_coverage,
    )
    _write_rows(
        args,
        ("sample_size", "estimator", "mean", "ci95_low", "ci95_high", "replications"),
        [
            (r.sample_size, r.estimator, repr(r.mean), repr(r.ci95_low),
             repr(r.ci95_high), r.replications)
            for r in rows
        ],
    )


def _cmd_incremental(args):
    from .analysis import incremental

    points = incremental(_read_files(args.files, args), order=args.order,
                         seed=args.seed, smoother=args.smoother)
    metadata = f"order={args.order}"
    if args.order == "shuffled":
        metadata += f" seed={args.seed} generator=pcg64"
    _write_rows(
        args,
        ("step", "label", "cumulative_sentences", "entropy_bits"),
        [(p.step, p.label, p.cumulative_sentences, repr(p.entropy)) for p in points],
        metadata=metadata,
    )


def _cmd_report(args):
    from .analysis import file_reports

    corpora = _read_files(args.files, args)
    reports = file_reports(corpora, smoother=args.smoother)
    if args.json:
        _write_json(args, [r._asdict() for r in reports])
        return
    _write_rows(
        args,
        ("file_id", "sentences", "mlu", "entropy_bits", "log_n"),
        [
            (r.file_id, r.sentences, repr(r.mlu), repr(r.entropy), repr(r.log_n))
            for r in reports
        ],
    )


def _column(rows, col, path) -> list[float]:
    values = []
    for row_no, row in enumerate(rows, start=2):  # row 1 is the header
        cell = row[col]
        try:
            value = float(cell)
        except (TypeError, ValueError):  # None marks a short row
            what = "is missing" if cell is None else f"{cell!r} is not a number"
            raise InputError(f"{path}: row {row_no}, column '{col}' {what}") from None
        if not math.isfinite(value):
            raise InputError(
                f"{path}: row {row_no}, column '{col}' {cell!r} is not finite"
            )
        values.append(value)
    return values


def _cmd_fit(args):
    import csv

    from .regression import fit

    rows = list(csv.DictReader(io.StringIO(read_text(args.csv), newline="")))
    if not rows:
        raise InputError(f"{args.csv} has no data rows")
    for col in (args.x, args.y):
        if col not in rows[0]:
            raise InputError(f"column '{col}' not found in {args.csv}")
    x = _column(rows, args.x, args.csv)
    y = _column(rows, args.y, args.csv)
    result = fit(x, y, with_intercept=not args.no_intercept)
    _write_json(args, result._asdict())


# Option groups, each added to a subcommand's parser by a function; a
# subcommand takes only the groups its _cmd_* reads, and a reader command
# names the format that reads each reader option.  The parser imports no
# package module, so the library's values that it shows are written out:
# the `SmootherKind` values, the sampler's DEFAULT_MAX_NODES and analysis's
# DEFAULT_ESTIMATORS.  Unset, --sizes and --estimators take analysis's
# defaults.
def _dependency(p, suffix=""):
    p.add_argument("--unlabeled", action="store_true",
                   help="omit relation nodes when converting dependencies" + suffix)
    p.add_argument("--use-form", action="store_true",
                   help="label dependency nodes by word form instead of POS" + suffix)


def _reader(p):
    _dependency(p, " (conllu only)")
    p.add_argument("--format", choices=("ptb", "conllu"),
                   help="treebank file format (default: ptb)")
    p.add_argument("--drop-label", action="append", default=None, metavar="LABEL",
                   help="pre-terminal labels to strip (default: -NONE-; ptb only)")
    p.add_argument("--strip-tags", action="store_true",
                   help="cut -/= function-tag suffixes from internal labels (ptb only)")
    p.add_argument("--no-preterminalize", dest="preterminalize", action="store_false",
                   help="keep word leaves instead of reducing to POS leaves (ptb only)")


def _output(p):
    p.add_argument("--output", "-o", help="write output to this file")


def _as_json(p):
    p.add_argument("--json", action="store_true", help="print JSON")


def _seed(p):
    p.add_argument("--seed", type=int, default=0, help="random seed")


def _smoother(p):
    p.add_argument("--smoother", choices=["ml", "cae", "cwj"], default="cwj",
                   help="local-entropy smoother for SITE (default: cwj)")


def _files(p):
    p.add_argument("files", nargs="+")


def _files_or_grammar(p):
    p.add_argument("files", nargs="*")
    p.add_argument("--grammar", help="serialized grammar file")


def _sample_args(p):
    p.add_argument("--grammar", required=True)
    p.add_argument("--count", "-n", type=int, default=1)
    p.add_argument("--max-nodes", type=int, default=10_000)


def _converge_args(p):
    _files(p)
    p.add_argument("--sizes", help="comma-separated sample sizes (default: 1 to 15000)")
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--estimators",
                   help="comma-separated ids (default: ml,mc,site-cae,site-cwj)")
    p.add_argument("--no-coverage", action="store_true", help="omit coverage rows")


def _incremental_args(p):
    _files(p)
    p.add_argument("--order", choices=("original", "shuffled"), default="original")


def _fit_args(p):
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--x", required=True, help="predictor column")
    p.add_argument("--y", required=True, help="response column")
    p.add_argument("--no-intercept", action="store_true")


#: Each subcommand's handler, help, and the functions that add its
#: arguments, in the order its help lists them.
_COMMANDS = {
    "induce": (_cmd_induce, "induce a grammar and print it", _reader, _output, _files),
    "entropy": (_cmd_entropy, "exact derivational entropy of a grammar",
                _reader, _output, _as_json, _files_or_grammar),
    "rate": (_cmd_rate, "entropy, MLU, and entropy rate of a grammar",
             _reader, _output, _as_json, _files_or_grammar),
    "mlu": (_cmd_mlu, "mean length of utterances",
            _reader, _output, _as_json, _files_or_grammar),
    "site": (_cmd_site, "smoothed treebank entropy",
             _reader, _output, _as_json, _smoother, _files),
    "sample": (_cmd_sample, "sample trees from a grammar", _output, _seed, _sample_args),
    "convert": (_cmd_convert, "dependency graphs to trees", _dependency, _output, _files),
    "converge": (_cmd_converge, "estimator convergence sweep",
                 _reader, _output, _seed, _converge_args),
    "incremental": (_cmd_incremental, "cumulative entropy curve",
                    _reader, _output, _seed, _smoother, _incremental_args),
    "report": (_cmd_report, "per-file MLU and entropy",
               _reader, _output, _as_json, _smoother, _files),
    "fit": (_cmd_fit, "least-squares fit on CSV columns", _output, _fit_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand's parser, or with `command` only that one's
    arguments: every name and help is registered, so `command`'s lines
    parse, and fail, as with the whole parser."""
    parser = argparse.ArgumentParser(
        prog="treebank-entropy",
        description="Grammar induction and derivational-entropy analysis of treebanks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, helptext, *adders) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if command in (None, name):
            p.set_defaults(func=func)
            for add in adders:
                add(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top level takes no option with a value: its first word names the command.
    args = build_parser(next((a for a in argv if a[:1] != "-"), "")).parse_args(argv)
    try:
        args.func(args)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    return 0


def run() -> NoReturn:
    """Process entry: `main()` with the cyclic collector off, then the
    process ends after flushing, without interpreter finalization.

    The commands make no reference cycles that grow with their input, and
    nothing is left open or registered with `atexit` once `main()` returns.
    argparse's exits (`--help`, usage errors) take the same flush with their
    own code; an unflushable stdout is an input error (exit 2).  Any other
    exception that escapes `main()` takes the normal exit.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as stop:  # argparse's, with an int or None
        code = stop.code or 0
    try:
        sys.stdout.flush()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        code = code or 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
