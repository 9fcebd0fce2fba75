"""Command-line driver.

Subcommands cover grammar induction, exact entropy/MLU/rate reports, SITE
estimation, sampling, dependency conversion, convergence sweeps, incremental
curves, per-file reports, and regression fitting.  Tabular output is
RFC-4180 CSV; exit codes are 0 on success, 2 on input errors, and 3 on
numerical errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import analysis, depconv, estimators, grammar as gr
from .conllu import read_conllu
from .entropy import derivational_entropy, entropy_rate, grammar_mlu
from .errors import InputError, NumericalError
from .estimators import SmootherKind
from .trees import (
    DEFAULT_DROP_LABELS,
    Corpus,
    corpus_mlu,
    read_bracketed,
    write_bracketed,
)


def _add_reader_options(parser):
    parser.add_argument(
        "--format", choices=("ptb", "conllu"), default="ptb",
        help="treebank file format (default: ptb)",
    )
    parser.add_argument(
        "--drop-label", action="append", default=None, metavar="LABEL",
        help="pre-terminal labels to strip (default: -NONE-)",
    )
    parser.add_argument(
        "--strip-tags", action="store_true",
        help="cut -/= function-tag suffixes from internal labels",
    )
    parser.add_argument(
        "--no-preterminalize", dest="preterminalize", action="store_false",
        help="keep word leaves instead of reducing to POS leaves (ptb only)",
    )
    parser.add_argument(
        "--unlabeled", action="store_true",
        help="omit relation nodes when converting dependencies",
    )
    parser.add_argument(
        "--use-form", action="store_true",
        help="label dependency nodes by word form instead of POS",
    )


def _conversion_config(args):
    return depconv.ConversionConfig(
        labeled=not args.unlabeled, use_pos=not args.use_form
    )


def _read_file(path, args) -> Corpus:
    if args.format == "conllu":
        graphs = read_conllu(path)
        corpus, skipped = depconv.graphs_to_corpus(
            graphs, _conversion_config(args), source_id=str(path)
        )
        if skipped:
            print(
                f"{path}: skipped {len(skipped)} non-projective sentence(s)",
                file=sys.stderr,
            )
        return corpus
    drop = frozenset(args.drop_label) if args.drop_label else DEFAULT_DROP_LABELS
    return read_bracketed(
        path, drop_labels=drop, strip_tags=args.strip_tags,
        preterminalize=args.preterminalize,
    )


def _read_files(paths, args) -> list[Corpus]:
    corpora = [_read_file(p, args) for p in paths]
    if not any(c.sentences for c in corpora):
        raise InputError("no sentences found in input")
    return corpora


def _merge(corpora) -> Corpus:
    sentences = [t for c in corpora for t in c.sentences]
    return Corpus(sentences, source_id=";".join(c.source_id for c in corpora))


def _load_grammar(args) -> gr.Pcfg:
    if getattr(args, "grammar", None):
        return gr.read_grammar(args.grammar)
    if not args.files:
        raise InputError("provide treebank files or --grammar")
    return gr.induce(_merge(_read_files(args.files, args)))


def _out_handle(args):
    if getattr(args, "output", None):
        return open(args.output, "w", encoding="utf-8", newline="")
    return sys.stdout


def _write_rows(args, header, rows, metadata=None):
    handle = _out_handle(args)
    try:
        if metadata:
            handle.write(f"# {metadata}\r\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if handle is not sys.stdout:
            handle.close()


def _print_scalar(args, payload: dict):
    if getattr(args, "json", False):
        text = json.dumps(payload, ensure_ascii=False) + "\n"
    else:
        text = "".join(f"{key}\t{value}\n" for key, value in payload.items())
    handle = _out_handle(args)
    try:
        handle.write(text)
    finally:
        if handle is not sys.stdout:
            handle.close()


def _cmd_induce(args):
    g = gr.induce(_merge(_read_files(args.files, args)))
    text = gr.dumps(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_entropy(args):
    g = _load_grammar(args)
    _print_scalar(args, {"entropy_bits": derivational_entropy(g)})


def _cmd_mlu(args):
    if args.grammar:
        value = grammar_mlu(gr.read_grammar(args.grammar))
    else:
        value = corpus_mlu(_merge(_read_files(args.files, args)))
    _print_scalar(args, {"mlu": value})


def _cmd_rate(args):
    report = entropy_rate(_load_grammar(args))
    _print_scalar(args, dataclasses.asdict(report))


def _cmd_site(args):
    corpus = _merge(_read_files(args.files, args))
    result = estimators.site(corpus, SmootherKind(args.smoother))
    _print_scalar(
        args,
        {
            "entropy_bits": result.value,
            "method": result.method,
            "sentences": result.sample_size,
        },
    )


def _cmd_sample(args):
    g = gr.read_grammar(args.grammar)
    sampler = gr.Sampler(g, max_nodes=args.max_nodes)
    rng = np.random.default_rng(args.seed)
    handle = _out_handle(args)
    try:
        for _ in range(args.count):
            tree = sampler.sample(rng)
            if sampler.last_retries:
                print(
                    f"draw retried {sampler.last_retries} time(s)",
                    file=sys.stderr,
                )
            handle.write(write_bracketed(tree) + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()


def _cmd_convert(args):
    config = _conversion_config(args)
    handle = _out_handle(args)
    total_skipped = 0
    try:
        for path in args.files:
            corpus, skipped = depconv.graphs_to_corpus(
                read_conllu(path), config, source_id=str(path)
            )
            total_skipped += len(skipped)
            for idx, err in skipped:
                print(f"{path}: sentence {idx + 1}: {err}", file=sys.stderr)
            for tree in corpus.sentences:
                handle.write(write_bracketed(tree) + "\n")
    finally:
        if handle is not sys.stdout:
            handle.close()
    if total_skipped:
        print(f"skipped {total_skipped} non-projective sentence(s)", file=sys.stderr)


def _cmd_converge(args):
    corpus = _merge(_read_files(args.files, args))
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else analysis.DEFAULT_SIZES
    ests = tuple(args.estimators.split(",")) if args.estimators else analysis.DEFAULT_ESTIMATORS
    rows = analysis.converge(
        corpus,
        sizes=sizes,
        replications=args.replications,
        estimators=ests,
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
    corpora = _read_files(args.files, args)
    points = analysis.incremental(
        corpora, order=args.order, seed=args.seed,
        smoother=SmootherKind(args.smoother),
    )
    metadata = f"order={args.order}"
    if args.order == "shuffled":
        metadata += f" seed={args.seed} generator=pcg64"
    _write_rows(
        args,
        ("step", "label", "cumulative_sentences", "entropy_bits"),
        [
            (p.step, p.label, p.cumulative_sentences, repr(p.entropy))
            for p in points
        ],
        metadata=metadata,
    )


def _cmd_report(args):
    corpora = _read_files(args.files, args)
    reports = analysis.file_reports(corpora, smoother=SmootherKind(args.smoother))
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in reports], ensure_ascii=False))
        return
    _write_rows(
        args,
        ("file_id", "sentences", "mlu", "entropy_bits", "log_n"),
        [
            (r.file_id, r.sentences, repr(r.mlu), repr(r.entropy), repr(r.log_n))
            for r in reports
        ],
    )


def _cmd_fit(args):
    with open(args.csv, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if not rows:
        raise InputError(f"{args.csv} has no data rows")
    for col in (args.x, args.y):
        if col not in rows[0]:
            raise InputError(f"column '{col}' not found in {args.csv}")
    x = [float(r[args.x]) for r in rows]
    y = [float(r[args.y]) for r in rows]
    result = analysis.fit(x, y, with_intercept=not args.no_intercept)
    print(json.dumps(dataclasses.asdict(result), ensure_ascii=False))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebank-entropy",
        description="Grammar induction and derivational-entropy analysis of treebanks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--smoother", choices=[k.value for k in SmootherKind], default="cwj",
        help="local-entropy smoother for SITE (default: cwj)",
    )
    common.add_argument("--output", "-o", help="write output to this file")
    common.add_argument("--json", action="store_true", help="JSON output where supported")
    _add_reader_options(common)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", parents=[common], help="induce a grammar and print it")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_induce)

    for name, func, helptext in (
        ("entropy", _cmd_entropy, "exact derivational entropy of a grammar"),
        ("rate", _cmd_rate, "entropy, MLU, and entropy rate of a grammar"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("files", nargs="*")
        p.add_argument("--grammar", help="serialized grammar file")
        p.set_defaults(func=func)

    p = sub.add_parser("mlu", parents=[common], help="mean length of utterances")
    p.add_argument("files", nargs="*")
    p.add_argument("--grammar", help="serialized grammar file")
    p.set_defaults(func=_cmd_mlu)

    p = sub.add_parser("site", parents=[common], help="smoothed treebank entropy")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_site)

    p = sub.add_parser("sample", parents=[common], help="sample trees from a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--count", "-n", type=int, default=1)
    p.add_argument("--max-nodes", type=int, default=gr.DEFAULT_MAX_NODES)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("convert", parents=[common], help="dependency graphs to trees")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("converge", parents=[common], help="estimator convergence sweep")
    p.add_argument("files", nargs="+")
    p.add_argument("--sizes", help="comma-separated sample sizes")
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--estimators", help="comma-separated ids (ml,mc,site-cae,site-cwj)")
    p.add_argument("--no-coverage", action="store_true", help="omit coverage rows")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("incremental", parents=[common], help="cumulative entropy curve")
    p.add_argument("files", nargs="+")
    p.add_argument("--order", choices=("original", "shuffled"), default="original")
    p.set_defaults(func=_cmd_incremental)

    p = sub.add_parser("report", parents=[common], help="per-file MLU and entropy")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fit", parents=[common], help="least-squares fit on CSV columns")
    p.add_argument("csv", help="CSV file with a header row")
    p.add_argument("--x", required=True, help="predictor column")
    p.add_argument("--y", required=True, help="response column")
    p.add_argument("--no-intercept", action="store_true")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
