#!/usr/bin/env python3
"""Benchmark for the treebank-entropy command line, end to end and by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload treebank_files --seed 1 --seconds 36 --trace 0

Each run writes seeded synthetic inputs (``bench/inputs.py``, outside the
timed region), then measures one workload:

``--trace 0``
    The real CLI (``python -m treebank_entropy.cli``) runs as child
    processes, one after another: a closed loop with a single client.  The
    workload's commands run as a pass, and passes repeat until the next one
    would overrun ``--seconds``.  Wall time comes from ``perf_counter`` and
    peak memory from the ``os.wait4`` rusage of each child.

    A fixed reference job (``REFERENCE``: nothing from this repository)
    runs in a child process before the first command of a pass and after
    every command.  On a shared machine the speed of the CPU drifts by a
    fifth or more within a minute, which moves every wall time together.
    ``workload_ref`` is the sum over the commands of the median of each
    command's wall time divided by the mean of the two reference times
    around it, which cancels most of that drift; a
    change that makes the program 10% slower raises it by 10%.  The raw
    seconds (``workload_s``, the sum of the per-command medians) are printed
    and saved as well.  ``setup_s`` is the median, over several fresh
    processes, of the time from process start until
    ``import treebank_entropy.cli`` has finished.
``--trace 1``
    The same commands run in this process through ``cli.main``, once
    untraced and once with spans around the package's public functions
    (``bench/spans.py``).  Per-layer self times and counts are reported,
    together with the tracing overhead (traced total minus untraced total).
    This mode does a fixed amount of work and ignores ``--seconds``.

Every CLI output is checked (``bench/checks.py``); a run that exits non-zero,
writes a traceback or fails a check counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, per-command medians
and the per-layer detail.  Full results (and, when tracing, all spans) are
written to ``.bench_out/`` in the checkout.

BLAS and OpenMP thread pools are pinned to ``BLAS_THREADS`` for this process
and for every child.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS and OpenMP pools get one thread.  With a thread per core on a shared
#: 2-core machine, one dense eigvals call (n = 2080) took 3.5-4.0 s from run to
#: run; with one thread it took 4.82-4.83 s.
BLAS_THREADS = 1
if __name__ == "__main__":  # this process's pools are sized when numpy loads
    os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Wall-clock budget of one benchmark run; children are killed past it.
DEADLINE_S = 170.0
SETUP_REPEATS = 3

ESTIMATORS = "ml,mc,site-cae,site-cwj"
CONLLU_FLAGS = ("--format", "conllu", "--use-form", "--unlabeled")

#: Input sizes per workload; the smoke sizes exist for the benchmark's tests.
SIZES = {
    "treebank_files": {"tokens": 28000, "files": 20},
    "sweep": {
        "tokens": 12000,
        "sizes": "1,2,3,5,7,11,17,25,37,55,82,122,1000",
        "replications": 2,
    },
    "wide_grammar": {"sentences": 1600, "vocab": 800},
}
SMOKE_SIZES = {
    "treebank_files": {"tokens": 600, "files": 3},
    "sweep": {"tokens": 400, "sizes": "1,3,20", "replications": 2},
    "wide_grammar": {"sentences": 40, "vocab": 60},
}

WHY = {
    "treebank_files": "trees and grammar.induce do nearly all the work on a "
    "50-non-terminal grammar read from 20 PTB files",
    "sweep": "the only workload that samples (Sampler, Monte-Carlo "
    "cross-entropy) and runs induce and the solve on many tiny grammars",
    "wide_grammar": "CoNLL-U read with --use-form: the dense entropy solve on "
    "a grammar with about 800 non-terminals dominates",
}

#: The layer each workload exists to stress: its share of one command's
#: end-to-end time is printed by the traced run.
FOCUS = {
    "treebank_files": ("site", ("trees.", "grammar.induce")),
    "sweep": ("converge", ("grammar.sample",)),
    "wide_grammar": ("rate", ("entropy.",)),
}

END_TO_END = (
    ("setup_s", "s"),
    ("workload_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

#: The reference job: independent of this repository, so no change to the
#: program moves it.  Like the CLI it starts Python, imports numpy and scipy,
#: makes many scalar numpy calls and builds and counts tuples parsed from
#: text.  It takes about 1 s on a 2-core Xeon.
REFERENCE = """
import numpy, scipy.special
rng = numpy.random.default_rng(0)
cum = numpy.linspace(0.1, 1.0, 10)
picks = [int(numpy.searchsorted(cum, rng.random(), side="right")) for _ in range(40000)]
text = " ".join("(N%d w%d)" % (i % 50, (i * 7919) % 1000) for i in range(60000))
counts = {}
stack = []
for tok in text.replace("(", " ( ").replace(")", " ) ").split():
    if tok == "(":
        stack.append([])
    elif tok == ")":
        node = tuple(stack.pop())
        counts[node] = counts.get(node, 0) + 1
    elif stack:
        stack[-1].append(tok)
"""


@dataclass
class Command:
    name: str
    args: list[str]
    role: str = "timed"  # "setup" runs first, "check" runs once at the end
    env: dict[str, str] = field(default_factory=dict)
    traced: bool = True


@dataclass
class Plan:
    commands: list[Command]
    input_files: list[Path]
    checks: list  # (subject command, callable(outputs) -> message or None)


def _plan_treebank_files(work: Path, seed: int, p: dict) -> Plan:
    files = inputs.write_treebank(work, seed, p["tokens"], p["files"])
    paths = [str(f.path) for f in files]
    sentences = sum(f.sentences for f in files)
    tokens = sum(f.tokens for f in files)
    per_file = [(str(f.path), f.sentences, f.tokens) for f in files]
    commands = [
        Command("site", ["site", *paths]),
        Command("rate", ["rate", *paths]),
        Command("report", ["report", *paths]),
        Command("incremental", ["incremental", "--order", "shuffled",
                                "--seed", str(seed), *paths]),
        Command("site_ml", ["site", "--smoother", "ml", *paths], role="check"),
    ]
    plan_checks = [
        ("site", lambda o: checks.site_sentences(o["site"], sentences)),
        ("rate", lambda o: checks.rate_consistent(o["rate"])),
        ("rate", lambda o: checks.mlu_matches(o["rate"], tokens, sentences)),
        ("report", lambda o: checks.report_counts(o["report"], per_file)),
        ("incremental", lambda o: checks.incremental_endpoint(o["incremental"], o["site"])),
        ("site_ml", lambda o: checks.site_ml_equals_entropy(o["site_ml"], o["rate"])),
    ]
    return Plan(commands, [f.path for f in files], plan_checks)


def _plan_sweep(work: Path, seed: int, p: dict) -> Plan:
    # The source file is a workload constant and the seed goes to converge:
    # the grammar induced from a seeded source would vary in spectral radius
    # from seed to seed, and the size of the trees sampled from it with it.
    (source,) = inputs.write_treebank(
        work, inputs.SCAFFOLD_SEED, p["tokens"], 1, prefix="sweep")
    args = ["converge", "--sizes", p["sizes"], "--replications", str(p["replications"]),
            "--estimators", ESTIMATORS, "--seed", str(seed), str(source.path)]
    rows = len(p["sizes"].split(",")) * (len(ESTIMATORS.split(",")) + 2)
    commands = [
        Command("converge", args, env={"SITE_THREADS": "1"}),
        Command("converge_par", args, env={"SITE_THREADS": str(NPROC)}, traced=False),
    ]
    plan_checks = [
        ("converge", lambda o: checks.converge_rows(o["converge"], rows)),
        ("converge_par", lambda o: checks.identical(
            o["converge_par"], o["converge"], "converge CSV across SITE_THREADS")),
    ]
    return Plan(commands, [source.path], plan_checks)


def _plan_wide_grammar(work: Path, seed: int, p: dict) -> Plan:
    bank = inputs.write_conllu(work / "wide.conllu", seed, p["sentences"], p["vocab"])
    grammar = str(work / "wide.grammar")
    path = str(bank.path)
    commands = [
        Command("induce", ["induce", *CONLLU_FLAGS, "-o", grammar, path], role="setup"),
        Command("rate", ["rate", *CONLLU_FLAGS, path]),
        Command("site", ["site", *CONLLU_FLAGS, path]),
        Command("rate_grammar", ["rate", "--grammar", grammar]),
    ]
    plan_checks = [
        ("rate", lambda o: checks.rate_consistent(o["rate"])),
        ("rate", lambda o: checks.mlu_matches(o["rate"], bank.tokens, bank.sentences)),
        ("site", lambda o: checks.site_sentences(o["site"], bank.sentences)),
        ("rate_grammar", lambda o: checks.identical(
            o["rate_grammar"], o["rate"], "rate --grammar output")),
    ]
    return Plan(commands, [bank.path], plan_checks)


PLANS = {
    "treebank_files": _plan_treebank_files,
    "sweep": _plan_sweep,
    "wide_grammar": _plan_wide_grammar,
}


def _count_trees(tracer, trees, args):
    tracer.counts["trees.sentences"] += len(trees)
    tracer.counts["trees.nodes"] += sum(t.node_count() for t in trees)


def _count_grammar(tracer, grammar, args):
    tracer.note_max("grammar.rules", len(grammar.rules))
    tracer.note_max("grammar.nonterminals", len(grammar.nonterminals))


def _count_sample(tracer, tree, args):
    tracer.counts["grammar.sampled_nodes"] += tree.node_count()
    tracer.counts["grammar.sample_retries"] += args[0].last_retries


def _count_matrix(tracer, matrix, args):
    tracer.note_max("entropy.matrix_n", matrix.shape[0])
    nnz = getattr(matrix, "nnz", None)  # a sparse matrix knows its own
    tracer.note_max("entropy.matrix_nnz", nnz if nnz is not None else
                    int(np.count_nonzero(matrix)))


def _count_skipped(tracer, result, args):
    tracer.counts["depconv.skipped"] += len(result[1])


#: (span name, module, attribute, counter run after each call)
TARGETS = (
    ("trees.read_bracketed", "treebank_entropy.trees", "read_bracketed", None),
    ("trees.parse_bracketed", "treebank_entropy.trees", "parse_bracketed", _count_trees),
    ("trees.strip_subtrees", "treebank_entropy.trees", "strip_subtrees", None),
    ("trees.preterminalize", "treebank_entropy.trees", "preterminalize_corpus", None),
    ("trees.corpus_mlu", "treebank_entropy.trees", "corpus_mlu", None),
    ("conllu.parse_conllu", "treebank_entropy.conllu", "parse_conllu", None),
    ("depconv.graphs_to_corpus", "treebank_entropy.depconv", "graphs_to_corpus",
     _count_skipped),
    ("grammar.induce", "treebank_entropy.grammar", "induce", _count_grammar),
    ("grammar.sample", "treebank_entropy.grammar", "Sampler.sample", _count_sample),
    ("grammar.loads", "treebank_entropy.grammar", "loads", _count_grammar),
    ("grammar.dumps", "treebank_entropy.grammar", "dumps", None),
    ("estimators.monte_carlo_cross_entropy", "treebank_entropy.estimators",
     "monte_carlo_cross_entropy", None),
    ("estimators.smoothed_local_entropies", "treebank_entropy.estimators",
     "smoothed_local_entropies", None),
    ("estimators.site", "treebank_entropy.estimators", "site", None),
    ("entropy.characteristic_matrix", "treebank_entropy.entropy",
     "characteristic_matrix", _count_matrix),
    ("entropy.solve_system", "treebank_entropy.entropy", "solve_system", None),
    ("entropy.entropy_rate", "treebank_entropy.entropy", "entropy_rate", None),
    ("analysis.converge", "treebank_entropy.analysis", "converge", None),
    ("analysis.incremental", "treebank_entropy.analysis", "incremental", None),
    ("analysis.file_reports", "treebank_entropy.analysis", "file_reports", None),
)

#: Per-layer metrics: (name, unit, how the value is obtained).  Times are
#: span self times summed over the traced pass.
PER_LAYER = (
    ("cli.import_s", "s", "measured"),
    ("cli.main_s", "s", "measured"),
    *((f"{name}_s", "s", "measured") for name, *_ in TARGETS),
    ("trees.sentences", "count", "counted"),
    ("trees.nodes", "count", "counted"),
    ("depconv.skipped", "count", "counted"),
    ("grammar.induce_calls", "count", "counted"),
    ("grammar.rules", "count", "counted"),
    ("grammar.nonterminals", "count", "counted"),
    ("grammar.sampled_trees", "count", "counted"),
    ("grammar.sampled_nodes", "count", "counted"),
    ("grammar.sample_retries", "count", "counted"),
    ("entropy.solve_calls", "count", "counted"),
    ("entropy.matrix_n", "count", "counted"),
    ("entropy.matrix_nnz", "count", "counted"),
    ("entropy.dense_bytes", "bytes", "computed"),
    ("entropy.eigvals_ops", "ops", "computed"),
    ("trace.traced_s", "s", "measured"),
    ("trace.untraced_s", "s", "measured"),
    ("trace.overhead_s", "s", "measured"),
)


@dataclass
class Run:
    command: Command
    pass_no: int | None  # None for setup and check commands
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    reference: float = 0.0  # mean wall time of the reference jobs around it
    failures: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
        self.setup_repeats = 1 if smoke else SETUP_REPEATS
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        self.env["PYTHONHASHSEED"] = "0"
        self.env.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
        self.runs: list[Run] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    # -- child processes ---------------------------------------------------

    def _child(self, argv, extra_env, work: Path):
        """Run one child; return (wall, peak RSS in MB, exit code, out, err)."""
        env = {**self.env, "SITE_THREADS": "1", **extra_env}
        with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text = out.read().decode("utf-8", "replace")
            errors = err.read().decode("utf-8", "replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, text, errors

    def run_cli(self, command: Command, pass_no, work: Path) -> Run:
        argv = [sys.executable, "-m", "treebank_entropy.cli", *command.args]
        wall, rss, code, out, err = self._child(argv, command.env, work)
        run = Run(command, pass_no, wall, rss, code, out, err)
        self.runs.append(run)
        return run

    def reference(self, work: Path) -> float:
        wall, _, code, _, err = self._child([sys.executable, "-c", REFERENCE], {}, work)
        if code != 0:
            raise SystemExit(f"the reference job failed:\n{err}")
        return wall

    def import_times(self, work: Path, snippet: str) -> list[float]:
        """Child processes that import the CLI; `snippet` prints a time or
        nothing (then the child's wall time is used)."""
        samples = []
        for _ in range(self.setup_repeats):
            wall, _, code, out, err = self._child(
                [sys.executable, "-c", snippet], {}, work)
            if code != 0:
                raise SystemExit(f"cannot import treebank_entropy.cli:\n{err}")
            samples.append(float(out) if out.strip() else wall)
        return samples

    # -- checks ------------------------------------------------------------

    def judge(self, plan: Plan) -> None:
        """Mark failed runs: non-zero exit, traceback, or a failed check."""
        once = {r.command.name: r for r in self.runs if r.pass_no is None}
        passes = sorted({r.pass_no for r in self.runs if r.pass_no is not None})
        for run in self.runs:
            if run.code != 0:
                run.failures.append(f"exit code {run.code}: {run.stderr.strip()[-300:]}")
            message = checks.no_traceback(run.stderr)
            if message:
                run.failures.append(message)
        for pass_no in passes:
            current = dict(once)
            current.update(
                (r.command.name, r) for r in self.runs if r.pass_no == pass_no)
            outputs = {name: r.stdout for name, r in current.items()}
            for subject, check in plan.checks:
                try:
                    message = check(outputs)
                except (KeyError, ValueError, IndexError, ZeroDivisionError) as err:
                    message = f"unreadable output ({type(err).__name__}: {err})"
                if message and subject in current:
                    failures = current[subject].failures
                    if message not in failures:
                        failures.append(message)

    # -- the two modes -----------------------------------------------------

    def measure(self, plan: Plan, work: Path) -> dict:
        setup = self.import_times(work, "import treebank_entropy.cli")
        for command in plan.commands:
            if command.role == "setup":
                self.run_cli(command, None, work)
        timed = [c for c in plan.commands if c.role == "timed"]
        loop_start = time.perf_counter()
        pass_walls = []
        while True:
            pass_start = time.perf_counter()
            before = self.reference(work)
            for command in timed:
                run = self.run_cli(command, len(pass_walls), work)
                after = self.reference(work)
                run.reference = (before + after) / 2
                before = after
            pass_walls.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - loop_start
            longest = max(pass_walls)
            if elapsed + longest > self.seconds or self.remaining() < 3 * longest:
                break
        for command in plan.commands:
            if command.role == "check":
                self.run_cli(command, None, work)
        per_command = {}
        per_command_ref = {}
        for command in timed:
            runs = [r for r in self.runs if r.command is command]
            per_command[command.name + "_s"] = [r.wall for r in runs]
            per_command_ref[command.name + "_ref"] = [r.wall / r.reference for r in runs]
        workload_s = sum(statistics.median(w) for w in per_command.values())
        metrics = {
            "setup_s": statistics.median(setup),
            "workload_ref": sum(statistics.median(x) for x in per_command_ref.values()),
            "peak_rss_mb": max(r.rss_mb for r in self.runs),
        }
        rss: dict[str, float] = {}
        for r in self.runs:
            rss[r.command.name] = max(rss.get(r.command.name, 0.0), r.rss_mb)
        detail = {
            "setup_s_samples": setup,
            "workload_s": workload_s,
            "reference_s": [r.reference for r in self.runs if r.reference],
            "passes": pass_walls,
            "commands_s": per_command,
            "commands_ref": per_command_ref,
            "peak_rss_mb_by_command": rss,
        }
        return {"metrics": metrics, "detail": detail}

    def trace(self, plan: Plan, work: Path) -> dict:
        import_s = statistics.median(self.import_times(
            work,
            "import time; t = time.perf_counter(); import treebank_entropy.cli; "
            "print(time.perf_counter() - t)",
        ))
        sys.path.insert(0, str(SRC))
        from treebank_entropy import cli

        commands = [c for c in plan.commands if c.traced]
        untraced = sum(self._in_process(cli, c, 0) for c in commands)
        tracer = spans.Tracer()
        tracer.install(TARGETS)
        try:
            traced = 0.0
            for command in commands:
                with tracer.span("cli." + command.name):
                    traced += self._in_process(cli, command, 1)
        finally:
            tracer.uninstall()
        return self._layers(tracer, import_s, untraced, traced)

    def _in_process(self, cli, command: Command, pass_no: int) -> float:
        saved = {k: os.environ.get(k) for k in ("SITE_THREADS", *command.env)}
        os.environ.update({"SITE_THREADS": "1", **command.env})
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command.args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program crashed: record it, keep measuring
            err.write(traceback.format_exc())
            code = 1
        wall = time.perf_counter() - start
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        self.runs.append(Run(command, pass_no, wall, 0.0, code,
                             out.getvalue(), err.getvalue()))
        return wall

    def _layers(self, tracer, import_s, untraced, traced) -> dict:
        records = tracer.spans
        selfs = spans.self_times(records)
        tops = spans.roots(records)
        by_name: dict[str, float] = {}
        for record, own in zip(records, selfs):
            by_name[record[0]] = by_name.get(record[0], 0.0) + own
        counts = tracer.counts
        n = tracer.maxima.get("entropy.matrix_n", 0)
        values = {
            "cli.import_s": import_s,
            "cli.main_s": sum(v for k, v in by_name.items() if k.startswith("cli.")),
            **{f"{name}_s": by_name.get(name, 0.0) for name, *_ in TARGETS},
            "trees.sentences": counts["trees.sentences"],
            "trees.nodes": counts["trees.nodes"],
            "depconv.skipped": counts["depconv.skipped"],
            "grammar.induce_calls": counts["grammar.induce_calls"],
            "grammar.rules": tracer.maxima.get("grammar.rules", 0),
            "grammar.nonterminals": tracer.maxima.get("grammar.nonterminals", 0),
            "grammar.sampled_trees": counts["grammar.sample_calls"],
            "grammar.sampled_nodes": counts["grammar.sampled_nodes"],
            "grammar.sample_retries": counts["grammar.sample_retries"],
            "entropy.solve_calls": counts["entropy.solve_system_calls"],
            "entropy.matrix_n": n,
            "entropy.matrix_nnz": tracer.maxima.get("entropy.matrix_nnz", 0),
            "entropy.dense_bytes": 8 * n * n,
            "entropy.eigvals_ops": 10 * n ** 3,
            "trace.traced_s": traced,
            "trace.untraced_s": untraced,
            "trace.overhead_s": traced - untraced,
        }
        command, prefixes = FOCUS[self.workload]
        root = next((r for r in records if r[0] == "cli." + command), None)
        share = None
        if root is not None:
            inside = sum(
                own for record, own, top in zip(records, selfs, tops)
                if top is root and record[0].startswith(prefixes)
            )
            share = (inside / (root[2] - root[1]),
                     inside / (root[2] - root[1] + import_s))
        detail = {
            "absent": tracer.absent,
            "counter_errors": tracer.errors,
            "focus": {"command": command, "layers": prefixes,
                      "share_of_run": share and share[0],
                      "share_with_import": share and share[1]},
            "spans": len(records),
        }
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{self.workload}-seed{self.seed}-spans.json"
        spans_path.write_text(json.dumps(spans.serializable(records)))
        return {"metrics": values, "detail": detail}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(input_files) -> dict:
    return {
        "cores": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "inputs_sha256": inputs.digest(input_files),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "treebank_entropy" / "cli.py").is_file():
        print(f"error: no treebank_entropy sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        work = Path(tmp)
        plan = PLANS[args.workload](work / "inputs", args.seed, bench.sizes)
        env = environment(plan.input_files)
        result = (bench.trace if args.trace else bench.measure)(plan, work)
    bench.judge(plan)

    failed = sum(1 for r in bench.runs if r.failures)
    attempted = len(bench.runs)
    units = {name: unit for name, unit in END_TO_END}
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "sizes": bench.sizes,
        "env": env, "metrics": metrics, "detail": result["detail"],
        "failed_ops": failed / attempted,
        "failures": [
            {"command": r.command.name, "pass": r.pass_no, "messages": r.failures}
            for r in bench.runs if r.failures
        ],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    if args.trace:
        how = {name: kind for name, _, kind in PER_LAYER}
        for key, metric in metrics.items():
            print(f"layer {key} = {metric['value']:.6g} {metric['unit']} ({how[key]})")
        focus = result["detail"]["focus"]
        if focus["share_of_run"] is not None:
            print(f"focus {'+'.join(focus['layers'])}: "
                  f"{100 * focus['share_of_run']:.1f}% of {focus['command']} after import, "
                  f"{100 * focus['share_with_import']:.1f}% with the import")
        print("absent " + json.dumps(result["detail"]["absent"]))
        print("counter_errors " + json.dumps(result["detail"]["counter_errors"]))
    else:
        detail = result["detail"]
        for (key, walls), ratios in zip(detail["commands_s"].items(),
                                        detail["commands_ref"].values()):
            print(f"command {key} = {statistics.median(walls):.4f} s, "
                  f"{statistics.median(ratios):.4f} ref (median of {len(walls)})")
        print(f"workload_s = {detail['workload_s']:.4f} s (sum of the medians)")
        print(f"reference_s = {statistics.median(detail['reference_s']):.4f} s "
              f"(median of {len(detail['reference_s'])})")
    print(f"failed_ops = {failed}/{attempted}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure['command']} pass {failure['pass']}: "
              f"{'; '.join(failure['messages'])}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
