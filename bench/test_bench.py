"""Tests for the benchmark itself: seeded inputs, output checks, spans, and
a tiny smoke run of every workload.

Run with the package sources on the path, e.g.
``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _tree_digest(directory: Path) -> str:
    return inputs.digest(sorted(p for p in directory.rglob("*") if p.is_file()))


def _write_all(directory: Path, seed: int) -> None:
    inputs.write_treebank(directory / "tb", seed, tokens=300, files=3)
    inputs.write_conllu(directory / "bank.conllu", seed, sentences=20, vocab=40)


def test_same_seed_gives_identical_inputs(tmp_path):
    for name in ("a", "b"):
        _write_all(tmp_path / name, seed=5)
    _write_all(tmp_path / "c", seed=6)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


def test_inputs_have_traces_and_projective_arcs(tmp_path):
    files = inputs.write_treebank(tmp_path, seed=2, tokens=2000, files=4)
    for f, budget in zip(files, inputs.file_sizes(2000, 4)):
        assert budget <= f.tokens < budget + inputs.MAX_NODES
    text = "".join(f.path.read_text() for f in files)
    assert "(-NONE- *T*-1)" in text and "-SBJ (-NONE- *))" in text
    bank = inputs.write_conllu(tmp_path / "d.conllu", seed=2, sentences=50, vocab=30)
    heads = []
    for line in bank.path.read_text().splitlines() + [""]:
        if line and not line.startswith("#"):
            heads.append(int(line.split("\t")[6]))
        elif not line and heads:
            arcs = [(min(h, d), max(h, d)) for d, h in enumerate(heads, 1) if h]
            for a, b in arcs:
                assert not any(a < c < b < e or c < a < e < b for c, e in arcs)
            heads = []


def _bump_numbers(text: str) -> str:
    """Change every number in `text`: integers by one, floats by 1e-6."""
    def bump(match):
        token = match.group(0)
        if re.fullmatch(r"\d+", token):
            return str(int(token) + 1)
        return repr(float(token) * (1 + 1e-6))
    return re.sub(r"\d+\.\d+(?:e-?\d+)?|\d+", bump, text)


def _nan_first_value(text: str) -> str:
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = "nan"
    return "\n".join([lines[0], ",".join(cells), *lines[2:]])


@pytest.fixture(scope="module", params=sorted(run.PLANS))
def smoke_outputs(request, tmp_path_factory):
    """A workload's smoke commands run in-process: (bench, plan)."""
    from treebank_entropy import cli

    workload = request.param
    bench = run.Bench(workload, seed=3, seconds=1, smoke=True)
    plan = run.PLANS[workload](tmp_path_factory.mktemp(workload), 3, bench.sizes)
    for command in plan.commands:
        bench._in_process(cli, command, None if command.role != "timed" else 0)
    return bench, plan


def test_checks_pass_on_real_outputs(smoke_outputs):
    bench, plan = smoke_outputs
    bench.judge(plan)
    assert [(r.command.name, r.failures) for r in bench.runs if r.failures] == []


def test_each_check_fails_on_tampered_output(smoke_outputs):
    bench, plan = smoke_outputs
    outputs = {r.command.name: r.stdout for r in bench.runs}
    for subject, check in plan.checks:
        assert check(outputs) is None
        tamper = _nan_first_value if subject == "converge" else _bump_numbers
        tampered = dict(outputs, **{subject: tamper(outputs[subject])})
        assert check(tampered) is not None, subject


def test_judge_counts_tampered_runs(smoke_outputs):
    bench, plan = smoke_outputs
    subject = plan.checks[-1][0]
    copy = run.Bench(bench.workload, bench.seed, 1, smoke=True)
    for r in bench.runs:
        stdout = _bump_numbers(r.stdout) if r.command.name == subject else r.stdout
        copy.runs.append(run.Run(r.command, r.pass_no, r.wall, r.rss_mb, r.code,
                                 stdout, r.stderr))
    copy.runs[0].stderr = "Traceback (most recent call last):\n"
    copy.judge(plan)
    failed = {r.command.name for r in copy.runs if r.failures}
    assert failed == {subject, copy.runs[0].command.name}


def test_no_traceback_check():
    assert checks.no_traceback("error: bad input\n") is None
    assert checks.no_traceback("Traceback (most recent call last):\n  ...") is not None


def test_self_times_subtract_covered_child_intervals():
    parent = ["p", 0.0, 10.0, None]
    a = ["a", 1.0, 4.0, parent]
    b = ["b", 3.0, 5.0, parent]  # overlaps a: covered is 1..5
    c = ["c", 1.5, 2.0, a]
    assert spans.self_times([parent, a, b, c]) == [6.0, 2.5, 2.0, 0.5]
    assert spans.roots([parent, a, b, c]) == [parent] * 4
    assert spans.serializable([parent, a])[1] == ["a", 1.0, 4.0, 0]


def test_tracer_rebinds_every_namespace_and_reports_absent():
    from treebank_entropy import analysis, estimators, grammar

    original = grammar.induce
    tracer = spans.Tracer()
    tracer.install([
        ("grammar.induce", "treebank_entropy.grammar", "induce", None),
        ("grammar.gone", "treebank_entropy.grammar", "no_such_function", None),
        ("grammar.sample", "treebank_entropy.grammar", "Sampler.sample", None),
    ])
    try:
        assert grammar.induce is not original
        assert analysis.induce is grammar.induce
        assert estimators.induce is grammar.induce
        assert tracer.absent == ["grammar.gone"]
        corpus = grammar.Corpus([grammar.Tree("S", [grammar.Tree("a")])])
        g = estimators.induce(corpus)
        grammar.Sampler(g).sample(__import__("numpy").random.default_rng(0))
    finally:
        tracer.uninstall()
    assert grammar.induce is original and analysis.induce is original
    assert [s[0] for s in tracer.spans] == ["grammar.induce", "grammar.sample"]
    assert tracer.counts["grammar.induce_calls"] == 1


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.PLANS))
def test_smoke_run_of_every_workload(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace:
        sampled = result["metrics"]["grammar.sample_s"]["value"]
        assert (sampled > 0) == (workload == "sweep")


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
