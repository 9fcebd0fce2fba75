"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The real-treebank replication (criterion 5 and the second
half of criterion 6) only runs when the corresponding corpus files are
supplied through environment variables; see the module docstrings below.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

import synthetic
from oracles import random_enumerable_pcfg, random_projective_graph
from treebank_entropy.analysis import converge, fit, incremental, residualize
from treebank_entropy.cli import main as cli_main
from treebank_entropy.conllu import read_conllu
from treebank_entropy.depconv import ConversionConfig, dep_to_tree, graphs_to_corpus, tree_to_dep
from treebank_entropy.entropy import derivational_entropy, entropy_rate
from treebank_entropy.estimators import (
    SmootherKind,
    cae_entropy,
    cwj_entropy,
    ml_entropy,
    site,
)
from treebank_entropy.grammar import FreqTable, Pcfg, Rule, Sampler, induce
from treebank_entropy.trees import Corpus, corpus_mlu, read_bracketed

#: Environment variables pointing at the real WSJ sample (optional).
WSJ_PTB_ENV = "TREEBANK_WSJ_PTB"  # glob of bracketed files
WSJ_DEP_ENV = "TREEBANK_WSJ_CONLLU"  # CoNLL-U file or glob


def check(label, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"\n[acceptance] {label}: {status} ({detail})")
    assert condition, f"{label}: {detail}"


@pytest.fixture(scope="module")
def reference_source():
    return synthetic.reference_corpus()


@pytest.fixture(scope="module")
def reference(reference_source):
    grammar = induce(reference_source)
    return grammar, derivational_entropy(grammar)


@pytest.fixture(scope="module")
def sweep(reference_source):
    start = time.time()
    rows = converge(
        reference_source,
        sizes=(1, 2, 3, 5, 7, 11, 17, 25, 37, 55, 82, 122),
        replications=100,
        estimators=("ml", "mc", "site-cwj"),
        seed=99,
        coverage=False,
    )
    return rows, time.time() - start


def test_criterion_1_exact_entropy_oracle():
    """Closed-form entropy matches exhaustive enumeration on 20 random
    grammars (spectral radius <= 0.9) within 1e-6 bits, under a minute."""
    rng = np.random.default_rng(12345)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        grammar, enumerated, mass = random_enumerable_pcfg(rng)
        assert mass >= 1.0 - 1e-10
        worst = max(worst, abs(derivational_entropy(grammar) - enumerated))
    elapsed = time.time() - start
    check(
        "criterion 1 (exact-entropy oracle)",
        worst < 1e-6 and elapsed < 60.0,
        f"worst |error| {worst:.2e} bits over 20 grammars in {elapsed:.1f}s",
    )


def test_criterion_2_closed_forms():
    """Tail-recursive grammar family: H, MLU, and rate reproduce their
    geometric-distribution closed forms to 1e-9."""
    worst = 0.0
    for q in np.arange(0.1, 0.95, 0.1):
        grammar = Pcfg(
            "S",
            [Rule("S", ("a", "S"), q, 1), Rule("S", ("a",), 1.0 - q, 1)],
        )
        h_binary = -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
        report = entropy_rate(grammar)
        worst = max(
            worst,
            abs(report.entropy - h_binary / (1 - q)),
            abs(report.mlu - 1.0 / (1 - q)),
            abs(report.rate - h_binary),
        )
    check(
        "criterion 2 (closed forms)",
        worst < 1e-9,
        f"worst deviation {worst:.2e} over q in 0.1..0.9",
    )


def test_criterion_3_estimator_unit_values():
    """Hand-evaluated estimates for the two-doubleton table.

    The accumulation-curve estimate is exactly (2/4)(1/2+1/3) per type,
    5/6 nats total, which is 1.2022459 bits (log2 conversion of the
    documented 5/6-nat derivation); the coverage-adjusted estimate is
    1/0.9375 bits; the plug-in estimate is exactly 1 bit.
    """
    t = FreqTable((2, 2))
    cwj_expected = (5.0 / 6.0) / math.log(2.0)
    cae_expected = 1.0 / 0.9375
    errors = (
        abs(cwj_entropy(t) - cwj_expected),
        abs(cae_entropy(t) - cae_expected),
        abs(ml_entropy(t) - 1.0),
    )
    check(
        "criterion 3 (estimator unit values)",
        max(errors) < 1e-6,
        f"cwj {cwj_entropy(t):.7f} cae {cae_entropy(t):.7f} "
        f"ml {ml_entropy(t):.7f}, max error {max(errors):.2e}",
    )


def test_criterion_4_convergence_replication(reference, sweep):
    """At 122 sampled sentences the smoothed estimator is unbiased (its
    mean sits inside its own 95% CI of the truth) while plain ML remains
    more than 10% short; ML and Monte-Carlo agree at every size."""
    _, true_h = reference
    rows, elapsed = sweep
    by_key = {(r.sample_size, r.estimator): r for r in rows}
    cwj = by_key[122, "site-cwj"]
    half = (cwj.ci95_high - cwj.ci95_low) / 2.0
    cond_a = abs(cwj.mean - true_h) <= half
    ml122 = by_key[122, "ml"]
    shortfall = (true_h - ml122.mean) / true_h
    cond_b = shortfall > 0.10
    worst_rel = 0.0
    for size in (1, 2, 3, 5, 7, 11, 17, 25, 37, 55, 82, 122):
        ml = by_key[size, "ml"].mean
        mc = by_key[size, "mc"].mean
        denom = max(abs(ml), 1e-12)
        worst_rel = max(worst_rel, abs(ml - mc) / denom)
    cond_c = worst_rel < 0.01
    check(
        "criterion 4 (convergence replication)",
        cond_a and cond_b and cond_c and elapsed < 600.0,
        f"true H {true_h:.2f}; cwj@122 {cwj.mean:.2f}+-{half:.2f} "
        f"(|bias| {abs(cwj.mean - true_h):.2f}); ml@122 short by "
        f"{shortfall:.1%}; worst ml-mc gap {worst_rel:.2e}; {elapsed:.0f}s",
    )


def _wsj_constituency_corpus():
    pattern = os.environ.get(WSJ_PTB_ENV)
    if not pattern:
        pytest.skip(
            f"{WSJ_PTB_ENV} not set: real-treebank replication needs the "
            "3,914-sentence WSJ sample (bracketed files)"
        )
    paths = sorted(glob.glob(pattern)) or sorted(
        glob.glob(os.path.join(pattern, "*.mrg"))
    )
    if not paths:
        pytest.skip(f"{WSJ_PTB_ENV} matched no files")
    files = [
        read_bracketed(p, source_id=os.path.basename(p), preterminalize=True)
        for p in paths
    ]
    merged = Corpus(
        [t for c in files for t in c.sentences], source_id="wsj-ptb"
    )
    return files, merged


def _wsj_dependency_corpora():
    pattern = os.environ.get(WSJ_DEP_ENV)
    if not pattern:
        pytest.skip(
            f"{WSJ_DEP_ENV} not set: dependency replication needs the WSJ "
            "sample as CoNLL-U"
        )
    paths = sorted(glob.glob(pattern))
    if not paths:
        pytest.skip(f"{WSJ_DEP_ENV} matched no files")
    files = []
    for p in paths:
        corpus, _ = graphs_to_corpus(
            read_conllu(p), ConversionConfig(labeled=True, use_pos=True),
            source_id=os.path.basename(p),
        )
        files.append(corpus)
    merged = Corpus(
        [t for c in files for t in c.sentences], source_id="wsj-dep"
    )
    return files, merged


def test_criterion_5_wsj_replication():
    """Real-data replication: grammar sizes and entropies of the WSJ
    sample, both annotation paradigms.  Skips unless the data is supplied."""
    _, merged = _wsj_constituency_corpus()
    grammar = induce(merged)
    h = derivational_entropy(grammar)
    cond_cfg = (
        len(grammar.rules) == 8009
        and len(grammar.nonterminals) == 662
        and abs(h - 103.445) / 103.445 < 0.01
    )
    detail = (
        f"cfg: {len(grammar.rules)} rules, {len(grammar.nonterminals)} "
        f"non-terminals, H {h:.3f}"
    )
    _, dep_merged = _wsj_dependency_corpora()
    dep_grammar = induce(dep_merged)
    dep_h = derivational_entropy(dep_grammar)
    cond_dep = (
        len(dep_grammar.rules) == 8104
        and len(dep_grammar.nonterminals) == 46
        and abs(dep_h - 78.36) / 78.36 < 0.01
    )
    detail += (
        f"; dep: {len(dep_grammar.rules)} rules, "
        f"{len(dep_grammar.nonterminals)} non-terminals, H {dep_h:.2f}"
    )
    check("criterion 5 (WSJ replication)", cond_cfg and cond_dep, detail)


def test_criterion_6_proportionality(reference):
    """Across 199 small subcorpora of one grammar, smoothed entropy is
    proportional to MLU: strong raw correlation, stronger after removing
    the logarithmic size bias, and no significant intercept."""
    grammar, _ = reference
    sampler = Sampler(grammar)
    rng = np.random.default_rng(424242)
    sizes = synthetic.subcorpora_sizes(rng, 199)
    mlus, entropies, log_sizes = [], [], []
    for n in sizes:
        corpus = synthetic.sample_corpus(sampler, int(n), rng)
        mlus.append(corpus_mlu(corpus))
        entropies.append(site(corpus, SmootherKind.CWJ).value)
        log_sizes.append(math.log(int(n)))
    mlus = np.array(mlus)
    entropies = np.array(entropies)
    log_sizes = np.array(log_sizes)
    raw = fit(mlus, entropies, with_intercept=True)
    residual = fit(
        residualize(mlus, log_sizes),
        residualize(entropies, log_sizes),
        with_intercept=True,
    )
    cond = (
        raw.r > 0.8
        and residual.r > 0.9
        and abs(raw.intercept_t) < 2.0
    )
    check(
        "criterion 6 (proportionality)",
        cond,
        f"raw r {raw.r:.3f}, residualized r {residual.r:.3f}, "
        f"intercept t {raw.intercept_t:+.2f}",
    )


def test_criterion_6_wsj_rates():
    """Entropy-rate slopes of the real WSJ sample in both paradigms and
    their ratio.  Skips unless the data is supplied."""
    files, _ = _wsj_constituency_corpus()
    dep_files, _ = _wsj_dependency_corpora()
    if len(files) < 3 or len(dep_files) < 3:
        pytest.skip("per-file replication needs the 199-file split")

    def slope(file_list):
        mlus = np.array([corpus_mlu(c) for c in file_list])
        ents = np.array([site(c, SmootherKind.CWJ).value for c in file_list])
        return fit(mlus, ents, with_intercept=False).slope

    cfg_slope = slope(files)
    dep_slope = slope(dep_files)
    beta = dep_slope / cfg_slope
    cond = (
        abs(cfg_slope - 2.05) < 0.1
        and abs(dep_slope - 1.44) < 0.1
        and abs(beta - 0.71) < 0.03
    )
    check(
        "criterion 6b (WSJ entropy rates)",
        cond,
        f"cfg slope {cfg_slope:.2f}, dep slope {dep_slope:.2f}, "
        f"beta {beta:.3f}",
    )


def test_criterion_7_dependency_round_trip():
    """Conversion to trees and back is the identity on 1,000 random
    projective graphs of up to 30 tokens."""
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        graph = random_projective_graph(rng, int(rng.integers(1, 31)))
        back = tree_to_dep(dep_to_tree(graph, ConversionConfig(labeled=True)))
        if back != graph:
            failures += 1
    check(
        "criterion 7 (dependency round trip)",
        failures == 0,
        f"{failures} failures in 1000 round trips",
    )


def test_criterion_8_determinism(tmp_path, reference):
    """The convergence sweep writes byte-identical CSV for the same seed,
    run after run."""
    grammar, _ = reference
    corpus = synthetic.sample_corpus(Sampler(grammar), 80, np.random.default_rng(5))
    bank = tmp_path / "bank.mrg"
    from treebank_entropy.trees import write_bracketed

    bank.write_text(
        "\n".join(write_bracketed(t) for t in corpus.sentences),
        encoding="utf-8",
    )
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = cli_main(
            ["converge", "--no-preterminalize", "--sizes", "2,5,11",
             "--replications", "6", "--seed", "17", "-o", str(out), str(bank)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    check(
        "criterion 8 (determinism)",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes, identical in two runs",
    )


def test_criterion_9_incremental_endpoint(reference):
    """Cumulative-entropy curves end at the same value whether files are
    accumulated in original or shuffled order."""
    grammar, _ = reference
    sampler = Sampler(grammar)
    rng = np.random.default_rng(31415)
    files = [
        synthetic.sample_corpus(sampler, int(n), rng, source_id=f"part{i}")
        for i, n in enumerate((40, 25, 60, 10))
    ]
    original = incremental(files, order="original")
    shuffled = incremental(files, order="shuffled", seed=8)
    gap = abs(original[-1].entropy - shuffled[-1].entropy)
    check(
        "criterion 9 (incremental endpoint)",
        gap < 1e-9,
        f"endpoint gap {gap:.2e} bits",
    )
