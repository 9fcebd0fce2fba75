import math
from itertools import chain

import numpy as np
import pytest
from scipy import stats

from oracles import cross_entropy, reference_sample, reference_site
from synthetic import sample_corpus, scaffold_grammar
from treebank_entropy import analysis, entropy, grammar, sampling, tree_objects, trees
from treebank_entropy.analysis import (
    DEFAULT_ESTIMATORS,
    DEFAULT_SIZES,
    converge,
    file_reports,
    fit,
    incremental,
    residualize,
)
from treebank_entropy.errors import InputError, SamplingDivergenceError
from treebank_entropy.entropy import grammar_mlu
from treebank_entropy.estimators import SmootherKind, site, site_rows
from treebank_entropy.grammar import SYNTHETIC_ROOT, Pcfg, Rule, Sampler, induce
from treebank_entropy.trees import (
    Corpus,
    CountedCorpus,
    corpus_mlu,
    derivation,
    parse_bracketed,
)


def corpus_of(*texts):
    return Corpus([parse_bracketed(t)[0] for t in texts])


def sampled_corpus(grammar, size, seed):
    return sample_corpus(Sampler(grammar), size, np.random.default_rng(seed))


def spearman_size_check(residuals, log_n) -> tuple[float, float]:
    """Rank correlation of residualized entropies with log size.

    A small rho indicates no leftover nonlinear size effect.
    """
    rho, p = stats.spearmanr(residuals, log_n)
    return float(rho), float(p)


def mlu_agreement(corpus):
    """Corpus MLU and induced-grammar MLU (they agree for ML induction)."""
    return corpus_mlu(corpus), grammar_mlu(induce(corpus))


LOW_ENTROPY = Pcfg(
    "S", [Rule("S", ("a", "S"), 0.05, 1), Rule("S", ("a",), 0.95, 19)]
)
HIGH_ENTROPY = Pcfg(
    "S",
    [
        Rule("S", ("x", "S"), 0.2, 1),
        Rule("S", ("y", "S"), 0.2, 1),
        Rule("S", ("x",), 0.2, 1),
        Rule("S", ("y",), 0.2, 1),
        Rule("S", ("z",), 0.2, 1),
    ],
)


def count_inductions(monkeypatch) -> list[int]:
    """Record the sentence count of every induction, by any module: `induce`
    and `incremental` both count through `grammar._induce`."""
    calls = []
    real = grammar._induce

    def counting(table, ids, roots, leaves):
        calls.append(len(roots))
        return real(table, ids, roots, leaves)

    for module in (grammar, analysis):
        monkeypatch.setattr(module, "_induce", counting)
    return calls


def record_builds(monkeypatch) -> list[str]:
    """Record the class of every `Pcfg`, `RuleTable` and `FreqTable` built."""
    built = []
    for cls, method in ((grammar.Pcfg, "_build"), (trees.RuleTable, "__init__"),
                        (grammar.FreqTable, "__new__")):
        def recording(self, *args, _real=getattr(cls, method), _name=cls.__name__,
                      **kwargs):
            built.append(_name)  # `__new__` takes the class, not an instance
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, recording)
    return built


class TestConverge:
    def test_default_sizes(self):
        assert DEFAULT_SIZES == (
            1, 2, 3, 5, 7, 11, 17, 25, 37, 55, 82, 122, 183, 273, 407, 608,
            908, 1355, 2023, 3020, 4509, 6731, 10048, 15000,
        )

    def test_deterministic_grammar_all_zero(self):
        corpus = corpus_of("(S (A a) (B b))", "(S (A a) (B b))")
        rows = converge(
            corpus, sizes=[1, 2], replications=5, seed=3, coverage=False
        )
        for row in rows:
            assert row.mean == 0.0
            assert row.ci95_low == row.ci95_high == 0.0

    def test_rows_cover_all_series(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 60, 1)
        rows = converge(corpus, sizes=[2, 5], replications=4, seed=0)
        series = {(r.sample_size, r.estimator) for r in rows}
        for size in (2, 5):
            for est in ("ml", "mc", "site-cae", "site-cwj",
                        "coverage-rules", "coverage-nonterminals"):
                assert (size, est) in series

    def test_ci_bounds_ordered(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 60, 2)
        rows = converge(corpus, sizes=[3, 9], replications=8, seed=1)
        for row in rows:
            assert row.ci95_low <= row.mean <= row.ci95_high

    def test_coverage_grows_with_size(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 200, 3)
        rows = converge(corpus, sizes=[2, 60], replications=10, seed=2)
        cov = {
            (r.sample_size, r.estimator): r.mean
            for r in rows
            if r.estimator.startswith("coverage")
        }
        assert cov[60, "coverage-rules"] > cov[2, "coverage-rules"]
        assert all(0.0 <= v <= 100.0 for v in cov.values())

    def test_ml_and_mc_agree(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 100, 5)
        rows = converge(
            corpus, sizes=[20], replications=10, seed=7, coverage=False
        )
        by_est = {r.estimator: r.mean for r in rows}
        assert by_est["ml"] == pytest.approx(by_est["mc"], rel=1e-9)

    def test_unknown_estimator_rejected(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 30, 6)
        with pytest.raises(InputError, match="estimator"):
            converge(corpus, sizes=[2], replications=2, estimators=("bogus",))

    def test_unknown_estimator_rejected_before_any_induction(self, monkeypatch):
        calls = count_inductions(monkeypatch)
        corpus = sampled_corpus(HIGH_ENTROPY, 30, 6)
        with pytest.raises(InputError, match="unknown estimator id 'bogus'"):
            converge(corpus, sizes=[2], replications=2, estimators=("ml", "bogus"))
        assert calls == []

    def test_repeated_sizes_and_estimators_taken_once(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 30, 6)
        once = converge(corpus, sizes=[2, 5], replications=2,
                        estimators=("site-cae", "ml"))
        repeated = converge(corpus, sizes=[5, 2, 2, 5], replications=2,
                            estimators=("site-cae", "ml", "site-cae", "ml"))
        assert repeated == once

    @pytest.mark.parametrize("replications", [0, -1])
    def test_non_positive_replications_rejected(self, replications):
        corpus = corpus_of("(S (A a) (B b))")
        with pytest.raises(InputError, match="replications"):
            converge(corpus, sizes=[1], replications=replications)

    def test_one_induction_per_task(self, monkeypatch):
        calls = count_inductions(monkeypatch)
        source = sampled_corpus(HIGH_ENTROPY, 40, 8)
        built = record_builds(monkeypatch)
        converge(source, sizes=[2, 5], replications=3,
                 estimators=DEFAULT_ESTIMATORS, seed=1)
        # The truth grammar only: each (replication, size) task is a row of
        # rule counts over the truth's rules, with no grammar of its own.
        # One rule table interns the source, and one grammar counts it.
        assert calls == [40]
        assert built == ["RuleTable", "Pcfg"]

    @pytest.mark.parametrize("several_roots", [False, True])
    def test_mc_count_form_equals_tree_walk(self, several_roots):
        # The sweep's mc value comes from rule frequencies alone; walking the
        # trees through cross_entropy gives the same number.  With several
        # root labels the synthetic root's rules carry the root counts.
        sampler = Sampler(scaffold_grammar())
        rng = np.random.default_rng(12)
        for size in (1, 3, 20, 200):
            trees = sample_corpus(sampler, size, rng).sentences
            if several_roots:
                trees = trees + [c for t in trees for c in t.children if c.children]
            corpus = Corpus(trees)
            grammar = induce(corpus)
            assert (grammar.root == SYNTHETIC_ROOT) == several_roots
            (mc,) = site_rows(grammar, grammar.freq[None, :], [SmootherKind.ML])[0]
            assert mc == pytest.approx(cross_entropy(grammar, corpus), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 7, 41])
    def test_draws_derivations_equal_to_reference_trees(self, seed, monkeypatch):
        # converge samples rule counts: no Tree is built on its path, and its
        # rows are those of the same draws made as trees by the reference
        # sampler.
        source = CountedCorpus(
            [derivation(t) for t in sampled_corpus(scaffold_grammar(), 60, 8).sentences]
        )
        sweep = dict(sizes=[1, 5, 30], replications=3, seed=seed)

        class ReferenceSampler(Sampler):
            def sample(self, rng):
                tree, self.last_retries = reference_sample(
                    self.grammar, rng, self.max_nodes
                )
                return derivation(tree)

        with monkeypatch.context() as patch:
            patch.setattr(sampling, "Sampler", ReferenceSampler)
            expected = converge(source, **sweep)

        def no_tree(*args, **kwargs):
            raise AssertionError("converge built a Tree")

        monkeypatch.setattr(tree_objects, "Tree", no_tree)
        assert converge(source, **sweep) == expected

    @pytest.mark.parametrize("replications", [1, 2, 7, 100])
    def test_summary_equals_a_per_cell_reference(self, replications, monkeypatch):
        # Each row's mean and CI bounds are, bit for bit, np.mean and
        # np.std(ddof=1) of its (size, series) cell's replications, taken
        # one cell at a time.
        source = sampled_corpus(scaffold_grammar(), 60, 9)
        truth = induce(source)
        sizes = [1, 3, 20]
        drawn = []

        def recording_site_rows(grammar, counts, smoothers):
            values = site_rows(grammar, counts, smoothers)
            drawn.append((counts, values))
            return values

        monkeypatch.setattr(analysis, "site_rows", recording_site_rows)
        rows = converge(source, sizes=sizes, replications=replications, seed=4)
        assert len(drawn) == replications
        smoothers = [SmootherKind.ML, SmootherKind.CAE, SmootherKind.CWJ]
        cells = {}
        for counts, values in drawn:
            for size, row, estimates in zip(sizes, counts, values):
                seen = set(truth.lhs[np.flatnonzero(row)].tolist())
                for est in DEFAULT_ESTIMATORS:
                    column = smoothers.index(analysis._SMOOTHER_OF[est])
                    cells.setdefault((size, est), []).append(estimates[column])
                cells.setdefault((size, "coverage-rules"), []).append(
                    100.0 * np.count_nonzero(row) / len(truth))
                cells.setdefault((size, "coverage-nonterminals"), []).append(
                    100.0 * len(seen) / len(truth.nonterminals))
        expected = []
        for (size, est), values in cells.items():
            mean = float(np.mean(values))
            half = (1.96 * float(np.std(values, ddof=1)) / math.sqrt(replications)
                    if replications > 1 else 0.0)
            expected.append((size, est, mean, mean - half, mean + half, replications))
        assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in expected]

    @pytest.mark.parametrize("several_roots", [False, True])
    def test_count_rows_equal_per_task_grammars(self, several_roots, monkeypatch):
        # Each row of a replication's count matrix gives what the grammar
        # induced from that task's draws gives: SITE within 1e-12 relative,
        # coverage exactly.
        trees = sampled_corpus(scaffold_grammar(), 60, 8).sentences
        if several_roots:
            trees = trees + [c for t in trees[:20] for c in t.children if c.children]
        source = Corpus(trees)
        truth = induce(source)
        assert (truth.root == SYNTHETIC_ROOT) == several_roots
        sizes, replications = [1, 4, 30], 3
        drawn, matrices = [], []

        class RecordingSampler(Sampler):
            def sample(self, rng):
                drawn.append(super().sample(rng))
                return drawn[-1]

        def recording_site_rows(grammar, counts, smoothers):
            values = site_rows(grammar, counts, smoothers)
            matrices.append(values)
            return values

        monkeypatch.setattr(sampling, "Sampler", RecordingSampler)
        monkeypatch.setattr(analysis, "site_rows", recording_site_rows)
        estimators = ("ml", "site-cae", "site-cwj")
        rows = converge(source, sizes=sizes, replications=replications,
                        estimators=estimators, seed=5)
        assert len(matrices) == replications
        coverage = {}
        for values in matrices:
            assert values.shape == (len(sizes), len(estimators))
            for size, row in zip(sizes, values):
                task, drawn[:size] = drawn[:size], []
                grammar = induce(CountedCorpus(task))
                for value, est in zip(row, estimators):
                    smoother = SmootherKind(est.split("-")[-1])
                    assert value == pytest.approx(reference_site(grammar, smoother),
                                                  rel=1e-12, abs=0.0)
                coverage.setdefault(size, []).append((
                    100.0 * len(set(grammar.expansions)) / len(truth),
                    100.0 * len(grammar.nonterminals) / len(truth.nonterminals),
                ))
        assert drawn == []
        means = {(r.sample_size, r.estimator): r.mean for r in rows}
        for size, pairs in coverage.items():
            rules, nts = np.array(pairs).T
            assert means[size, "coverage-rules"] == float(np.mean(rules))
            assert means[size, "coverage-nonterminals"] == float(np.mean(nts))

    @pytest.mark.parametrize("seed", [0, 3, 41, 2024])
    @pytest.mark.parametrize("batch", [1, 7, sampling._UNIFORM_BATCH])
    def test_batched_uniforms_draw_the_scalar_derivations(self, seed, batch,
                                                          monkeypatch):
        # 400 sentences take about 4,000 uniforms: every batch size ends
        # batches inside sentences.
        monkeypatch.setattr(sampling, "_UNIFORM_BATCH", batch)
        sampler = Sampler(scaffold_grammar())
        scalar = np.random.default_rng(seed)
        expected = [sampler.sample(scalar) for _ in range(400)]
        draws = sampling._uniforms(np.random.default_rng(seed))
        assert [sampler.sample(draws) for _ in range(400)] == expected


def sweep_truth():
    """An induced truth with a synthetic root, its source and its sampler."""
    trees_ = sampled_corpus(scaffold_grammar(), 80, 8).sentences
    source = Corpus(trees_ + [c for t in trees_[:20] for c in t.children if c.children])
    truth = induce(source)
    assert truth.root == SYNTHETIC_ROOT
    return source, truth


def sampled_row(truth, sampler, seed, rep, size):
    """A task's row drawn sentence by sentence, as every task was before
    large tasks drew theirs as a branching process."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, rep, size)))
    draws = sampling._uniforms(rng)
    return sampling._count_row(truth, chain.from_iterable(
        sampler.sample(draws).rules for _ in range(size)))


def captured_rows(monkeypatch, source, **sweep):
    """The count rows that `converge` estimates, by replication."""
    matrices = []

    def capture(grammar, counts, smoothers):
        matrices.append(counts.copy())
        return site_rows(grammar, counts, smoothers)

    monkeypatch.setattr(analysis, "site_rows", capture)
    rows = converge(source, **sweep)
    monkeypatch.undo()
    return rows, matrices


class TestBranchedDraw:
    def test_small_tasks_are_sampled_sentence_by_sentence(self, monkeypatch):
        source, truth = sweep_truth()
        sampler = Sampler(truth)
        sizes = [1, 7, sampling._BRANCH_FROM - 1, sampling._BRANCH_FROM, 250]
        _, matrices = captured_rows(monkeypatch, source, sizes=sizes, replications=3, seed=4)
        for rep, counts in enumerate(matrices):
            for size, row in zip(sizes, counts):
                sampled = sampled_row(truth, sampler, 4, rep, size)
                assert (row == sampled).all() == (size < sampling._BRANCH_FROM)

    def test_branched_rows_are_counts_of_whole_trees(self, monkeypatch):
        source, truth = sweep_truth()
        sizes = [100, 122, 1000, 4509]
        _, matrices = captured_rows(monkeypatch, source, sizes=sizes, replications=3, seed=9)
        edges = entropy._edges_by_lhs(truth, entropy._children(truth))
        for counts in matrices:
            assert counts.dtype == np.int64
            for size, row in zip(sizes, counts):
                assert entropy.certify_counts(truth, row, edges) == size
        monkeypatch.setattr(sampling, "_PADDING", 8)  # several groups
        offspring = sampling._offspring(truth)
        rng = np.random.default_rng(5)
        for size in sizes:
            row = sampling._branched(offspring, size, rng)
            assert entropy.certify_counts(truth, row, edges) == size

    @pytest.mark.parametrize("padding", [sampling._PADDING, 8])
    def test_rows_are_padded_in_groups(self, padding, monkeypatch):
        # Each non-terminal's rules, right-aligned in one row of its group.
        monkeypatch.setattr(sampling, "_PADDING", padding)
        _, truth = sweep_truth()
        groups = sampling._offspring(truth).groups
        assert (len(groups) == 1) == (padding > 8)
        members = np.concatenate([m for m, _, _ in groups])
        assert sorted(members) == list(range(len(truth.nonterminals)))
        cells = 0
        for nts, probs, slots in groups:
            cells += probs.size
            for a, p, s in zip(nts, probs, slots):
                mine = truth.order[truth.starts[a]:truth.starts[a + 1]]
                assert s[-mine.size:].tolist() == mine.tolist()
                assert (s[:-mine.size] == len(truth)).all() and not p[:-mine.size].any()
                assert p[-mine.size:].tolist() == truth.prob[mine].tolist()
        assert cells <= 2 * len(truth) + padding * len(groups)

    @pytest.mark.parametrize("padding", [sampling._PADDING, 8])
    def test_mean_counts_are_the_truths_expectation(self, padding, monkeypatch):
        # For an induced truth, E[count_r] = n f_r / N exactly.
        monkeypatch.setattr(sampling, "_PADDING", padding)
        source, truth = sweep_truth()
        offspring = sampling._offspring(truth)
        size, draws = 150, 400
        rng = np.random.default_rng(2024)
        rows = np.array([sampling._branched(offspring, size, rng) for _ in range(draws)])
        expected = size * truth.freq / len(source)
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(draws)
        assert (np.abs(rows.mean(axis=0) - expected) <= 5 * stderr + 1e-9 * expected).all()
        assert (stderr[truth.freq < len(source)] > 0).all()

    @pytest.mark.parametrize("seed", [3, 17])
    def test_moments_agree_with_the_sampler(self, seed):
        # Per rule, the mean and the variance of 300 branched rows and 300
        # rows sampled sentence by sentence agree within 5 standard errors.
        _, truth = sweep_truth()
        offspring, sampler = sampling._offspring(truth), Sampler(truth)
        size, draws = 20, 300
        rng = np.random.default_rng(seed)
        branched = np.array([sampling._branched(offspring, size, rng) for _ in range(draws)])
        sampled = np.array([sampled_row(truth, sampler, seed, rep, size)
                            for rep in range(draws)])
        moments = []
        for rows in (branched, sampled):
            centred = rows - rows.mean(axis=0)
            var = (centred**2).mean(axis=0)
            fourth = (centred**4).mean(axis=0)
            moments.append((rows.mean(axis=0), var, var / draws, (fourth - var**2) / draws))
        (m1, v1, se1, sv1), (m2, v2, se2, sv2) = moments
        assert (np.abs(m1 - m2) <= 5 * np.sqrt(se1 + se2) + 1e-12).all()
        assert (np.abs(v1 - v2) <= 5 * np.sqrt(sv1 + sv2) + 1e-12).all()
        assert ((v1 > 0) == (v2 > 0)).all()

    def test_rows_do_not_depend_on_the_other_tasks(self, monkeypatch):
        source, truth = sweep_truth()
        _, matrices = captured_rows(monkeypatch, source, sizes=[150, 1000, 5],
                                    replications=3, seed=6)
        offspring = sampling._offspring(truth)
        tasks = [(rep, i, size) for rep in range(3) for i, size in enumerate([5, 150, 1000])]
        for k in np.random.default_rng(0).permutation(len(tasks)):
            rep, i, size = tasks[k]
            if size < sampling._BRANCH_FROM:
                continue
            rng = np.random.default_rng(np.random.SeedSequence((6, rep, size)))
            assert (sampling._branched(offspring, size, rng) == matrices[rep][i]).all()
        once = captured_rows(monkeypatch, source, sizes=[1000, 150], replications=3, seed=6)
        assert (np.stack(once[1]) == np.stack(matrices)[:, 1:]).all()

    def test_sweep_csv_is_byte_identical(self, tmp_path):
        from treebank_entropy.cli import main

        source, _ = sweep_truth()
        bank = tmp_path / "bank.mrg"
        bank.write_text("\n".join(map(trees.write_bracketed, source.sentences)))
        outputs = []
        for sizes in ("5,150,1000", "1000,5,150,150"):
            out = tmp_path / "sweep.csv"
            argv = ["converge", "--no-preterminalize", "--sizes", sizes,
                    "--replications", "3", "--seed", "8", "-o", str(out), str(bank)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_node_budget(self):
        _, truth = sweep_truth()
        offspring = sampling._offspring(truth)
        with pytest.raises(SamplingDivergenceError, match="150 derivations drawn together "
                           "exceeded 300 nodes"):
            sampling._branched(offspring, 150, np.random.default_rng(1), max_nodes=2)
        # A supercritical grammar grows without end.
        binary = Pcfg("S", [Rule("S", ("S", "S"), 0.6), Rule("S", ("a",), 0.4)])
        with pytest.raises(SamplingDivergenceError, match="exceeded 2000000 nodes"):
            sampling._branched(sampling._offspring(binary), 200, np.random.default_rng(1))


class TestIncremental:
    def test_two_identical_files(self):
        file_a = sampled_corpus(HIGH_ENTROPY, 40, 11)
        file_b = Corpus(list(file_a.sentences), source_id="copy")
        points = incremental([file_a, file_b])
        assert [p.step for p in points] == [1, 2]
        assert points[1].cumulative_sentences == 80

    def test_endpoint_order_invariant(self):
        files = [
            sampled_corpus(LOW_ENTROPY, 30, 21),
            sampled_corpus(HIGH_ENTROPY, 50, 22),
            sampled_corpus(LOW_ENTROPY, 20, 23),
        ]
        original = incremental(files, order="original")
        shuffled = incremental(files, order="shuffled", seed=99)
        assert shuffled[-1].entropy == pytest.approx(
            original[-1].entropy, abs=1e-9
        )
        assert [p.cumulative_sentences for p in shuffled] == [
            p.cumulative_sentences for p in original
        ]

    @pytest.mark.parametrize("several_roots", [False, True],
                             ids=["one_root", "several_roots"])
    @pytest.mark.parametrize("smoother", list(SmootherKind), ids=lambda s: s.value)
    @pytest.mark.parametrize("order", ["original", "shuffled"])
    def test_points_equal_site_of_each_prefix(self, order, smoother, several_roots,
                                              monkeypatch):
        # Every point has the bits of SITE of its prefix's own grammar, though
        # all come from one table induced from the whole input and the running
        # sums of its count rows.  With several root labels the table's
        # synthetic root is not every prefix's: in original order the first
        # prefix has only S.
        files = [sampled_corpus(scaffold_grammar(), size, seed)
                 for size, seed in ((30, 31), (50, 32), (20, 33))]
        if several_roots:
            trees = files[1].sentences
            files[1] = Corpus(trees + [c for t in trees[:10] for c in t.children
                                       if c.children])
        pool = [t for c in files for t in c.sentences]
        calls = count_inductions(monkeypatch)
        built = record_builds(monkeypatch)
        points = incremental(files, order=order, seed=5, smoother=smoother)
        # One table for all steps: no prefix is induced, and all files are
        # interned into one rule table.
        assert calls == [len(pool)]
        assert built == ["RuleTable", "Pcfg"]
        if order == "shuffled":
            pool = [pool[i] for i in np.random.default_rng(5).permutation(len(pool))]
        assert induce(Corpus(pool)).root == (SYNTHETIC_ROOT if several_roots else "S")
        start = 0
        for point, corpus in zip(points, files):
            start += len(corpus)
            assert point.cumulative_sentences == start
            assert point.entropy == site(Corpus(pool[:start]), smoother).value

    def test_heterogeneous_original_order_non_monotone(self):
        files = [
            sampled_corpus(LOW_ENTROPY, 60, 31),
            sampled_corpus(HIGH_ENTROPY, 60, 32),
            sampled_corpus(LOW_ENTROPY, 60, 33),
        ]
        points = incremental(files, order="original")
        values = [p.entropy for p in points]
        assert not all(a <= b for a, b in zip(values, values[1:]))
        assert not all(a >= b for a, b in zip(values, values[1:]))

    def test_needs_two_files(self):
        with pytest.raises(InputError):
            incremental([sampled_corpus(LOW_ENTROPY, 5, 41)])


class TestFileReports:
    def test_single_sentence_file(self):
        (report,) = file_reports([corpus_of("(S (A a) (B b))")])
        assert report.sentences == 1
        assert report.entropy >= 0.0
        assert report.log_n == 0.0

    def test_negation_tree_file(self):
        tree = (
            "(S (NP-SBJ PRP) (VP VBP RB (VP VB (NP DT NNS))))"
        )
        corpus = corpus_of(tree)
        (report,) = file_reports([corpus])
        assert report.mlu == 6.0
        assert report.entropy == site(corpus).value

    def test_mlu_matches_corpus_mlu(self):
        files = [sampled_corpus(HIGH_ENTROPY, n, 50 + n) for n in (3, 12, 30)]
        for report, corpus in zip(file_reports(files), files):
            assert report.mlu == corpus_mlu(corpus)
            assert report.log_n == pytest.approx(math.log(len(corpus)))


class TestFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = fit(x, 2 * x)
        assert result.slope == pytest.approx(2.0)
        assert result.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert result.r == pytest.approx(1.0)

    def test_no_intercept_slope(self):
        x = np.array([1.0, 2.0, 3.0])
        result = fit(x, x + 1.0, with_intercept=False)
        assert result.slope == pytest.approx(10 / 7)
        assert result.intercept is None

    def test_intercept_recovered(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, 50)
        y = 3.0 * x + 4.0 + rng.normal(0, 0.1, 50)
        result = fit(x, y)
        assert result.slope == pytest.approx(3.0, abs=0.05)
        assert result.intercept == pytest.approx(4.0, abs=0.25)
        assert abs(result.intercept_t) > 10

    def test_degenerate_x_rejected(self):
        with pytest.raises(InputError):
            fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InputError):
            fit([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], with_intercept=False)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            fit([1.0, 2.0], [1.0, 2.0])


class TestResidualize:
    def test_perfect_line_zero_residuals(self):
        log_n = np.log([10, 20, 40, 80.0])
        y = 5.0 * log_n + 2.0
        assert residualize(y, log_n) == pytest.approx(np.zeros(4), abs=1e-12)

    def test_constant_y_zero_residuals(self):
        log_n = np.log([10, 20, 40, 80.0])
        assert residualize(np.full(4, 3.0), log_n) == pytest.approx(
            np.zeros(4), abs=1e-12
        )

    def test_residuals_sum_to_zero_and_orthogonal(self):
        rng = np.random.default_rng(1)
        log_n = np.log(rng.integers(2, 500, 60).astype(float))
        y = 1.7 * log_n + rng.normal(0, 1.0, 60)
        res = residualize(y, log_n)
        assert abs(res.sum()) < 1e-9
        assert abs(np.corrcoef(res, log_n)[0, 1]) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            residualize([1.0, 2.0, 3.0], np.log([5.0, 5.0, 5.0]))

    def test_spearman_check_reports(self):
        rng = np.random.default_rng(2)
        log_n = np.log(rng.integers(2, 500, 60).astype(float))
        y = 1.7 * log_n + rng.normal(0, 1.0, 60)
        rho, p = spearman_size_check(residualize(y, log_n), log_n)
        assert -1.0 <= rho <= 1.0
        assert 0.0 <= p <= 1.0


class TestMluAgreement:
    def test_induced_grammar_preserves_mlu(self):
        corpus = sampled_corpus(HIGH_ENTROPY, 70, 60)
        empirical, from_grammar = mlu_agreement(corpus)
        assert from_grammar == pytest.approx(empirical, abs=1e-9)
