"""Differential tests of the counting readers and of what reads their ids.

`counted_bracketed` and `counted_conllu` intern every rule key as they
read.  Their reading (per-sentence rule ids in pre-order, the table's
first-encounter order, roots, token counts, leaves, skipped sentences and
every error) is checked against the reference read pipeline and the
reference CoNLL-U reader (``tests/oracles.py``), walked through
`derivation`.  The grammar `induce -o` writes and the `incremental` curve
are checked against grammars counted with a ``Counter`` of rule keys
(`oracles.RuleCounts`), and `site_rows`' blocks against one-row calls.
"""

import csv
import functools
import io
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from oracles import (
    RuleCounts,
    random_dependency_graph,
    random_projective_graph,
    reference_count_conllu,
    reference_counts_grammar,
    reference_dumps,
    reference_read,
    reference_site,
)
from synthetic import sample_corpus, scaffold_grammar
from test_depconv import CONFIGS, to_conllu
from test_fuzz import BRACKETED, CONLLU, _conllu_outcome, _texts
from test_trees import READ_OPTIONS, _outcome, random_ptb
from treebank_entropy import cli, estimators, grammar, trees
from treebank_entropy.analysis import _count_row
from treebank_entropy.depconv import counted_conllu
from treebank_entropy.errors import InputError
from treebank_entropy.estimators import SmootherKind, site_rows
from treebank_entropy.grammar import Sampler
from treebank_entropy.trees import (
    DEFAULT_DROP_LABELS,
    CountedCorpus,
    RuleTable,
    counted_bracketed,
    derivation,
    merge,
    write_bracketed,
)


def assert_reading(corpus, derivations, before):
    """`corpus` holds what `derivations` hold, over a table that held the
    keys `before` when the read began."""
    keys = corpus.table.keys()
    cuts = corpus.offsets.tolist()
    ids = corpus.ids.tolist()
    assert [[keys[i] for i in ids[a:b]] for a, b in zip(cuts, cuts[1:])] == [
        d.rules for d in derivations]
    assert keys[:len(before)] == before  # ids once given stay
    assert set(keys) == set(before).union(*(d.rules for d in derivations))
    # Induction orders the rules by first encounter in the corpus.
    assert _induced(lambda: grammar.induce(corpus).expansions) == _induced(
        lambda: [(r.lhs, r.rhs) for r in reference_counts_grammar(
            RuleCounts(derivations)).rules])
    assert corpus.roots == [d.root for d in derivations]
    assert np.diff(corpus.leaf_offsets).tolist() == [len(d.leaves) for d in derivations]
    assert set(corpus.leaves) == {leaf for d in derivations for leaf in d.leaves}
    assert corpus.derivations() == derivations
    assert len(corpus) == len(derivations)


def _induced(expansions):
    """The rule keys `expansions()` gives, or its error's type and message."""
    try:
        return expansions()
    except InputError as err:
        return type(err), str(err)


def assert_counts_like_reference(text, table=None):
    """Under every reader option, `counted_bracketed` reads `text` as the
    reference pipeline's trees, or raises its error at the same offset."""
    read = functools.partial(counted_bracketed, table=table)
    for options in READ_OPTIONS:
        before = [] if table is None else table.keys()
        expected = _outcome(reference_read, text, options)
        got = _outcome(read, text, options)
        if isinstance(expected, tuple):
            assert got == expected, options
        else:
            assert_reading(got, [derivation(t) for t in expected], before)


def assert_conllu_counts_like_reference(text, table=None):
    """Under every conversion, `counted_conllu` reads `text` as the
    reference reader's graphs converted and walked, or raises its error at
    the same line."""
    for config in CONFIGS:
        before = [] if table is None else table.keys()
        expected = _conllu_outcome(reference_count_conllu, text, config)
        got = _conllu_outcome(counted_conllu, text, config, table)
        if isinstance(expected[0], type):
            assert got == expected, config
        else:
            derivations, skipped = expected
            corpus, got_skipped = got
            assert got_skipped == skipped
            assert_reading(corpus, derivations, before)


class TestBracketed:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_ptb(self, seed):
        rng = np.random.default_rng(seed)
        texts = [random_ptb(rng, 1) for _ in range(30)]
        for text in texts:
            assert_counts_like_reference(text)
        assert_counts_like_reference("\n".join(texts))

    @pytest.mark.parametrize("seed", [11, 12])
    def test_synthetic_corpora(self, seed):
        corpus = sample_corpus(Sampler(scaffold_grammar()), 40,
                               np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        assert_counts_like_reference("\n".join(
            f"( {write_bracketed(t)} )" if rng.random() < 0.5 else write_bracketed(t)
            for t in corpus.sentences))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_fuzz_texts(self, seed):
        for text in _texts(np.random.default_rng(seed), BRACKETED, 150):
            assert_counts_like_reference(text)

    def test_files_share_one_table(self):
        # Each text's new rules join the table in the order it uses them.
        rng = np.random.default_rng(5)
        table = RuleTable()
        for _ in range(6):
            assert_counts_like_reference(random_ptb(rng, 5), table)
        assert len(table) > 0


class TestConllu:
    def test_random_graphs(self):
        rng = np.random.default_rng(43)
        graphs = []
        for _ in range(60):
            n = int(rng.integers(1, 20))
            graphs.append(random_projective_graph(rng, n))
            graphs.append(random_dependency_graph(rng, n))
        assert_conllu_counts_like_reference(to_conllu(graphs))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_fuzz_texts(self, seed):
        for text in _texts(np.random.default_rng(seed), CONLLU, 150):
            assert_conllu_counts_like_reference(text)

    def test_files_share_one_table(self):
        rng = np.random.default_rng(44)
        table = RuleTable()
        for _ in range(4):
            graphs = [random_projective_graph(rng, int(rng.integers(1, 12)))
                      for _ in range(10)]
            assert_conllu_counts_like_reference(to_conllu(graphs), table)


class TestCountedCorpus:
    def test_derivations_round_trip(self):
        derivations = [derivation(t) for t in sample_corpus(
            Sampler(scaffold_grammar()), 30, np.random.default_rng(2)).sentences]
        corpus = CountedCorpus(derivations, source_id="x")
        assert corpus.derivations() == derivations
        assert corpus.source_id == "x"
        assert_reading(corpus, derivations, [])

    def test_merge_over_one_table_concatenates(self):
        table = RuleTable()
        rng = np.random.default_rng(8)
        parts = [counted_bracketed(random_ptb(rng, 4), table, DEFAULT_DROP_LABELS)
                 for _ in range(3)]
        merged = merge(parts, "all")
        assert merged.table is table
        assert merged.ids.tolist() == list(chain.from_iterable(p.ids.tolist() for p in parts))
        assert merged.derivations() == [d for p in parts for d in p.derivations()]
        assert merged.source_id == "all"

    def test_merge_over_several_tables_maps_the_ids(self):
        rng = np.random.default_rng(9)
        parts = [counted_bracketed(random_ptb(rng, 4), None, DEFAULT_DROP_LABELS)
                 for _ in range(3)]
        tables = [p.table.keys() for p in parts]
        merged = merge(parts)
        assert all(merged.table is not p.table for p in parts)
        assert [p.table.keys() for p in parts] == tables  # left as they were
        assert merged.derivations() == [d for p in parts for d in p.derivations()]
        assert grammar.induce(merged).expansions == grammar.induce(
            CountedCorpus(merged.derivations())).expansions


def _write(tmp_path, texts, suffix):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"f{i}{suffix}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def _ptb(tree, rng) -> str:
    """`tree` in treebank style: each leaf under a tag of its own, and now
    and then a trace."""
    if tree.is_leaf:
        return f"(T{tree.label} {tree.label})"
    parts = [_ptb(child, rng) for child in tree.children]
    if rng.random() < 0.1:
        parts.append("(-NONE- *T*-1)")
    return f"({tree.label} {' '.join(parts)})"


def _several_root_texts(seed):
    """Treebank files whose sentences have several root labels."""
    rng = np.random.default_rng(seed)
    corpus = sample_corpus(Sampler(scaffold_grammar()), 60, rng)
    sentences = corpus.sentences + [c for t in corpus.sentences[:15] for c in t.children
                                    if c.children]
    chunks = np.array_split(rng.permutation(len(sentences)), 4)
    return ["\n".join(_ptb(sentences[i], rng) for i in chunk) for chunk in chunks]


def _conllu_texts(seed):
    rng = np.random.default_rng(seed)
    return [to_conllu([random_projective_graph(rng, int(rng.integers(1, 15)))
                       for _ in range(25)]) for _ in range(3)]


def _reference_derivations(texts, flags):
    """Each file's derivations, read by the reference readers."""
    if "conllu" in flags:
        config = cli._conversion_config(cli.build_parser().parse_args(
            ["induce", *flags, "x"]))
        return [reference_count_conllu(text, config)[0] for text in texts]
    options = dict(drop_labels=DEFAULT_DROP_LABELS, strip_tags="--strip-tags" in flags,
                   preterminalize="--no-preterminalize" not in flags)
    return [[derivation(t) for t in reference_read(text, **options)] for text in texts]


@pytest.mark.parametrize("flags", [[], ["--strip-tags", "--no-preterminalize"],
                                   ["--format", "conllu"],
                                   ["--format", "conllu", "--use-form", "--unlabeled"]],
                         ids=["ptb", "ptb-words", "conllu", "conllu-form"])
def test_induce_writes_the_counter_grammar(flags, tmp_path):
    # Several files, and for the bracketed ones several root labels: rules
    # in the first-encounter order of all files read in turn, the synthetic
    # root's last, as a Counter of rule keys gives them.
    conllu = "conllu" in flags
    texts = _conllu_texts(3) if conllu else _several_root_texts(3)
    paths = _write(tmp_path, texts, ".conllu" if conllu else ".mrg")
    out = tmp_path / "grammar"
    assert cli.main(["induce", *flags, "-o", str(out), *paths]) == 0
    pooled = [d for file in _reference_derivations(texts, flags) for d in file]
    expected = reference_dumps(reference_counts_grammar(RuleCounts(pooled)))
    assert out.read_text(encoding="utf-8") == expected
    if not conllu:
        assert expected.startswith(f"#root {grammar.SYNTHETIC_ROOT}\n")


@pytest.mark.parametrize("smoother", list(SmootherKind), ids=lambda s: s.value)
def test_shuffled_incremental_equals_reference_prefixes(smoother, tmp_path, capsys):
    # The CLI's curve over a shuffle at a fixed seed has, at every step, the
    # bits of SITE of the grammar counted from that prefix of the shuffled
    # pool.
    texts = _several_root_texts(4)
    paths = _write(tmp_path, texts, ".mrg")
    assert cli.main(["incremental", "--order", "shuffled", "--seed", "17",
                     "--smoother", smoother.value, *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# order=shuffled seed=17 generator=pcg64"
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    files = _reference_derivations(texts, [])
    pool = [d for file in files for d in file]
    permuted = [pool[i] for i in np.random.default_rng(17).permutation(len(pool))]
    end = 0
    for row, file in zip(rows, files, strict=True):
        end += len(file)
        reference = reference_counts_grammar(RuleCounts(permuted[:end]))
        assert int(row["cumulative_sentences"]) == end
        assert float(row["entropy_bits"]) == reference_site(reference, smoother)


def test_treebank_commands_read_no_derivation_and_look_up_no_key(tmp_path, monkeypatch,
                                                                 capsys):
    # The read, induce, site, rate, report and incremental path counts rule
    # ids: no Derivation is made and no (lhs, rhs) key is looked up in a
    # grammar.
    paths = _write(tmp_path, _several_root_texts(5), ".mrg")
    conllu = _write(tmp_path, _conllu_texts(5), ".conllu")

    def forbidden(*args, **kwargs):
        raise AssertionError("a Derivation or a rule key lookup on the count path")

    monkeypatch.setattr(trees, "Derivation", forbidden)
    monkeypatch.setattr(grammar.Pcfg, "_rule_ids", property(forbidden))
    for argv in (["site", *paths], ["rate", *paths], ["report", *paths],
                 ["incremental", *paths], ["incremental", "--order", "shuffled", *paths],
                 ["site", "--format", "conllu", *conllu],
                 ["incremental", "--format", "conllu", *conllu]):
        assert cli.main(argv) == 0, capsys.readouterr().err


def _sampled_rows(truth, rows, seed):
    """Count rows over `truth`'s rules of samples of growing size."""
    sampler = Sampler(truth)
    rng = np.random.default_rng(seed)
    return np.array([_count_row(truth, chain.from_iterable(
        sampler.sample(rng).rules for _ in range(1 + i % 7 * 9))) for i in range(rows)])


class TestSiteRowBlocks:
    def test_blocks_give_the_bits_of_one_row_calls(self):
        truth = grammar.induce(sample_corpus(Sampler(scaffold_grammar()), 200,
                                             np.random.default_rng(6)))
        smoothers = list(SmootherKind)
        for rows in (1, estimators._BLOCK_ROWS, 2 * estimators._BLOCK_ROWS + 3):
            counts = _sampled_rows(truth, rows, rows)
            got = site_rows(truth, counts, smoothers)
            one = np.vstack([site_rows(truth, row[None], smoothers) for row in counts])
            assert got.tobytes() == one.tobytes()

    def test_peak_memory_does_not_grow_with_the_rows(self):
        truth = grammar.induce(sample_corpus(Sampler(scaffold_grammar()), 400,
                                             np.random.default_rng(7)))
        counts = np.repeat(truth.freq[None], 64, axis=0)
        smoothers = list(SmootherKind)

        def peak(rows):
            tracemalloc.start()
            try:
                site_rows(truth, rows, smoothers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = peak(counts[:estimators._BLOCK_ROWS])
        assert peak(counts) < 1.25 * block
