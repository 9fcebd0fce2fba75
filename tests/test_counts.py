"""The count path: an induced grammar's MLU, entropies, rate and SITE from its
rule counts, checked against the linear solve, and the integer certificate
that lets it skip the solve, one row of counts at a time, checked against
the certificate that tests each strongly connected block of M."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treebank_entropy.grammar
from oracles import (
    random_projective_graph,
    reference_certify_counts,
    reference_rule_arrays,
    reference_search_certificate,
    reference_smoothed_local_entropies,
)
from synthetic import sample_corpus, scaffold_grammar
from test_depconv import to_conllu
from test_properties import CORPORA
from treebank_entropy import entropy
from treebank_entropy.cli import build_parser, main
from treebank_entropy.cli import _merge, _read_files
from treebank_entropy.entropy import (
    characteristic_matrix,
    count_totals,
    local_entropies,
    local_lengths,
    root_values,
    solve_system,
)
from treebank_entropy.errors import DivergentGrammarError, NumericalError
from treebank_entropy.estimators import SmootherKind, site_rows
from treebank_entropy.grammar import Pcfg, Rule, Sampler, dumps, induce, loads
from treebank_entropy.trees import Corpus, write_bracketed

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: The sum over rules that each count-path value is, against the solve.
REL = 1e-12


def entropy_columns(grammar):
    """Local entropies, then every smoother's estimate of them, table by
    table."""
    return np.column_stack([
        local_entropies(grammar),
        *(reference_smoothed_local_entropies(grammar, s) for s in SmootherKind),
    ])


def solved_root_row(grammar, columns):
    x = solve_system(characteristic_matrix(grammar),
                     np.column_stack((local_lengths(grammar), columns)))
    return x[grammar.nt_index[grammar.root]]


def assert_count_path_matches_solve(grammar):
    # MLU and entropy from root_values, every smoother's SITE from the one
    # row of the grammar's own frequencies.
    assert count_totals(grammar) is not None
    columns = entropy_columns(grammar)
    got = np.concatenate((root_values(grammar),
                          site_rows(grammar, grammar.freq[None], list(SmootherKind))[0]))
    np.testing.assert_allclose(got, solved_root_row(grammar, columns), rtol=REL, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(CORPORA)
def test_count_path_matches_solve_on_random_trees(trees):
    assert_count_path_matches_solve(induce(Corpus(trees)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_count_path_matches_solve_on_sampled_corpora(seed, size):
    rng = np.random.default_rng(seed)
    corpus = sample_corpus(Sampler(scaffold_grammar()), size, rng)
    assert_count_path_matches_solve(induce(corpus))


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The benchmark's three inputs at its sizes, seed 41."""
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    work = tmp_path_factory.mktemp("bench")
    bank = inputs.write_conllu(work / "wide.conllu", 41, 1600, 800)
    files = inputs.write_treebank(work, 41, 28000, 20)
    (source,) = inputs.write_treebank(work, inputs.SCAFFOLD_SEED, 12000, 1,
                                      prefix="sweep")
    parse = build_parser().parse_args
    wide = parse(["site", "--format", "conllu", "--use-form", "--unlabeled", "x"])
    ptb = parse(["site", "x"])
    sweep = _merge(_read_files([str(source.path)], ptb))
    return {
        "wide_grammar": induce(_merge(_read_files([str(bank.path)], wide))),
        "treebank_files": induce(_merge(_read_files([str(f.path) for f in files], ptb))),
        "sweep": induce(sweep),
        "sweep_source": sweep,
    }


@pytest.mark.parametrize("workload", ["wide_grammar", "treebank_files", "sweep"])
def test_count_path_matches_solve_on_bench_inputs(bench_inputs, workload):
    assert_count_path_matches_solve(bench_inputs[workload])


GRAMMAR = Pcfg(
    "S",
    [
        Rule("S", ("a", "S"), 0.25, 5),
        Rule("S", ("B", "S"), 0.25, 5),
        Rule("S", ("a",), 0.5, 10),
        Rule("B", ("b",), 0.6, 3),
        Rule("B", ("c", "B", "c"), 0.4, 2),
    ],
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def sampled_files(tmp_path, seed):
    """Two PTB files of trees sampled from GRAMMAR."""
    rng = np.random.default_rng(seed)
    sampler = Sampler(GRAMMAR)
    return [
        write(tmp_path / f"{name}.mrg", "\n".join(
            write_bracketed(t) for t in sample_corpus(sampler, size, rng).sentences))
        for name, size in (("a", 40), ("b", 25))
    ]


def test_cli_commands_build_no_matrix_and_solve_nothing(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the count path builds no M and solves nothing")

    monkeypatch.setattr(entropy, "solve_system", refuse)
    monkeypatch.setattr(entropy, "characteristic_matrix", refuse)
    files = sampled_files(tmp_path, 3)
    grammar = str(tmp_path / "induced.txt")
    options = ["--no-preterminalize"]
    for argv in (
        ["site", *options, *files],
        ["site", "--smoother", "ml", *options, *files],
        ["report", *options, *files],
        ["incremental", *options, *files],
        ["incremental", "--order", "shuffled", *options, *files],
        ["converge", "--sizes", "2,7", "--replications", "2", *options, *files],
        ["entropy", *options, *files],
        ["induce", "-o", grammar, *options, *files],
        ["entropy", "--grammar", grammar],
        ["mlu", "--grammar", grammar],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["rate", *options, *files]) == 0
    from_treebank = capsys.readouterr().out
    assert main(["rate", "--grammar", grammar]) == 0
    assert capsys.readouterr().out == from_treebank


def test_no_command_runs_tarjan_on_one_block(tmp_path, monkeypatch, capsys):
    # The certificate is a search from the root, and the radius trims M's
    # graph and checks whether the rest is one block: no command runs
    # Tarjan's search for the blocks of these grammars, whose rest is empty
    # (GRAMMAR's) or one block (A and B call each other), and rate iterates
    # that block once.  Two such blocks, one feeding the other, make rate
    # split the rest with Tarjan's search, and only the rest.
    real, perron = entropy._strong_components, entropy._perron_upper_bound
    blocks, iterated = [], []

    def refuse(*args):
        raise AssertionError("Tarjan's search ran")

    def split(n, *args):
        blocks.append(n)
        return real(n, *args)

    def iterate(size, *args):
        iterated.append(size)
        return perron(size, *args)

    sampled = sampled_files(tmp_path, 3)
    one = [write(tmp_path / "one.mrg", "(S (A (B (A x) y)))\n(S (A x))\n"),
           write(tmp_path / "one_more.mrg", "(S (A (B (A (B (A x) y) y) y)))\n")]
    two = [write(tmp_path / "two.mrg",
                 "(S (A (B (A (C (D (C x) y))) y)) z)\n(S (A (C x)) z)\n")]
    options = ["--no-preterminalize"]
    monkeypatch.setattr(entropy, "_strong_components", refuse)
    monkeypatch.setattr(entropy, "_perron_upper_bound", iterate)
    for files, perron_calls in ((sampled, []), (one, [2])):
        grammar = str(tmp_path / "induced.txt")
        for argv in (
            ["site", *options, *files],
            ["report", *options, *files],
            ["incremental", *options, *files],
            ["converge", "--sizes", "2,7", "--replications", "2", *options, *files],
            ["entropy", *options, *files],
            ["mlu", *options, *files],
            ["induce", "-o", grammar, *options, *files],
            ["entropy", "--grammar", grammar],
            ["mlu", "--grammar", grammar],
        ):
            assert main(argv) == 0, argv
        assert iterated == []
        for argv in (["rate", *options, *files], ["rate", "--grammar", grammar]):
            assert main(argv) == 0, argv
            assert iterated == perron_calls, argv
            iterated.clear()
    monkeypatch.setattr(entropy, "_strong_components", split)
    assert main(["rate", *options, *two]) == 0
    assert (blocks, iterated) == ([4], [2, 2])  # A, B, C, D; S is trimmed
    capsys.readouterr()


def test_cli_count_paths_build_no_rule(tmp_path, monkeypatch, capsys):
    # Every command that reads treebanks or a grammar file into numbers runs
    # on the interned arrays: with Rule refusing to be built, each exits 0
    # and prints what it prints with Rule at hand.
    rng = np.random.default_rng(5)
    sampler = Sampler(GRAMMAR)
    ptb = [
        write(tmp_path / f"{name}.mrg", "\n".join(
            write_bracketed(t) for t in sample_corpus(sampler, size, rng).sentences))
        for name, size in (("a", 30), ("b", 20))
    ]
    conllu = [
        write(tmp_path / f"{name}.conllu", to_conllu(
            [random_projective_graph(rng, int(rng.integers(1, 12))) for _ in range(size)]))
        for name, size in (("c", 30), ("d", 20))
    ]
    commands = []
    for files, options in ((ptb, ["--no-preterminalize"]), (conllu, ["--format", "conllu"]),
                           (conllu, ["--format", "conllu", "--use-form", "--unlabeled"])):
        grammar = str(tmp_path / f"induced{len(commands)}.txt")
        commands += [
            ["induce", "-o", grammar, *options, *files],
            ["rate", *options, *files],
            ["site", *options, *files],
            ["report", *options, *files],
            ["incremental", "--order", "shuffled", *options, *files],
            ["converge", "--sizes", "2,7", "--replications", "2", *options, *files],
            ["rate", "--grammar", grammar],
            ["entropy", "--grammar", grammar],
            ["mlu", "--grammar", grammar],
        ]
    printed = []
    for argv in commands:
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("the count path builds no Rule")

    monkeypatch.setattr(treebank_entropy.grammar, "Rule", refuse)
    for argv, out in zip(commands, printed):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


PROBABILITY_ONLY = """\
#root S
0.25\t0\tS -> a S
0.25\t0\tS -> B S
0.5\t0\tS -> a
0.75\t0\tB -> b
0.25\t0\tB -> c B c
"""


@pytest.mark.parametrize("command, printed", [
    ("rate", "entropy\t3.540852082972755\nmlu\t2.333333333333333\n"
             "rate\t1.5175080355597523\nspectral_radius\t0.5\n"),
    ("entropy", "entropy_bits\t3.540852082972755\n"),
    ("mlu", "mlu\t2.333333333333333\n"),
])
def test_probability_only_file_is_solved(tmp_path, monkeypatch, capsys, command, printed):
    # The bytes printed before the count path existed.
    solves = []
    real = entropy.solve_system

    def spy(matrix, vector):
        solves.append(np.shape(vector))
        return real(matrix, vector)

    monkeypatch.setattr(entropy, "solve_system", spy)
    path = write(tmp_path / "g.txt", PROBABILITY_ONLY)
    assert main([command, "--grammar", path]) == 0
    assert capsys.readouterr().out == printed
    assert len(solves) == 1


def relative_frequency_grammar(root, counts):
    """The grammar with `counts` ((lhs, rhs) -> f) and the probabilities
    `induce` gives them."""
    totals = {}
    for (lhs, _), f in counts.items():
        totals[lhs] = totals.get(lhs, 0) + f
    return Pcfg(root, [Rule(lhs, rhs, f / totals[lhs], f)
                       for (lhs, rhs), f in counts.items()])


def test_mutated_count_never_gives_a_wrong_value():
    # Change any one count of an induced grammar, with or without the
    # probabilities following it.  Kept probabilities no longer equal the
    # relative frequencies (unless the rule is its left-hand side's only
    # one), so the grammar leaves the count path; refitted ones break the
    # balance of roots, or keep it and get the value the solve gives.  One
    # changed count that keeps the balance keeps the flow into every block
    # of M, so only a table that already had a closed block fails the
    # certificate (test_closed_block_fails_certificate).
    corpus = sample_corpus(Sampler(scaffold_grammar()), 60, np.random.default_rng(8))
    grammar = induce(corpus)
    counts = {(r.lhs, r.rhs): r.freq for r in grammar.rules}
    for key in counts:
        for delta in (-1, 1):
            if counts[key] + delta < 1:
                continue
            altered = {**counts, key: counts[key] + delta}
            kept_probs = Pcfg(grammar.root, [
                Rule(r.lhs, r.rhs, r.prob, altered[r.lhs, r.rhs])
                for r in grammar.rules])
            refit = relative_frequency_grammar(grammar.root, altered)
            if len(grammar.rules_for(key[0])) > 1:
                assert count_totals(kept_probs) is None
            for mutant in (kept_probs, refit):
                if count_totals(mutant) is not None:
                    assert_count_path_matches_solve(mutant)


CLOSED_BLOCK = """\
#root S
1\t1\tS -> a
0.5\t2\tA -> b A
0.5\t2\tA -> c A
"""


def test_closed_block_fails_certificate(tmp_path, monkeypatch, capsys):
    # Counts, probabilities and roots agree, but A's block receives no
    # occurrence from outside: its counts are a left eigenvector of M with
    # eigenvalue 1.  The certificate, not the solve, rejects it.
    def refuse(*args, **kwargs):
        raise AssertionError("the count path solves nothing")

    path = write(tmp_path / "closed.txt", CLOSED_BLOCK)
    monkeypatch.setattr(entropy, "solve_system", refuse)
    for command in ("rate", "entropy", "mlu"):
        assert main([command, "--grammar", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "receive no occurrence from outside" in captured.err


@pytest.mark.parametrize("freq", ["0", "-3", str(10**400)])
def test_frequencies_off_the_count_path(tmp_path, capsys, freq):
    # Zero, negative and huge counts leave the grammar to the solve.
    path = write(tmp_path / "g.txt",
                 f"#root S\n0.5\t{freq}\tS -> a S\n0.5\t{freq}\tS -> a\n")
    assert main(["rate", "--grammar", path]) == 0
    assert capsys.readouterr().out.startswith("entropy\t2.0\nmlu\t2.0\n")
    assert count_totals(loads(open(path, encoding="utf-8").read())) is None


def test_dumped_grammar_keeps_count_totals():
    grammar = induce(sample_corpus(Sampler(GRAMMAR), 30, np.random.default_rng(4)))
    totals = count_totals(loads(dumps(grammar)))
    assert totals is not None
    assert totals.sentences == 30
    np.testing.assert_array_equal(totals.occurrences, count_totals(grammar).occurrences)


def test_site_rows_names_the_row_that_fails_its_certificate():
    # GRAMMAR's rules are S -> a S, S -> B S, S -> a, B -> b, B -> c B c.
    # Whole trees have N = f(S -> a) and f(B -> b) = f(S -> B S).
    good = np.array([[5, 5, 10, 5, 2], [0, 0, 1, 0, 0], [1, 1, 2, 1, 0]])
    unbalanced = [5, 5, 10, 6, 2]  # one B with no parent
    unfed = [0, 0, 1, 0, 2]  # B -> c B c, never reached from S
    smoothers = list(SmootherKind)
    for bad, error, message in (
        (unbalanced, NumericalError, "not those of whole trees"),
        (unfed, DivergentGrammarError, "receive no occurrence from outside"),
    ):
        with pytest.raises(NumericalError, match=f"^row 2: .*{message}") as raised:
            site_rows(GRAMMAR, np.insert(good, 2, bad, axis=0), smoothers)
        assert type(raised.value) is error
    assert site_rows(GRAMMAR, good[:0], smoothers).shape == (0, len(smoothers))
    values = site_rows(GRAMMAR, good, smoothers)
    for row, value in zip(good, values):
        one = site_rows(GRAMMAR, row[None], smoothers)[0]
        assert value.tobytes() == one.tobytes()


#: The sample sizes of the benchmark's sweep workload (bench/run.py).
SWEEP_SIZES = (1, 2, 3, 5, 7, 11, 17, 25, 37, 55, 82, 122, 1000)


def verdict(certify, *args):
    """What a certificate returns, or the type and message of what it raises."""
    try:
        return certify(*args)
    except DivergentGrammarError as err:
        return type(err), str(err)


def certificate_verdicts(grammar, rows):
    """The search certificate's verdict on each row, which must be the block
    certificate's and the Python search's: N, None, or the error and its
    message."""
    edges = entropy._edges_by_lhs(grammar, entropy._children(grammar))
    arrays = reference_rule_arrays(grammar)
    verdicts = []
    for row in rows:
        got = verdict(entropy.certify_counts, grammar, row, edges)
        assert got == verdict(reference_certify_counts, grammar, row, arrays)
        assert got == verdict(reference_search_certificate, grammar, row)
        verdicts.append(got)
    return verdicts


def site_verdict(grammar, rows):
    """What site_rows raises on `rows`, its type and message, or None."""
    try:
        site_rows(grammar, np.array(rows), [SmootherKind.ML])
    except NumericalError as err:
        return type(err), str(err)
    return None


def reference_site_verdict(grammar, rows):
    """site_verdict from the Python search: the first row it rejects."""
    for t, row in enumerate(rows):
        got = verdict(reference_search_certificate, grammar, row)
        if got is None:
            return NumericalError, f"row {t}: rule counts that are not those of whole trees"
        if type(got) is tuple:
            return got[0], f"row {t}: {got[1]}"
    return None


def test_certificate_matches_blocks_on_sweep_rows(bench_inputs, monkeypatch):
    # The rows of the sweep workload's converge at seed 0, and each of them
    # with one more count on a rule whose right-hand side holds its own
    # left-hand side: a loop that the row may or may not reach.
    import treebank_entropy.analysis as analysis

    tables, rows = [], []

    def capture(grammar, counts, smoothers):
        tables.append(grammar)
        rows.extend(counts)
        return site_rows(grammar, counts, smoothers)

    monkeypatch.setattr(analysis, "site_rows", capture)
    analysis.converge(bench_inputs["sweep_source"], sizes=SWEEP_SIZES, replications=2,
                      seed=0)
    truth = tables[0]
    rule, child, _ = entropy._children(truth)
    loops = np.unique(rule[truth.lhs[rule] == child])
    looped = []
    for row in rows:
        for r in loops:
            looped.append(row.copy())
            looped[-1][r] += 1
    assert (len(rows), loops.size) == (2 * len(SWEEP_SIZES), 41)
    verdicts = certificate_verdicts(truth, rows + looped)
    assert all(type(v) is int for v in verdicts[:len(rows)])
    assert {type(v) for v in verdicts[len(rows):]} == {int, tuple, type(None)}
    # The rows searched together, and one a block, give each row its verdict.
    edges = entropy._edges_by_lhs(truth, entropy._children(truth))
    together = entropy.certified_rows(truth, np.array(rows + looped), edges)
    monkeypatch.setattr(entropy, "SEARCH_EDGES", 1)
    alone = entropy.certified_rows(truth, np.array(rows + looped), edges)
    for sentences, unfed in (together, alone):
        for v, n, u in zip(verdicts, sentences.tolist(), unfed.tolist()):
            if v is None:
                assert n == 0
            elif type(v) is int:
                assert (n, u) == (v, False)
            else:
                assert n > 0 and u
    # site_rows names the row that fails, wherever it stands.
    assert site_verdict(truth, rows) is None
    for k, row in enumerate(looped[::7]):
        block = rows[:k % len(rows)] + [row] + rows[:3]
        assert site_verdict(truth, block) == reference_site_verdict(truth, block)


def test_certificate_matches_blocks_on_an_unreached_loop():
    # A -> A B is a loop that nothing feeds, and it feeds B: two
    # non-terminals go unreached, in one block that nothing feeds.
    grammar = Pcfg("S", [Rule("S", ("a",), 0.5, 1), Rule("S", ("A",), 0.5, 1),
                         Rule("A", ("A", "B"), 0.5, 1), Rule("A", ("c",), 0.5, 1),
                         Rule("B", ("b",), 1.0, 1)])
    unfed, fed = certificate_verdicts(grammar, np.array([[1, 0, 1, 0, 1], [0, 1, 1, 1, 1]]))
    assert unfed[0] is DivergentGrammarError
    assert fed == 1


def chain_grammar(links):
    """S -> a | b X1, X1 -> X1 X2 | b X2, Xi -> b Xi+1 and X<links> -> a."""
    rules = [Rule("S", ("a",), 0.5, 1), Rule("S", ("b", "X1"), 0.5, 1),
             Rule("X1", ("X1", "X2"), 0.5, 1)]
    rules += [Rule(f"X{i}", ("b", f"X{i + 1}"), 0.5 if i == 1 else 1.0, 1)
              for i in range(1, links)]
    return Pcfg("S", [*rules, Rule(f"X{links}", ("a",), 1.0, 1)])


@pytest.mark.parametrize("links", [2000, 20000])
def test_certificate_matches_blocks_on_long_chains(links):
    # The chain from the root, and the chain under an unfed loop at its
    # head, X1 -> X1 X2, which leaves every link unreached.
    grammar = chain_grammar(links)
    reached = np.ones(len(grammar), dtype=np.int64)
    reached[[0, 2]] = 0
    unfed = np.ones(len(grammar), dtype=np.int64)
    unfed[[1, 3]] = 0
    got_reached, got_unfed = certificate_verdicts(grammar, [reached, unfed])
    assert got_reached == 1
    assert got_unfed[0] is DivergentGrammarError


def test_deep_chain_takes_bounded_numpy_levels(monkeypatch):
    # Each level of the frontier search takes one link of a 20,000-deep
    # chain from the root: NUMPY_ROUNDS levels run in numpy, and the rest
    # depth first in Python.
    levels, real = [], entropy._level

    def count(*args):
        levels.append(args[2].size)
        return real(*args)

    monkeypatch.setattr(entropy, "_level", count)
    grammar = chain_grammar(20000)
    reached = np.ones(len(grammar), dtype=np.int64)
    reached[[0, 2]] = 0
    assert certificate_verdicts(grammar, [reached]) == [1]
    assert levels == [1] * entropy.NUMPY_ROUNDS and entropy.NUMPY_ROUNDS <= 100


def test_negative_count_is_no_count_of_trees():
    # The roots identity holds and B's block has no occurrences, so the
    # block certificate passes this row; its negative count makes it no
    # count of trees.
    grammar = Pcfg("S", [Rule("S", ("a",), 1.0, 1), Rule("B", ("b",), 0.5, 1),
                         Rule("B", ("A",), 0.5, 1), Rule("A", ("a",), 1.0, 1)])
    row = np.array([1, -1, 1, 1])
    assert reference_certify_counts(grammar, row) == 1
    edges = entropy._edges_by_lhs(grammar, entropy._children(grammar))
    assert entropy.certify_counts(grammar, row, edges) is None
    assert reference_search_certificate(grammar, row) is None
