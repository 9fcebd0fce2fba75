import argparse
import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synthetic import sample_corpus
import treebank_entropy
from treebank_entropy import analysis, cli, tree_objects, trees
from treebank_entropy.cli import build_parser, main
from treebank_entropy.estimators import SmootherKind
from treebank_entropy.grammar import DEFAULT_MAX_NODES, Pcfg, Rule, Sampler, write_grammar
from treebank_entropy.trees import write_bracketed

GRAMMAR = Pcfg(
    "S",
    [
        Rule("S", ("a", "S"), 0.25, 5),
        Rule("S", ("b", "S"), 0.25, 5),
        Rule("S", ("a",), 0.5, 10),
    ],
)

CONLLU = """\
1\tI\t_\tPRP\t_\t_\t2\tnsubj\t_\t_
2\trun\t_\tVBP\t_\t_\t0\troot\t_\t_

1\tbirds\t_\tNNS\t_\t_\t2\tnsubj\t_\t_
2\tsing\t_\tVBP\t_\t_\t0\troot\t_\t_
3\tloudly\t_\tRB\t_\t_\t2\tadvmod\t_\t_
"""


#: A sentence whose arcs 3 -> 1 and 4 -> 2 cross.
NON_PROJECTIVE = """\
1\ta\t_\tA\t_\t_\t3\tx\t_\t_
2\tb\t_\tB\t_\t_\t4\ty\t_\t_
3\tc\t_\tC\t_\t_\t0\troot\t_\t_
4\td\t_\tD\t_\t_\t3\tz\t_\t_
"""

TWO_ROOTS = """\
1\ta\t_\tA\t_\t_\t0\troot\t_\t_
2\tb\t_\tB\t_\t_\t0\troot\t_\t_
"""

CYCLE = """\
1\ta\t_\tA\t_\t_\t2\tx\t_\t_
2\tb\t_\tB\t_\t_\t1\ty\t_\t_
3\tc\t_\tC\t_\t_\t0\troot\t_\t_
"""

@pytest.fixture
def treebank(tmp_path):
    corpus = sample_corpus(Sampler(GRAMMAR), 50, np.random.default_rng(7))
    path = tmp_path / "bank.mrg"
    path.write_text(
        "\n".join(write_bracketed(t) for t in corpus.sentences), encoding="utf-8"
    )
    return path


@pytest.fixture
def grammar_file(tmp_path):
    path = tmp_path / "grammar.txt"
    write_grammar(GRAMMAR, path)
    return path


@pytest.fixture
def xy_csv(tmp_path):
    path = tmp_path / "xy.csv"
    path.write_text("x,y\n1.0,2.1\n2.0,3.9\n3.0,6.1\n", encoding="utf-8")
    return path


def _child_env(**overrides):
    """This environment with the package's source on PYTHONPATH; an
    override of None removes the variable."""
    src = str(Path(treebank_entropy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _cli_process(argv, env=None, stdout=subprocess.PIPE):
    """`python -m treebank_entropy.cli` as a child process."""
    return subprocess.run(
        [sys.executable, "-m", "treebank_entropy.cli", *map(str, argv)],
        env=env or _child_env(), stdout=stdout, stderr=subprocess.PIPE,
        timeout=120,
    )


class TestBasicCommands:
    def test_induce_round_trips(self, treebank, capsys):
        assert main(["induce", "--no-preterminalize", str(treebank)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#root S")
        assert "S -> a S" in out

    def test_entropy_from_grammar(self, grammar_file, capsys):
        assert main(["entropy", "--grammar", str(grammar_file)]) == 0
        value = float(capsys.readouterr().out.split("\t")[1])
        assert value == pytest.approx(3.0, abs=1e-9)  # h0 1.5 bits, m 0.5

    def test_mlu_of_files(self, treebank, capsys):
        assert main(["mlu", "--no-preterminalize", str(treebank)]) == 0
        value = float(capsys.readouterr().out.split("\t")[1])
        assert 1.0 <= value <= 4.0

    def test_rate_json(self, grammar_file, capsys):
        assert main(["rate", "--grammar", str(grammar_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rate"] == pytest.approx(
            payload["entropy"] / payload["mlu"]
        )
        assert payload["spectral_radius"] == pytest.approx(0.5)

    def test_site_smoothers(self, treebank, capsys):
        for smoother in ("ml", "cae", "cwj"):
            assert main(
                ["site", "--smoother", smoother, "--no-preterminalize",
                 str(treebank)]
            ) == 0
            out = capsys.readouterr().out
            assert f"site-{smoother}" in out

    def test_deterministic_grammar_prints_positive_zero(self, tmp_path, capsys):
        path = tmp_path / "deterministic.txt"
        write_grammar(Pcfg("S", [Rule("S", ("a",), 1.0, 1)]), path)
        assert main(["rate", "--grammar", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entropy\t0.0\n" in out
        assert "rate\t0.0\n" in out
        assert "-0.0" not in out

    def test_sample_deterministic(self, grammar_file, capsys):
        argv = ["sample", "--grammar", str(grammar_file), "-n", "5",
                "--seed", "13"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert all(line.startswith("(S") for line in first.strip().splitlines())


class TestConvert:
    def test_conllu_to_trees(self, tmp_path, capsys):
        path = tmp_path / "sents.conllu"
        path.write_text(CONLLU, encoding="utf-8")
        assert main(["convert", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "(ROOT (VBP (VBP/nsubj (PRP PRP*)) VBP*))"
        assert lines[1] == (
            "(ROOT (VBP (VBP/nsubj (NNS NNS*)) VBP* (VBP/advmod (RB RB*))))"
        )

    def test_unlabeled_conversion(self, tmp_path, capsys):
        path = tmp_path / "sents.conllu"
        path.write_text(CONLLU, encoding="utf-8")
        assert main(["convert", "--unlabeled", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "(ROOT (VBP (PRP PRP*) VBP*))"

    def test_nonprojective_skip_reported(self, tmp_path, capsys):
        bad = (
            "1\ta\t_\tA\t_\t_\t3\tx\t_\t_\n"
            "2\tb\t_\tB\t_\t_\t4\ty\t_\t_\n"
            "3\tc\t_\tC\t_\t_\t0\troot\t_\t_\n"
            "4\td\t_\tD\t_\t_\t3\tz\t_\t_\n"
        )
        path = tmp_path / "bad.conllu"
        path.write_text(bad, encoding="utf-8")
        assert main(["convert", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        assert "non-projective" in captured.err

    def test_nonprojective_skip_reported_when_reading(self, tmp_path, capsys):
        bad = (
            "1\ta\t_\tA\t_\t_\t3\tx\t_\t_\n"
            "2\tb\t_\tB\t_\t_\t4\ty\t_\t_\n"
            "3\tc\t_\tC\t_\t_\t0\troot\t_\t_\n"
            "4\td\t_\tD\t_\t_\t3\tz\t_\t_\n"
        )
        path = tmp_path / "mixed.conllu"
        path.write_text(CONLLU + "\n" + bad, encoding="utf-8")
        assert main(["site", "--format", "conllu", str(path)]) == 0
        captured = capsys.readouterr()
        assert "sentences\t2\n" in captured.out
        assert captured.err == f"{path}: skipped 1 non-projective sentence(s)\n"

    @pytest.mark.parametrize("command, flags, expected", [
        ("rate", [], "entropy\t2.0\nmlu\t2.5\nrate\t0.8\nspectral_radius\t0.0\n"),
        ("rate", ["--unlabeled", "--use-form"],
         "entropy\t1.0\nmlu\t2.5\nrate\t0.4\nspectral_radius\t0.0\n"),
        ("site", [], "entropy_bits\t3.5097750043269373\nmethod\tsite-cwj\nsentences\t2\n"),
        ("site", ["--unlabeled", "--use-form"],
         "entropy_bits\t1.7548875021634687\nmethod\tsite-cwj\nsentences\t2\n"),
    ])
    def test_nonprojective_sentence_skipped_bytes(self, tmp_path, capsys,
                                                  command, flags, expected):
        path = tmp_path / "mixed.conllu"
        path.write_text(CONLLU + "\n" + NON_PROJECTIVE, encoding="utf-8")
        assert main([command, "--format", "conllu", *flags, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == f"{path}: skipped 1 non-projective sentence(s)\n"

    @pytest.mark.parametrize("command", ["rate", "site", "induce"])
    @pytest.mark.parametrize("malformed, message", [
        (TWO_ROOTS + "\n" + CYCLE, "expected exactly one root, found 2"),
        (CYCLE + "\n" + TWO_ROOTS, "cycle through token 1"),
    ], ids=["two-roots-then-cycle", "cycle-then-two-roots"])
    def test_malformed_sentence_exits_2(self, tmp_path, capsys, command,
                                        malformed, message):
        path = tmp_path / "malformed.conllu"
        path.write_text(CONLLU + "\n" + malformed, encoding="utf-8")
        assert main([command, "--format", "conllu", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sentence 3 (line 8): {message}\n"

    @pytest.mark.parametrize("command", ["rate", "site", "induce", "convert"])
    def test_ids_out_of_sequence_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "skipped-id.conllu"
        path.write_text(CONLLU + "\n" + CYCLE.replace("3\tc", "4\tc"), encoding="utf-8")
        argv = [command, str(path)] if command == "convert" else [
            command, "--format", "conllu", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ID '4' out of sequence, expected 3 at line 10\n"

    def test_conllu_pipeline_site(self, tmp_path, capsys):
        path = tmp_path / "sents.conllu"
        path.write_text(CONLLU, encoding="utf-8")
        assert main(["site", "--format", "conllu", str(path)]) == 0
        assert "entropy_bits" in capsys.readouterr().out


class TestSweeps:
    def test_converge_csv(self, treebank, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(
            ["converge", "--no-preterminalize", "--sizes", "2,5",
             "--replications", "3", "--seed", "4", "-o", str(out),
             str(treebank)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("sample_size,estimator,mean")
        assert len(lines) == 1 + 2 * 6  # two sizes, four estimators + coverage

    def test_converge_threads_byte_identical(self, treebank, tmp_path):
        # The sweep is serial and seeded: two runs write the same bytes.
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["converge", "--no-preterminalize", "--sizes", "2,5",
                 "--replications", "4", "--seed", "11", "-o", str(out),
                 str(treebank)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_converge_ignores_site_threads(self, treebank, tmp_path, monkeypatch):
        # The sweep is serial: SITE_THREADS is no setting, whatever it holds.
        argv = ["converge", "--no-preterminalize", "--sizes", "2,5",
                "--replications", "3", "--seed", "11", str(treebank)]
        monkeypatch.delenv("SITE_THREADS", raising=False)
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        assert main([*argv, "-o", str(plain)]) == 0
        monkeypatch.setenv("SITE_THREADS", "abc")
        assert main([*argv, "-o", str(odd)]) == 0
        assert odd.read_bytes() == plain.read_bytes()

    def test_converge_mc_rows_equal_ml_rows(self, treebank, tmp_path):
        # mc, the cross-entropy of each sample's grammar on its own trees,
        # is the ML entropy: the two series print the same bytes.
        out = tmp_path / "rows.csv"
        assert main(
            ["converge", "--no-preterminalize", "--sizes", "1,3,20",
             "--replications", "3", "--seed", "2", "--estimators", "mc,ml",
             "--no-coverage", "-o", str(out), str(treebank)]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_series = {"mc": [], "ml": []}
        for row in rows:
            by_series[row[1]].append([row[0], *row[2:]])
        assert len(by_series["mc"]) == 3
        assert by_series["mc"] == by_series["ml"]

    def test_incremental_orders(self, treebank, tmp_path, capsys):
        other = tmp_path / "bank2.mrg"
        corpus = sample_corpus(Sampler(GRAMMAR), 30, np.random.default_rng(8))
        other.write_text(
            "\n".join(write_bracketed(t) for t in corpus.sentences),
            encoding="utf-8",
        )
        for order in ("original", "shuffled"):
            assert main(
                ["incremental", "--no-preterminalize", "--order", order,
                 "--seed", "2", str(treebank), str(other)]
            ) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[0].startswith(f"# order={order}")
            assert len(lines) == 4
        assert "seed=2" in lines[0]  # shuffle seed recorded for reproducibility

    def test_report_and_fit(self, treebank, tmp_path):
        report = tmp_path / "report.csv"
        assert main(
            ["report", "--no-preterminalize", "-o", str(report), str(treebank)]
        ) == 0
        assert main(
            ["fit", str(report), "--x", "mlu", "--y", "entropy_bits"]
        ) == 2  # a single file gives too few points
        triple = tmp_path / "triple.csv"
        triple.write_text(
            "x,y\n1.0,2.1\n2.0,3.9\n3.0,6.1\n", encoding="utf-8"
        )
        assert main(["fit", str(triple), "--x", "x", "--y", "y"]) == 0

    def test_fit_output_file(self, xy_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", str(xy_csv), "--x", "x", "--y", "y", "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["n"] == 3

    def test_report_json_output_file(self, treebank, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["report", "--no-preterminalize", "--json", "-o", str(out), str(treebank)]
        ) == 0
        assert capsys.readouterr().out == ""
        (record,) = json.loads(out.read_text(encoding="utf-8"))
        assert record["sentences"] == 50


class TestOptions:
    """Each subcommand accepts exactly the options its handler reads."""

    READER = {"--format", "--drop-label", "--strip-tags", "--no-preterminalize",
              "--unlabeled", "--use-form"}
    OUTPUT = {"--output"}
    JSON = {"--json"}
    SEED = {"--seed"}
    SMOOTHER = {"--smoother"}
    GRAMMAR = {"--grammar"}
    EXPECTED = {
        "induce": READER | OUTPUT,
        "entropy": READER | OUTPUT | JSON | GRAMMAR,
        "rate": READER | OUTPUT | JSON | GRAMMAR,
        "mlu": READER | OUTPUT | JSON | GRAMMAR,
        "site": READER | OUTPUT | JSON | SMOOTHER,
        "report": READER | OUTPUT | JSON | SMOOTHER,
        "sample": OUTPUT | SEED | GRAMMAR | {"--count", "--max-nodes"},
        "convert": {"--unlabeled", "--use-form"} | OUTPUT,
        "converge": READER | OUTPUT | SEED
        | {"--sizes", "--replications", "--estimators", "--no-coverage"},
        "incremental": READER | OUTPUT | SEED | SMOOTHER | {"--order"},
        "fit": OUTPUT | {"--x", "--y", "--no-intercept"},
    }

    def test_option_sets(self):
        (subparsers,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        accepted = {
            name: {
                max(a.option_strings, key=len)
                for a in sub._actions
                if a.option_strings and a.dest != "help"
            }
            for name, sub in subparsers.choices.items()
        }
        assert accepted == self.EXPECTED
        assert sum(map(len, accepted.values())) == 86

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--format", "conllu", "{csv}", "--x", "x", "--y", "y"],
            ["convert", "--format", "ptb", "{conllu}"],
            ["sample", "--use-form", "--grammar", "{grammar}"],
            ["rate", "--smoother", "cae", "--grammar", "{grammar}"],
            ["converge", "--smoother", "cae", "--no-preterminalize", "--sizes", "2",
             "--replications", "1", "{bank}"],
            ["site", "--seed", "3", "--no-preterminalize", "{bank}"],
            ["induce", "--json", "--no-preterminalize", "{bank}"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[1]}",
    )
    def test_unread_option_rejected(
        self, argv, treebank, grammar_file, xy_csv, tmp_path, capsys
    ):
        conllu = tmp_path / "sents.conllu"
        conllu.write_text(CONLLU, encoding="utf-8")
        paths = {"csv": xy_csv, "conllu": conllu, "grammar": grammar_file,
                 "bank": treebank}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    #: Each reader option's help, naming the format that reads it.
    READER_HELP = {
        "--unlabeled": "omit relation nodes when converting dependencies (conllu only)",
        "--use-form": "label dependency nodes by word form instead of POS (conllu only)",
        "--drop-label": "pre-terminal labels to strip (default: -NONE-; ptb only)",
        "--strip-tags": "cut -/= function-tag suffixes from internal labels (ptb only)",
        "--no-preterminalize":
            "keep word leaves instead of reducing to POS leaves (ptb only)",
    }

    @pytest.mark.parametrize(
        "command", ["induce", "entropy", "rate", "mlu", "site", "converge",
                    "incremental", "report", "convert"],
    )
    def test_reader_options_name_their_format(self, command):
        (subparsers,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        helps = {
            max(a.option_strings, key=len): a.help
            for a in subparsers.choices[command]._actions if a.option_strings
        }
        if command == "convert":  # converts only dependencies
            assert helps["--unlabeled"] == "omit relation nodes when converting dependencies"
            assert helps["--use-form"] == "label dependency nodes by word form instead of POS"
        else:
            assert {o: helps[o] for o in self.READER_HELP} == self.READER_HELP

    def test_library_values_written_out(self):
        (subparsers,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            (name, a.dest): a for name, sub in subparsers.choices.items()
            for a in sub._actions
        }
        assert options["site", "smoother"].choices == [k.value for k in SmootherKind]
        assert options["sample", "max_nodes"].default == DEFAULT_MAX_NODES
        shown = ",".join(analysis.DEFAULT_ESTIMATORS)
        assert f"(default: {shown})" in subparsers.choices["converge"].format_help()


def _parse_outcome(parse, argv, capsys):
    """The exit code, stdout and stderr with which `parse(argv)` exits."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out, err = capsys.readouterr()
    return stop.value.code, out, err


class TestOneSubcommandParser:
    """`main` gives only the invoked subcommand its arguments, and prints
    and exits as the whole parser does."""

    ARGVS = [["--help"], [], ["bogus"], ["--bogus", "site"], ["--", "rate", "--bogus"],
             *([name, "--help"] for name in TestOptions.EXPECTED),
             *([name, "--no-such-option"] for name in TestOptions.EXPECTED)]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-words")
    def test_help_and_usage_errors_equal_the_whole_parser(self, argv, capsys):
        assert (_parse_outcome(main, argv, capsys)
                == _parse_outcome(build_parser().parse_args, argv, capsys))

    @pytest.mark.parametrize("argv", [
        ["site", "{bank}"], ["rate", "{bank}"], ["report", "{bank}"],
        ["incremental", "--order", "shuffled", "--seed", "41", "{bank}", "{bank}"],
        ["converge", "--sizes", "1,3", "--replications", "2", "--estimators",
         "ml,mc,site-cae,site-cwj", "--seed", "41", "{bank}"],
        ["induce", "--format", "conllu", "--use-form", "--unlabeled", "-o", "{out}",
         "{conllu}"],
        ["rate", "--format", "conllu", "--use-form", "--unlabeled", "{conllu}"],
        ["site", "--format", "conllu", "--use-form", "--unlabeled", "{conllu}"],
        ["rate", "--grammar", "{grammar}"],
    ], ids=lambda argv: "-".join(a for a in argv if "{" not in a))
    def test_main_adds_arguments_for_the_invoked_subcommand_only(
        self, argv, grammar_file, tmp_path, monkeypatch, capsys
    ):
        bank, conllu = tmp_path / "bank.mrg", tmp_path / "sents.conllu"
        bank.write_text("(S (NP (DT the) (NN dog)) (VP (VBZ runs)))\n"
                        "(S (NP (NNS cats)) (VP (VBP sleep) (NP (NN dog))))\n",
                        encoding="utf-8")
        conllu.write_text(CONLLU, encoding="utf-8")
        paths = {"bank": bank, "conllu": conllu, "grammar": grammar_file,
                 "out": tmp_path / "out.grammar"}
        built = []

        def recording_build_parser(*args):
            built.append(build_parser(*args))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", recording_build_parser)
        assert main([arg.format(**paths) for arg in argv]) == 0
        (parser,) = built
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert subparsers.choices.keys() == TestOptions.EXPECTED.keys()
        with_arguments = [name for name, sub in subparsers.choices.items()
                          if any(a.dest != "help" for a in sub._actions)]
        assert with_arguments == [argv[0]]


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["entropy", "/nonexistent/path.mrg"]) == 2

    def test_malformed_treebank(self, tmp_path):
        path = tmp_path / "bad.mrg"
        path.write_text("((S (X x))", encoding="utf-8")
        assert main(["entropy", str(path)]) == 2

    def test_divergent_grammar_numerical(self, tmp_path, capsys):
        grammar = Pcfg(
            "S", [Rule("S", ("S", "S"), 0.9, 9), Rule("S", ("a",), 0.1, 1)]
        )
        path = tmp_path / "divergent.txt"
        write_grammar(grammar, path)
        for command in ("entropy", "rate"):
            assert main([command, "--grammar", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "spectral radius >= 1" in captured.err

    def test_no_input(self):
        assert main(["entropy"]) == 2

    def test_empty_symbol_not_written(self, tmp_path, capsys):
        # An empty FORM becomes the empty symbol, which no grammar file can
        # hold: "ROOT -> " would be refused when read back.
        bank = tmp_path / "empty.conllu"
        bank.write_text("1\t\tX\tNOUN\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        out = tmp_path / "g.txt"
        argv = ["induce", "--format", "conllu", "--use-form", "-o", str(out), str(bank)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: symbol '' is not serializable\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "probs",
        [("0.3", "0.3"), ("-0.5", "1.5"), ("nan", "0.5")],
        ids=["sum-below-one", "negative", "nan"],
    )
    @pytest.mark.parametrize("command", ["rate", "entropy", "mlu"])
    def test_invalid_grammar_rejected(self, tmp_path, capsys, command, probs):
        path = tmp_path / "invalid.txt"
        path.write_text(
            f"#root S\n{probs[0]}\t1\tS -> a S\n{probs[1]}\t1\tS -> a\n",
            encoding="utf-8",
        )
        assert main([command, "--grammar", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "option, value",
        [("--sizes", "x,1"), ("--replications", "0"), ("--replications", "-1")],
    )
    def test_converge_bad_numbers(self, treebank, capsys, option, value):
        argv = ["converge", "--no-preterminalize", "--sizes", "1",
                "--replications", "1", str(treebank)]
        argv[argv.index(option) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "option, value, reported",
        [("--count", "-3", "--count must not be negative, not -3"),
         ("--max-nodes", "1", "max_nodes must be at least 2, not 1"),
         ("--max-nodes", "0", "max_nodes must be at least 2, not 0"),
         ("--max-nodes", "-5", "max_nodes must be at least 2, not -5")],
    )
    def test_sample_bad_numbers(self, grammar_file, capsys, option, value, reported):
        assert main(["sample", "--grammar", str(grammar_file), option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reported}\n"

    @pytest.mark.parametrize(
        "argv, reported",
        [(["converge", "--no-preterminalize", "--sizes", "2", "--replications", "1",
           "{bank}"], "the seed must not be negative, not -1"),
         (["incremental", "--no-preterminalize", "--order", "shuffled", "{bank}",
           "{bank}"], "the seed must not be negative, not -1"),
         (["sample", "--grammar", "{grammar}"], "--seed must not be negative, not -1")],
        ids=["converge", "incremental", "sample"],
    )
    def test_negative_seed(self, treebank, grammar_file, capsys, argv, reported):
        paths = {"bank": treebank, "grammar": grammar_file}
        argv = [arg.format(**paths) for arg in argv]
        assert main([argv[0], "--seed", "-1", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {reported}\n"

    @pytest.mark.parametrize("option", ["--sizes", "--estimators"])
    def test_converge_empty_list(self, treebank, capsys, option):
        argv = ["converge", "--no-preterminalize", "--replications", "1",
                option, "", str(treebank)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra, reported",
        [(["{bank}"], "{bank}"), (["--strip-tags"], "--strip-tags"),
         (["--format", "conllu"], "--format"),
         (["--no-preterminalize", "{bank}"], "{bank} --no-preterminalize")],
        ids=["file", "strip-tags", "format", "both"],
    )
    @pytest.mark.parametrize("command", ["entropy", "rate", "mlu"])
    def test_grammar_with_treebank_input_rejected(
        self, grammar_file, treebank, capsys, command, extra, reported
    ):
        extra = [a.format(bank=treebank) for a in extra]
        assert main([command, "--grammar", str(grammar_file), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grammar leaves input unread: "
            f"{reported.format(bank=treebank)}\n"
        )

    @pytest.mark.parametrize(
        "options, reported",
        [(["--format", "conllu", "--drop-label", "X"],
          "conllu leaves input unread: --drop-label"),
         (["--format", "conllu", "--strip-tags"],
          "conllu leaves input unread: --strip-tags"),
         (["--format", "conllu", "--no-preterminalize"],
          "conllu leaves input unread: --no-preterminalize"),
         (["--no-preterminalize", "--strip-tags", "--format", "conllu",
           "--drop-label", "X", "--use-form"],
          "conllu leaves input unread: --drop-label --strip-tags --no-preterminalize"),
         (["--unlabeled"], "ptb leaves input unread: --unlabeled"),
         (["--use-form"], "ptb leaves input unread: --use-form"),
         (["--use-form", "--format", "ptb", "--strip-tags", "--unlabeled"],
          "ptb leaves input unread: --unlabeled --use-form")],
        ids=["conllu-drop-label", "conllu-strip-tags", "conllu-no-preterminalize",
             "conllu-all", "ptb-unlabeled", "ptb-use-form", "ptb-both"],
    )
    @pytest.mark.parametrize(
        "command", ["induce", "entropy", "rate", "mlu", "site", "converge",
                    "incremental", "report"],
    )
    def test_option_the_format_leaves_unread_rejected(
        self, tmp_path, capsys, command, options, reported
    ):
        # The file does not exist: the options are refused before any read.
        assert main([command, *options, str(tmp_path / "missing")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --format {reported}\n"

    @pytest.mark.parametrize(
        "argv, data, offset",
        [
            (["entropy", "{path}"], b"(S (A a\xff))", 8),
            (["entropy", "--format", "conllu", "{path}"], b"1\tI\t_\tPRP\t\xe9", 11),
            (["entropy", "--grammar", "{path}"], b"#root S\n1\t1\tS -> \xc3", 18),
        ],
        ids=["ptb", "conllu", "grammar"],
    )
    def test_input_not_utf8(self, tmp_path, capsys, argv, data, offset):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        argv = [str(path) if a == "{path}" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text at offset {offset}\n"

    @pytest.mark.parametrize(
        "text, reported",
        [
            ("x,y\n1.0,2.1\n2.0,abc\n3.0,6.1\n", "row 3, column 'y' 'abc' is not a number"),
            ("x,y\n1.0,2.1\n2.0,3.9\n3.0\n", "row 4, column 'y' is missing"),
            ("x,y\n1.0,2.1\nnan,3.9\n3.0,6.1\n", "row 3, column 'x' 'nan' is not finite"),
            ("x,y\n1.0,2.1\n2.0,3.9\n3.0,-Infinity\n",
             "row 4, column 'y' '-Infinity' is not finite"),
        ],
        ids=["non-numeric", "short-row", "nan", "infinite"],
    )
    def test_fit_bad_cell(self, tmp_path, capsys, text, reported):
        path = tmp_path / "xy.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["fit", "--x", "x", "--y", "y", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {reported}\n"

    @pytest.mark.parametrize(
        "probs, reported",
        [(("0.3", "0.3"), "1-4.000e-01"), (("0.75", "0.5"), "1+2.500e-01")],
        ids=["below-one", "above-one"],
    )
    def test_invalid_grammar_reports_signed_sum(self, tmp_path, capsys, probs, reported):
        path = tmp_path / "invalid.txt"
        path.write_text(
            f"#root S\n{probs[0]}\t1\tS -> a S\n{probs[1]}\t1\tS -> a\n",
            encoding="utf-8",
        )
        assert main(["rate", "--grammar", str(path)]) == 2
        assert f"probabilities of 'S' sum to {reported}" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    env = _child_env()
    code = (
        "import sys, treebank_entropy.cli; "
        "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_site_commands_leave_scipy_unloaded(treebank, tmp_path):
    # CWJ evaluates digamma with its own integer kernel: no SITE command
    # may load any part of scipy.
    env = _child_env()
    other = tmp_path / "bank2.mrg"
    other.write_text(treebank.read_text(encoding="utf-8"), encoding="utf-8")
    bank, flag = str(treebank), "--no-preterminalize"
    commands = [
        ["site", flag, "--smoother", "cwj", bank],
        ["report", flag, "-o", str(tmp_path / "report.csv"), bank, str(other)],
        ["incremental", flag, bank, str(other)],
        ["converge", flag, "--estimators", "ml,mc,site-cae,site-cwj",
         "--sizes", "2,5", "--replications", "2", "-o",
         str(tmp_path / "rows.csv"), bank],
    ]
    code = (
        "import json, sys\n"
        "from treebank_entropy.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    codes, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_commands_leave_fractions_and_decimal_unloaded(treebank, tmp_path):
    # The digamma table is written out as floats: no command imports
    # `fractions`, or `decimal` through it.
    env = _child_env()
    bank = str(treebank)
    commands = [
        ["site", "--no-preterminalize", bank],
        ["rate", "--no-preterminalize", bank],
        ["converge", "--no-preterminalize", "--sizes", "2,5", "--replications", "2",
         "-o", str(tmp_path / "rows.csv"), bank],
    ]
    code = (
        "import json, sys\n"
        "from treebank_entropy.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted({'fractions', 'decimal'} & set(sys.modules))]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    codes, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []


def test_commands_load_only_their_modules(treebank, grammar_file, tmp_path):
    # The CLI imports a package module where a subcommand runs it: a PTB or
    # grammar-file command reads no CoNLL-U and builds no dataclass, and
    # `site` and `rate` run no corpus experiment.
    bank, flag = str(treebank), "--no-preterminalize"
    commands = [
        ["site", flag, bank],
        ["rate", flag, bank],
        ["rate", "--grammar", str(grammar_file)],
        ["report", flag, bank, bank],
        ["incremental", flag, "--order", "shuffled", bank, bank],
        ["converge", flag, "--sizes", "2,5", "--replications", "2",
         "-o", str(tmp_path / "rows.csv"), bank],
    ]
    code = (
        "import json, sys\n"
        "import treebank_entropy.cli\n"
        "package = sorted(m for m in sys.modules if m.startswith('treebank_entropy.'))\n"
        "watched = {'dataclasses', 'treebank_entropy.analysis',\n"
        "           'treebank_entropy.conllu', 'treebank_entropy.depconv'}\n"
        "codes, loaded = [], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    codes.append(treebank_entropy.cli.main(argv))\n"
        "    loaded.append(sorted(watched & set(sys.modules)))\n"
        "print(json.dumps([package, codes, loaded]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], env=_child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    package, codes, loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert package == ["treebank_entropy.cli", "treebank_entropy.errors"]
    assert codes == [0] * 6
    assert loaded == [[]] * 3 + [["treebank_entropy.analysis"]] * 3


PTB = """\
( (S (NP-SBJ (DT the) (NN dog)) (VP (VBD ran) (-NONE- *T*-1))) )
(S (NP (PRP it)) (VP (VBZ sleeps) (ADVP (RB here))))
( (S (NP (NN rain)) (VP=2 (VBD fell))) )
"""


def test_ptb_commands_build_no_trees(tmp_path, monkeypatch, capsys):
    calls = []
    real = tree_objects.parse_bracketed

    def spy(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    # Every package namespace that holds the tree reader gets the spy.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "treebank_entropy":
            if vars(module).get("parse_bracketed") is real:
                monkeypatch.setattr(module, "parse_bracketed", spy)

    def no_tree(*args, **kwargs):
        raise AssertionError("a command built a Tree")

    tree = tree_objects.Tree
    monkeypatch.setattr(tree_objects, "Tree", no_tree)
    first, second = tmp_path / "a.mrg", tmp_path / "b.mrg"
    first.write_text(PTB, encoding="utf-8")
    second.write_text(PTB.split("\n", 1)[1], encoding="utf-8")
    files = [str(first), str(second)]
    for options in ([], ["--no-preterminalize", "--strip-tags"]):
        for argv in (
            ["induce", *files], ["entropy", *files], ["mlu", *files],
            ["rate", *files], ["site", *files], ["report", *files],
            ["incremental", *files], ["incremental", "--order", "shuffled", *files],
            ["converge", "--sizes", "2", "--replications", "1", *files],
        ):
            assert main([argv[0], *options, *argv[1:]]) == 0, argv
    assert calls == []
    # Malformed text is not regular: the tree builder behind the scan reads
    # it and raises the error, and still no command calls parse_bracketed.
    monkeypatch.setattr(tree_objects, "Tree", tree)
    bad = tmp_path / "bad.mrg"
    bad.write_text("(S (NN x)", encoding="utf-8")
    assert main(["site", str(bad)]) == 2
    assert calls == []
    assert "unbalanced" in capsys.readouterr().err


#: A treebank of three files with traces, function tags and indices, and
#: phrases (and a sentence) left empty once the traces are dropped.
TRACED_FILES = [
    "( (S (NP-SBJ-1 (DT the) (NN dog)) (VP=2 (VBD ran) (NP (-NONE- *T*-1)))) )\n"
    "(S (NP-SBJ (PRP it)) (VP (VBZ sleeps) (ADVP-TMP (RB here))))\n",
    "( (S (SBAR (-NONE- 0) (S (-NONE- *T*-2))) (NP-SBJ=3 (NNS birds)) (VP (VBP sing))) )\n"
    "( (-NONE- *) )\n"
    "(S-TPC=1 (NP (DT a) (JJ big) (NN cat))\n"
    "  (VP (VBD sat) (PP-LOC (IN on) (NP (DT the) (NN mat)))))\n",
    "( (S (NP-SBJ (NNP Mary)) (VP (VBD saw) (NP (PRP him)) (NP-TMP (-NONE- *U*)))) )\n"
    "(NP (NN rain))\n(S (NP (-NONE- *)) (VP (VB go)))\n",
]


@pytest.mark.parametrize("options", [[], ["--no-preterminalize", "--strip-tags"]],
                         ids=["default", "words-and-cut-tags"])
def test_scan_and_tree_reader_give_the_same_commands(tmp_path, monkeypatch, capsys, options):
    # Every PTB command gives the same bytes, exit code and -o file whether
    # the columnar scan counts the files or the tree reader reads them.
    files = []
    for i, text in enumerate(TRACED_FILES):
        files.append(tmp_path / f"wsj_{i:04d}.mrg")
        files[-1].write_text(text, encoding="utf-8")
    out = tmp_path / "out.txt"
    commands = [
        ["induce", "-o", str(out)], ["entropy"], ["mlu"], ["rate"], ["site"], ["report"],
        ["incremental", "--order", "shuffled"],
        ["converge", "--sizes", "2,5", "--replications", "2", "-o", str(out)],
    ]

    def run_all():
        results = []
        for command in commands:
            code = main([*command, *options, *map(str, files)])
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((command[0], code, *capsys.readouterr(), written))
        return results

    def refuse(*args):
        raise AssertionError("the tree reader ran")

    monkeypatch.setattr(tree_objects, "_read", refuse)
    scanned = run_all()
    monkeypatch.undo()
    monkeypatch.setattr(trees, "_scanned", lambda *args: None)
    assert run_all() == scanned
    assert [code for _, code, *_ in scanned] == [0] * len(commands)


DIVERGENT = "#root S\n0.6\t0\tS -> S S\n0.4\t0\tS -> a\n"


class TestProcessEntry:
    """`python -m treebank_entropy.cli` runs `cli.run`, which must print and
    exit as an in-process `main()` call does."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["site", "--no-preterminalize", "{bank}"], 0),
            (["rate", "--no-preterminalize", "{bank}"], 0),
            (["report", "--no-preterminalize", "{bank}", "{other}"], 0),
            (["incremental", "--no-preterminalize", "--order", "shuffled",
              "{bank}", "{other}"], 0),
            (["converge", "--no-preterminalize", "--sizes", "2,5",
              "--replications", "2", "{bank}"], 0),
            (["sample", "--grammar", "{grammar}", "-n", "50"], 0),
            (["induce", "--no-preterminalize", "-o", "{out}", "{bank}"], 0),
            (["site", "{missing}"], 2),
            (["site", "{bad}"], 2),
            (["rate", "--grammar", "{divergent}"], 3),
        ],
        ids=["site", "rate", "report", "incremental", "converge", "sample",
             "induce", "missing-file", "malformed", "divergent"],
    )
    def test_same_as_main(
        self, treebank, grammar_file, tmp_path, capsysbinary, argv, code
    ):
        names = {
            "bank": treebank, "grammar": grammar_file,
            "other": tmp_path / "other.mrg", "bad": tmp_path / "bad.mrg",
            "divergent": tmp_path / "divergent.txt",
            "missing": tmp_path / "missing.mrg",
        }
        names["other"].write_bytes(treebank.read_bytes())
        names["bad"].write_text("((S (X x))", encoding="utf-8")
        names["divergent"].write_text(DIVERGENT, encoding="utf-8")
        main_out, child_out = tmp_path / "main.out", tmp_path / "child.out"
        assert main([a.format(out=main_out, **names) for a in argv]) == code
        expected = capsysbinary.readouterr()
        child = _cli_process([a.format(out=child_out, **names) for a in argv])
        assert (child.returncode, child.stdout, child.stderr) == (
            code, expected.out, expected.err)
        assert b"Traceback" not in child.stderr
        if code == 3:
            assert child.stderr.startswith(b"numerical error: ")
        if "{out}" in argv:
            assert child_out.read_bytes() == main_out.read_bytes()

    def test_usage_error_exits_2(self):
        child = _cli_process(["site"])
        assert child.returncode == 2
        assert child.stdout == b""
        assert child.stderr.startswith(b"usage: treebank-entropy site")

    def test_collector_off_and_no_finalization(self):
        # An atexit handler would print at finalization: `run` skips it.
        code = (
            "import atexit, gc\n"
            "import treebank_entropy.cli as cli\n"
            "atexit.register(print, 'finalized')\n"
            "cli.main = lambda: print('collector', gc.isenabled()) or 4\n"
            "cli.run()\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True,
            timeout=120,
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            4, b"collector False\n", b"")

    def test_bug_keeps_its_traceback(self):
        code = (
            "import treebank_entropy.cli as cli\n"
            "cli.main = lambda: 1 / 0\n"
            "cli.run()\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True,
            timeout=120,
        )
        assert child.returncode == 1
        assert child.stderr.startswith(b"Traceback")
        assert b"ZeroDivisionError" in child.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
class TestUnflushableStdout:
    """A stdout that takes no more output is an input error (exit 2), with
    or without Python's own stdout buffer."""

    @staticmethod
    def _expected(code):
        return f"error: [Errno {code}] {os.strerror(code)}\n".encode()

    def test_closed_pipe(self, treebank, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            child = _cli_process(
                ["rate", "--no-preterminalize", treebank],
                env=_child_env(PYTHONUNBUFFERED=unbuffered), stdout=write,
            )
        finally:
            os.close(write)
        assert child.returncode == 2
        assert child.stderr == self._expected(errno.EPIPE)

    def test_full_device(self, treebank, unbuffered):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            child = _cli_process(
                ["rate", "--no-preterminalize", treebank],
                env=_child_env(PYTHONUNBUFFERED=unbuffered), stdout=full,
            )
        assert child.returncode == 2
        assert child.stderr == self._expected(errno.ENOSPC)

    def test_help_to_full_device(self, unbuffered):
        # argparse's exit takes the same flush.  Unbuffered, argparse itself
        # drops its failed write, and nothing is left to flush.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "wb") as full:
            child = _cli_process(
                ["--help"], env=_child_env(PYTHONUNBUFFERED=unbuffered), stdout=full,
            )
        if unbuffered:
            assert (child.returncode, child.stderr) == (0, b"")
        else:
            assert child.returncode == 2
            assert child.stderr == self._expected(errno.ENOSPC)


class TestIncrementalInputs:
    """`incremental` fails where the grammar of its first prefix would, with
    the same message, though it induces only the whole input's."""

    TWO_TREES = "(S (NP a) (VP b))\n(S (NP c))\n"

    @staticmethod
    def _run(tmp_path, capsys, *texts):
        paths = []
        for i, text in enumerate(texts):
            path = tmp_path / f"part{i}.mrg"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        code = main(["incremental", *paths])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("first, message", [
        ("", "cannot induce a grammar from an empty corpus"),
        ("(NN dog)\n", "corpus contains no internal nodes"),  # a bare leaf
    ], ids=["empty", "bare_leaf"])
    def test_first_file_errors(self, tmp_path, capsys, first, message):
        code, out = self._run(tmp_path, capsys, first, self.TWO_TREES)
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")

    def test_empty_middle_file_repeats_the_previous_value(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, self.TWO_TREES, "", self.TWO_TREES)
        assert code == 0
        rows = [line.split(",") for line in out.out.splitlines()[2:]]
        assert [row[2] for row in rows] == ["2", "2", "4"]
        assert rows[1][3] == rows[0][3] != rows[2][3]


class TestCollectorOff:
    """`run` turns the cyclic collector off, so no command may leave more
    cyclic garbage on a larger input: only its argument parser's."""

    @staticmethod
    def _unreachable(argv):
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
        finally:
            gc.enable()
        return gc.collect()

    def _assert_fixed(self, small, large):
        self._unreachable(small)  # a first call may import or cache
        assert self._unreachable(small) == self._unreachable(large)

    def test_site_one_file_against_four(self, tmp_path, capsys):
        files = []
        for seed in range(4):
            corpus = sample_corpus(Sampler(GRAMMAR), 50, np.random.default_rng(seed))
            path = tmp_path / f"bank{seed}.mrg"
            path.write_text(
                "\n".join(write_bracketed(t) for t in corpus.sentences),
                encoding="utf-8",
            )
            files.append(str(path))
        self._assert_fixed(
            ["site", "--no-preterminalize", files[0]],
            ["site", "--no-preterminalize", *files],
        )

    def test_converge_replications(self, treebank, capsys):
        argv = ["converge", "--no-preterminalize", "--sizes", "2,5",
                str(treebank), "--replications"]
        self._assert_fixed([*argv, "2"], [*argv, "8"])

    def test_conllu_rate_use_form(self, tmp_path, capsys):
        small, large = tmp_path / "small.conllu", tmp_path / "large.conllu"
        small.write_text(CONLLU, encoding="utf-8")
        large.write_text(
            "\n".join(CONLLU.replace("birds", f"birds{i}") for i in range(4)),
            encoding="utf-8",
        )
        argv = ["rate", "--format", "conllu", "--use-form"]
        self._assert_fixed([*argv, str(small)], [*argv, str(large)])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_collector_as_found(self, treebank, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in (
                (["rate", "--no-preterminalize", str(treebank)], 0),
                (["rate", str(treebank.with_suffix(".missing"))], 2),
            ):
                result = main(argv)
                assert type(result) is int and result == code
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["scripts"] == {"treebank-entropy": "treebank_entropy.cli:run"}
