"""The package's public surface: the names it exports, each loaded from its
submodule on first use, and the records the library returns."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebank_entropy
from treebank_entropy import StructuralError
from treebank_entropy.analysis import (
    ConvergenceRow,
    FileReport,
    IncrementalPoint,
    RegressionFit,
)
from treebank_entropy.depconv import ConversionConfig
from treebank_entropy.entropy import RateReport
from treebank_entropy.estimators import EstimateResult
from treebank_entropy.grammar import FreqTable, Rule
from treebank_entropy.trees import Corpus, Tree

#: Every name the package exports, by the submodule that defines it.
EXPORTED = {
    "analysis": ["DEFAULT_SIZES", "ConvergenceRow", "FileReport", "RegressionFit",
                 "converge", "file_reports", "fit", "incremental", "residualize"],
    "conllu": ["DepGraph", "parse_conllu", "read_conllu"],
    "depconv": ["ConversionConfig", "counted_conllu", "dep_to_tree",
                "graphs_to_corpus", "is_projective", "tree_to_dep"],
    "entropy": ["RateReport", "characteristic_matrix", "derivational_entropy",
                "entropy_rate", "grammar_mlu", "local_entropies", "local_lengths",
                "solve_system", "spectral_radius"],
    "errors": ["AlphabetClashError", "DivergentGrammarError", "EmptyInputError",
               "InputError", "NonProjectiveError", "NumericalError",
               "OutOfGrammarError", "ParseError", "SamplingDivergenceError",
               "StructuralError", "TreebankEntropyError"],
    "estimators": ["EstimateResult", "SmootherKind", "cae_entropy", "cwj_entropy",
                   "good_turing_probs", "ml_entropy", "site"],
    "grammar": ["FreqTable", "Pcfg", "Rule", "Sampler", "induce", "read_grammar",
                "sample", "tree_probability", "write_grammar"],
    "trees": ["Corpus", "CountedCorpus", "Derivation", "RuleTable", "Tree",
              "corpus_mlu", "counted_bracketed", "derivation",
              "parse_bracketed", "read_bracketed", "write_bracketed"],
}


def test_every_export_is_its_modules_object():
    exported = [name for names in EXPORTED.values() for name in names]
    assert sorted(treebank_entropy.__all__) == sorted(exported)
    for module, names in EXPORTED.items():
        defining = importlib.import_module(f"treebank_entropy.{module}")
        for name in names:
            assert getattr(treebank_entropy, name) is getattr(defining, name), name
    bound = {}
    exec("from treebank_entropy import *", bound)
    assert set(bound) - {"__builtins__"} == set(exported)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        treebank_entropy.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from treebank_entropy import no_such_name  # noqa: F401


def test_bare_import_loads_submodules_on_use():
    code = (
        "import json, sys\n"
        "import treebank_entropy as te\n"
        "before = sorted(m for m in sys.modules if m.startswith('treebank_entropy.'))\n"
        "corpus = te.CountedCorpus([te.Derivation('S', [('S', ('a',))], ['a'])] * 3)\n"
        "rows = te.analysis.converge(corpus, sizes=[2], replications=2, coverage=False)\n"
        "print(json.dumps([before, [row.mean for row in rows]]))\n"
    )
    src = str(Path(treebank_entropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    before, means = json.loads(result.stdout.strip().splitlines()[-1])
    assert before == []
    assert means == [0.0] * 4


def test_commands_load_no_costly_lazy_numpy_module(tmp_path):
    # numpy loads numpy.ma (14-19 ms, on a plain np.unique) and numpy.random
    # on first use.  In original order, no command but the ones that draw
    # random numbers (converge, sample, incremental --order shuffled) needs
    # either.
    a, b, grammar = tmp_path / "a.mrg", tmp_path / "b.mrg", tmp_path / "g.txt"
    a.write_text("(S (NP (DT a) (NN b)) (VP (VB c)))\n(S (VP (VB d)))\n")
    b.write_text("(S (NP (NN b)) (VP (VB c) (NP (DT a) (NN e))))\n")
    files = [str(a), str(b)]
    runs = [["site", *files], ["rate", *files], ["report", *files],
            ["induce", "-o", str(grammar), *files], ["incremental", *files],
            ["rate", "--grammar", str(grammar)],
            ["incremental", "--order", "shuffled", "--seed", "3", *files]]
    code = (
        "import contextlib, io, json, sys\n"
        "from treebank_entropy.cli import main\n"
        "loaded = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    loaded.append([m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    src = str(Path(treebank_entropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == [[]] * 6 + [["numpy.random"]]


def test_rate_and_site_load_no_unused_standard_module(tmp_path):
    # Without --json, rate and site write neither JSON nor CSV, and regular
    # CoNLL-U text never reaches the row reader of treebank_entropy.conllu,
    # which loads dataclasses (and copy with it).  The child imports no
    # json of its own.
    ptb, dep = tmp_path / "a.mrg", tmp_path / "a.conllu"
    ptb.write_text("(S (NP (DT a) (NN b)) (VP (VB c)))\n(S (VP (VB d)))\n")
    dep.write_text("1\tthe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
                   "2\tdog\tdog\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
                   "3\truns\trun\tVERB\t_\t_\t0\troot\t_\t_\n\n")
    runs = [[command, *options] for command in ("rate", "site")
            for options in ([str(ptb)], ["--format", "conllu", str(dep)],
                            ["--format", "conllu", "--use-form", "--unlabeled", str(dep)])]
    unused = ("json", "csv", "dataclasses", "treebank_entropy.conllu")
    code = (
        "import contextlib, io, sys\n"
        "from treebank_entropy.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"    print(*[m for m in {unused!r} if m in sys.modules])\n"
    )
    src = str(Path(treebank_entropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.splitlines() == [""] * len(runs)


@pytest.mark.parametrize("record, shown", [
    (RateReport(1.5, 3.0, 0.5, 0.25),
     "RateReport(entropy=1.5, mlu=3.0, rate=0.5, spectral_radius=0.25)"),
    (EstimateResult(1.5, "site-cwj", 7),
     "EstimateResult(value=1.5, method='site-cwj', sample_size=7)"),
    (Rule("S", ("a", "S"), 0.5), "Rule(lhs='S', rhs=('a', 'S'), prob=0.5, freq=0)"),
    (FreqTable((2, 1)), "FreqTable(counts=(2, 1))"),
    (ConvergenceRow(5, "ml", 1.0, 0.5, 1.5, 10),
     "ConvergenceRow(sample_size=5, estimator='ml', mean=1.0, ci95_low=0.5, "
     "ci95_high=1.5, replications=10)"),
    (FileReport("a.mrg", 4, 2.5, 1.25, 1.5),
     "FileReport(file_id='a.mrg', sentences=4, mlu=2.5, entropy=1.25, log_n=1.5)"),
    (IncrementalPoint(1, "chunk01", 4, 1.25),
     "IncrementalPoint(step=1, label='chunk01', cumulative_sentences=4, entropy=1.25)"),
    (RegressionFit(1.0, 0.5, 2.0, None, None, None, 0.75, 3, False),
     "RegressionFit(slope=1.0, slope_stderr=0.5, slope_t=2.0, intercept=None, "
     "intercept_stderr=None, intercept_t=None, r=0.75, n=3, with_intercept=False)"),
    (ConversionConfig(), "ConversionConfig(labeled=True, use_pos=True)"),
    (Corpus([Tree("S", [Tree("a")])], "x.mrg"),
     "Corpus(sentences=[Tree('(S a)')], source_id='x.mrg')"),
], ids=lambda value: "" if isinstance(value, str) else type(value).__name__)
def test_records_keep_fields_and_repr(record, shown):
    # Built from positional values, so the repr shows the field order too.
    assert repr(record) == shown


def test_freq_table_counts_are_positive():
    assert FreqTable((3, 1)).n == 4
    for counts in [(1, 0), (), (2, -1)]:
        with pytest.raises(StructuralError, match="needs positive counts"):
            FreqTable(counts)


def test_corpus_equality():
    tree = Tree("S", [Tree("a")])
    assert Corpus([tree], "x") == Corpus([Tree("S", [Tree("a")])], "x")
    assert Corpus([tree], "x") != Corpus([tree], "y")
    assert Corpus([tree]) != Corpus([tree, tree])
    assert Corpus([tree]).source_id == ""
