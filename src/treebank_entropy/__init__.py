"""Treebank grammar induction with exact and bias-corrected derivational
entropy, MLU, and derivational entropy rate.

Every name listed in `__all__` is importable from the package, but its
submodule is imported on first use (PEP 562), so a process loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "analysis": ("DEFAULT_SIZES", "ConvergenceRow", "FileReport", "converge",
                 "file_reports", "incremental"),
    "conllu": ("DepGraph", "dep_to_tree", "graphs_to_corpus", "is_projective",
               "parse_conllu", "read_conllu", "tree_to_dep"),
    "dense": ("characteristic_matrix", "solve_system", "spectral_radius"),
    "depconv": ("ConversionConfig", "counted_conllu"),
    "entropy": ("RateReport", "derivational_entropy", "entropy_rate", "grammar_mlu",
                "local_entropies", "local_lengths"),
    "errors": (
        "AlphabetClashError", "DivergentGrammarError", "EmptyInputError", "InputError",
        "NonProjectiveError", "NumericalError", "OutOfGrammarError", "ParseError",
        "SamplingDivergenceError", "StructuralError", "TreebankEntropyError"
    ),
    "estimators": ("EstimateResult", "SmootherKind", "cae_entropy", "cwj_entropy",
                   "good_turing_probs", "ml_entropy", "site"),
    "grammar": ("FreqTable", "Pcfg", "Rule", "induce", "read_grammar", "write_grammar"),
    "regression": ("RegressionFit", "fit", "residualize"),
    "sampling": ("Sampler", "sample", "tree_probability"),
    "tree_objects": ("Corpus", "Tree", "derivation", "parse_bracketed", "read_bracketed",
                     "write_bracketed"),
    "trees": ("CountedCorpus", "Derivation", "RuleTable", "corpus_mlu", "counted_bracketed"),
}

#: The submodule that defines each exported name.
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items()
            for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS_BY_MODULE:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
