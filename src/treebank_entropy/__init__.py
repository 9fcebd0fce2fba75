"""Treebank grammar induction with exact and bias-corrected derivational
entropy, MLU, and derivational entropy rate."""

from .analysis import (
    DEFAULT_SIZES,
    ConvergenceRow,
    FileReport,
    RegressionFit,
    converge,
    file_reports,
    fit,
    incremental,
    residualize,
)
from .conllu import DepGraph, parse_conllu, read_conllu
from .depconv import (
    ConversionConfig,
    count_conllu,
    counted_conllu,
    dep_to_tree,
    graphs_to_corpus,
    is_projective,
    tree_to_dep,
)
from .entropy import (
    RateReport,
    characteristic_matrix,
    derivational_entropy,
    entropy_rate,
    grammar_mlu,
    local_entropies,
    local_lengths,
    solve_system,
    spectral_radius,
)
from .errors import (
    AlphabetClashError,
    DivergentGrammarError,
    EmptyInputError,
    InputError,
    NonProjectiveError,
    NumericalError,
    OutOfGrammarError,
    ParseError,
    SamplingDivergenceError,
    StructuralError,
    TreebankEntropyError,
)
from .estimators import (
    EstimateResult,
    SmootherKind,
    cae_entropy,
    cwj_entropy,
    good_turing_probs,
    ml_entropy,
    site,
)
from .grammar import (
    FreqTable,
    Pcfg,
    Rule,
    Sampler,
    induce,
    read_grammar,
    sample,
    tree_probability,
    write_grammar,
)
from .trees import (
    Corpus,
    CountedCorpus,
    Derivation,
    RuleTable,
    Tree,
    corpus_mlu,
    count_bracketed,
    counted_bracketed,
    derivation,
    parse_bracketed,
    read_bracketed,
    write_bracketed,
)

__version__ = "0.1.0"
