"""Induce a grammar from a tiny treebank and compute its exact measures.

Walks through the basic pipeline: parse bracketed trees, reduce them to the
POS layer, read off the maximum-likelihood grammar, and solve for the
derivational entropy, the expected sentence length, and their ratio (the
derivational entropy rate).
"""

from treebank_entropy import (
    Corpus,
    corpus_mlu,
    entropy_rate,
    induce,
    parse_bracketed,
)
from treebank_entropy.grammar import dumps

BANK = """
(S (NP (DT the) (NN dog)) (VP (VBD barked)))
(S (NP (DT the) (NN cat)) (VP (VBD slept)))
(S (NP (PRP she)) (VP (VBD smiled)))
(S (NP (DT a) (NN bird)) (VP (VBD sang) (ADVP (RB loudly))))
(S (NP (PRP he)) (VP (VBD left)))
"""

corpus = Corpus(parse_bracketed(BANK, preterminalize=True), source_id="demo")
print(f"{len(corpus)} sentences, MLU {corpus_mlu(corpus):.2f} tokens/sentence")

grammar = induce(corpus)
print(f"\nInduced grammar ({len(grammar.rules)} rules):")
print(dumps(grammar))

report = entropy_rate(grammar)
print(f"derivational entropy  {report.entropy:.4f} bits")
print(f"grammar MLU           {report.mlu:.4f} symbols")
print(f"entropy rate          {report.rate:.4f} bits/symbol")
print(f"spectral radius       {report.spectral_radius:.4f}")

# The grammar MLU equals the corpus MLU: ML induction preserves the
# empirical expected length.
assert abs(report.mlu - corpus_mlu(corpus)) < 1e-9
print("\ngrammar MLU matches the corpus MLU, as ML induction guarantees")
