"""Mean utterance length predicts derivational entropy, file by file.

Within one grammar, the entropy and the expected length of each
non-terminal's subtrees are the same linear transform of two local
vectors, so entropy divided by MLU (the derivational entropy rate) is a
constant of the grammar.  Estimates from many small files line up on a
line through the origin, and the alignment sharpens once the logarithmic
small-sample bias is residualized away.
"""

import math

import numpy as np

from treebank_entropy import (
    CountedCorpus,
    Sampler,
    SmootherKind,
    corpus_mlu,
    entropy_rate,
    fit,
    induce,
    residualize,
    site,
)
import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
import synthetic

grammar = synthetic.reference_grammar()
report = entropy_rate(grammar)
print(f"grammar: H = {report.entropy:.2f} bits, MLU = {report.mlu:.2f}, "
      f"rate = {report.rate:.3f} bits/symbol")

sampler = Sampler(grammar)
rng = np.random.default_rng(424242)
sizes = synthetic.subcorpora_sizes(rng, 120)
mlus, entropies, log_sizes = [], [], []
for n in sizes:
    corpus = CountedCorpus([sampler.sample(rng) for _ in range(int(n))])
    mlus.append(corpus_mlu(corpus))
    entropies.append(site(corpus, SmootherKind.CWJ).value)
    log_sizes.append(math.log(int(n)))
mlus, entropies, log_sizes = map(np.array, (mlus, entropies, log_sizes))

raw = fit(mlus, entropies, with_intercept=True)
print(f"\nraw regression:   r = {raw.r:.3f}, "
      f"intercept {raw.intercept:+.2f} (t = {raw.intercept_t:+.2f})")

through_origin = fit(mlus, entropies, with_intercept=False)
print(f"through origin:   slope = {through_origin.slope:.3f} bits/symbol")

res = fit(
    residualize(mlus, log_sizes),
    residualize(entropies, log_sizes),
    with_intercept=True,
)
print(f"residualized:     r = {res.r:.3f}")
print("\nthe through-origin slope estimates the entropy rate; small-file")
print("shrinkage pulls it below the grammar value until sizes grow")
