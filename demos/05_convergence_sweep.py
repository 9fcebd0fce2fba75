"""Estimator convergence as a function of treebank size.

Samples artificial corpora of growing size from a known grammar, estimates
the derivational entropy with four methods, and prints the sweep.  The two
ML variants (exact composition and Monte-Carlo) are indistinguishable and
converge only once most rules have been observed; the smoothed estimates
get there orders of magnitude earlier.

Corpora of 100 sentences or more (183, 608 and 2023 here) are drawn as
rule counts by a branching process rather than sentence by sentence, so
their rows differ from those of versions that sampled every sentence; the
rows at 5, 17 and 55 sentences do not.
"""

import numpy as np

from treebank_entropy import (
    CountedCorpus,
    Pcfg,
    Rule,
    Sampler,
    converge,
    derivational_entropy,
    induce,
)

rng = np.random.default_rng(3)
rules = []
for i in range(12):
    nt = f"X{i:02d}"
    targets = rng.choice(12, size=3, replace=False)
    probs = rng.dirichlet(np.full(6, 0.4))
    seen = set()
    for j in range(6):
        while True:
            rhs = (f"w{rng.integers(40)}", f"X{targets[j % 3]:02d}") if j < 3 \
                else (f"w{rng.integers(40)}",)
            if rhs not in seen:
                seen.add(rhs)
                break
        rules.append(Rule(nt, rhs, float(probs[j]), 1))
truth = Pcfg("X00", rules)
print(f"true entropy: {derivational_entropy(truth):.3f} bits")

sampler, rng = Sampler(truth), np.random.default_rng(4)
corpus = CountedCorpus([sampler.sample(rng) for _ in range(8000)])
print(f"reference corpus: {len(corpus)} sentences "
      f"(induced copy has H = {derivational_entropy(induce(corpus)):.3f})\n")

rows = converge(
    corpus,
    sizes=(5, 17, 55, 183, 608, 2023),
    replications=40,
    estimators=("ml", "mc", "site-cae", "site-cwj"),
    seed=12,
)

print(f"{'size':>6} {'estimator':>22} {'mean':>9} {'95% CI':>19}")
for row in rows:
    ci = f"[{row.ci95_low:8.3f},{row.ci95_high:8.3f}]"
    print(f"{row.sample_size:>6} {row.estimator:>22} {row.mean:9.3f} {ci:>19}")
print("\ncoverage rows report the percentage of true rules and")
print("non-terminals seen; ML cannot converge before they reach 100")
