"""Sample trees from a grammar and check them against their probabilities.

A PCFG assigns each tree the product of its rule probabilities.  Sampling
by leftmost expansion reproduces that distribution, and for a tail-recursive
grammar the frontier length follows a geometric law whose mean has a closed
form.
"""

from collections import Counter

import numpy as np

from treebank_entropy import Pcfg, Rule, Sampler, tree_probability, write_bracketed

geometric = Pcfg(
    "S", [Rule("S", ("a", "S"), 0.5, 1), Rule("S", ("a",), 0.5, 1)]
)

sampler = Sampler(geometric)
rng = np.random.default_rng(7)

print("ten draws:")
for _ in range(10):
    tree = sampler.sample_tree(rng)
    p = tree_probability(geometric, tree)
    print(f"  p = {p.prob:6.4f}  {write_bracketed(tree)}")

# A draw's derivation holds its frontier; no tree is needed to measure it.
lengths = [sampler.sample(rng).terminals for _ in range(50_000)]
print(f"\nmean frontier length over 50,000 draws: {np.mean(lengths):.3f}")
print("closed form 1/(1-q) with q = 1/2:        2.000")

# Empirical tree frequencies match the assigned probabilities.
flat = Pcfg(
    "S",
    [
        Rule("S", ("a",), 0.5, 1),
        Rule("S", ("b",), 0.3, 1),
        Rule("S", ("c",), 0.2, 1),
    ],
)
flat_sampler = Sampler(flat)
counts = Counter(
    flat_sampler.sample(rng).leaves[0] for _ in range(30_000)
)
print("\nempirical vs assigned probabilities:")
for sym, p in (("a", 0.5), ("b", 0.3), ("c", 0.2)):
    print(f"  {sym}: {counts[sym] / 30_000:.4f} vs {p:.4f}")
