"""Synthetic treebank-scale grammar used by the acceptance suite.

The grammar mixes two recursion registers rooted at a fair choice: block A
carries few, sharply distributed expansions per non-terminal (low entropy
per emitted symbol), block B carries wide, flat Zipf-distributed rule
inventories (high entropy per symbol).  Both blocks are tilted to a fixed
spectral radius, giving comparable sentence lengths, so samples vary in
entropy at a given length the way files of a real mixed corpus do.  Every
non-terminal keeps one all-terminal escape rule, which bounds the tilt
search.

The operative reference grammar is induced from a large sample of the
scaffold, mirroring a treebank-derived grammar: its entropy is then known
exactly from its own rules.
"""

from __future__ import annotations

import numpy as np

from treebank_entropy.grammar import Pcfg, Rule, Sampler, induce
from treebank_entropy.trees import Corpus

SCAFFOLD_SEED = 7006
TRUTH_SAMPLE = 15_000

_LEN_CHOICES = (1, 2, 3, 4, 5, 6, 7)
_LEN_W = np.array([0.08, 0.22, 0.27, 0.20, 0.12, 0.07, 0.04])
_BLOCK_SIZE = 24
_N_TERMS = 35


def _draw_block(rng, nts, terms, term_w, q_nt, k_lo, k_hi, zipf_s):
    nt_w = 1.0 / np.arange(1, len(nts) + 1) ** 0.5
    nt_w /= nt_w.sum()
    block = {}
    for nt in nts:
        k = int(rng.integers(k_lo, k_hi + 1))
        seen = set()
        rhss = []
        guard = 0
        while len(rhss) < k and guard < 60 * k:
            guard += 1
            length = int(rng.choice(_LEN_CHOICES, p=_LEN_W))
            q = 0.0 if not rhss else q_nt  # first rule always terminates
            rhs = tuple(
                nts[int(rng.choice(len(nts), p=nt_w))]
                if rng.random() < q
                else terms[int(rng.choice(len(terms), p=term_w))]
                for _ in range(length)
            )
            if rhs not in seen:
                seen.add(rhs)
                rhss.append(rhs)
        zipf = 1.0 / np.arange(1, len(rhss) + 1) ** zipf_s
        block[nt] = (rhss, zipf)
    return block


def _block_radius(block, nts, theta):
    index = {nt: i for i, nt in enumerate(nts)}
    m = np.zeros((len(nts), len(nts)))
    for nt, (rhss, zipf) in block.items():
        nnt = np.array([sum(1 for x in rhs if x in index) for rhs in rhss])
        w = zipf * np.exp(theta * nnt)
        p = w / w.sum()
        for prob, rhs in zip(p, rhss):
            for x in rhs:
                if x in index:
                    m[index[nt], index[x]] += prob
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _tilt_block(block, nts, radius_target):
    # Reweight rules by exp(theta * nonterminal count) so the block's own
    # expected-counts matrix hits the requested spectral radius.
    lo, hi = -6.0, 6.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _block_radius(block, nts, mid) < radius_target:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    members = set(nts)
    rules = []
    for nt, (rhss, zipf) in block.items():
        nnt = np.array([sum(1 for x in rhs if x in members) for rhs in rhss])
        w = zipf * np.exp(theta * nnt)
        p = w / w.sum()
        for prob, rhs in zip(p, rhss):
            rules.append(Rule(nt, rhs, float(prob), 1))
    return rules


def scaffold_grammar(seed: int = SCAFFOLD_SEED) -> Pcfg:
    """Two-register scaffold with 49 non-terminals plus the root."""
    rng = np.random.default_rng(seed)
    a_nts = [f"A{i:02d}" for i in range(_BLOCK_SIZE)]
    b_nts = [f"B{i:02d}" for i in range(_BLOCK_SIZE)]
    terms = [f"p{i:02d}" for i in range(_N_TERMS)]
    term_w = 1.0 / np.arange(1, _N_TERMS + 1) ** 1.05
    term_w /= term_w.sum()
    block_a = _draw_block(rng, a_nts, terms, term_w, 0.35, 3, 8, 1.4)
    block_b = _draw_block(rng, b_nts, terms, term_w, 0.35, 20, 60, 1.20)
    rules = [Rule("S", ("A00",), 0.5, 1), Rule("S", ("B00",), 0.5, 1)]
    rules += _tilt_block(block_a, a_nts, 0.92)
    rules += _tilt_block(block_b, b_nts, 0.90)
    return Pcfg("S", rules)


def sample_corpus(
    sampler: Sampler, size: int, rng: np.random.Generator, source_id: str = ""
) -> Corpus:
    """`size` trees drawn one after another from `rng` by
    :meth:`Sampler.sample_tree`."""
    return Corpus([sampler.sample_tree(rng) for _ in range(size)], source_id)


def reference_corpus(seed: int = SCAFFOLD_SEED):
    """Large scaffold sample that defines the reference grammar."""
    scaffold = scaffold_grammar(seed)
    return sample_corpus(
        Sampler(scaffold, max_nodes=10_000),
        TRUTH_SAMPLE,
        np.random.default_rng(seed + 1),
        source_id="reference",
    )


def reference_grammar(seed: int = SCAFFOLD_SEED) -> Pcfg:
    """Treebank-style reference grammar with exactly known entropy.

    Induced from a large scaffold sample so that, like a grammar read off a
    real treebank, it carries frequency counts and an empirically shaped
    rule distribution.
    """
    return induce(reference_corpus(seed))


def subcorpora_sizes(rng: np.random.Generator, count: int = 199) -> np.ndarray:
    """File sizes between 1 and 185 sentences, log-normally spread."""
    return np.clip(
        np.round(np.exp(rng.normal(2.55, 1.0, size=count))).astype(int), 1, 185
    )
