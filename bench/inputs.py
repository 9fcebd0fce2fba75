"""Seeded synthetic inputs for the benchmark, built with numpy alone.

This module deliberately imports nothing from ``treebank_entropy`` or from
``tests/``: a change in how the package consumes random numbers must not
change what the benchmark feeds it.

Two kinds of input are written:

* PTB-style ``.mrg`` files.  Trees are drawn from a fixed two-register
  scaffold grammar (49 phrasal categories plus the root ``S``, 35 POS tags)
  shaped like the repository's synthetic reference grammar, and redrawn
  when they exceed ``MAX_NODES`` so sentence lengths stay treebank-like.  Every POS
  pre-terminal carries a word leaf drawn from a per-tag Zipf vocabulary, and
  ``-NONE-`` trace subtrees are scattered through the phrasal nodes, either
  beside real constituents or as the only content of an empty phrase, so the
  default reader has something to strip.
* A projective CoNLL-U file whose word forms follow a Zipf law, so that
  reading it with ``--use-form`` turns about two thousand word types into
  non-terminals.

The scaffold grammar is part of the workload definition and is fixed; the
seed only drives the sampling, so every seed yields a corpus of the same
shape and about the same size.  Each writer returns what it generated (sentence and token
counts per file) so the benchmark can check the program's answers against
it.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCAFFOLD_SEED = 7006
ROOT = "S"
N_TAGS = 35
BLOCK_SIZE = 24
VOCAB_PER_TAG = 400
MAX_NODES = 200
TRACE_PROB = 0.06
EMPTY_PHRASE_PROB = 0.02

_LEN_CHOICES = np.arange(1, 8)
_LEN_W = np.array([0.08, 0.22, 0.27, 0.20, 0.12, 0.07, 0.04])
_RELATIONS = ("nsubj", "obj", "obl", "amod", "det", "advmod", "nmod", "case")
_UPOS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "PROPN")


@dataclass(frozen=True)
class TreebankFile:
    path: Path
    sentences: int
    tokens: int


class _Uniforms:
    """Uniform draws served from large numpy batches."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf: list[float] = []
        self._pos = 0

    def __call__(self) -> float:
        if self._pos == len(self._buf):
            self._buf = self._rng.random(1 << 16).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


def _cumulative(weights) -> list[float]:
    cum = np.cumsum(np.asarray(weights, dtype=np.float64))
    return (cum / cum[-1]).tolist()


def _pick(cum: list[float], u: float) -> int:
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


def _radius(block, index, theta) -> float:
    m = np.zeros((len(index), len(index)))
    for nt, (rhss, zipf) in block.items():
        nnt = np.array([sum(1 for x in rhs if x in index) for rhs in rhss])
        w = zipf * np.exp(theta * nnt)
        for prob, rhs in zip(w / w.sum(), rhss):
            for x in rhs:
                if x in index:
                    m[index[nt], index[x]] += prob
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _block(rng, nts, tags, tag_w, k_lo, k_hi, zipf_s, radius):
    """Rules of one register, tilted so its expected-counts matrix has the
    requested spectral radius (which keeps sentence lengths comparable)."""
    index = {nt: i for i, nt in enumerate(nts)}
    nt_w = 1.0 / np.arange(1, len(nts) + 1) ** 0.5
    nt_w /= nt_w.sum()
    block = {}
    for nt in nts:
        k = int(rng.integers(k_lo, k_hi + 1))
        rhss: list[tuple[str, ...]] = []
        seen = set()
        guard = 0
        while len(rhss) < k and guard < 60 * k:
            guard += 1
            length = int(rng.choice(_LEN_CHOICES, p=_LEN_W))
            q = 0.35 if rhss else 0.0  # the first rule always terminates
            rhs = tuple(
                nts[int(rng.choice(len(nts), p=nt_w))]
                if rng.random() < q
                else tags[int(rng.choice(len(tags), p=tag_w))]
                for _ in range(length)
            )
            if rhs not in seen:
                seen.add(rhs)
                rhss.append(rhs)
        block[nt] = (rhss, 1.0 / np.arange(1, len(rhss) + 1) ** zipf_s)
    lo, hi = -6.0, 6.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _radius(block, index, mid) < radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    rules = {}
    for nt, (rhss, zipf) in block.items():
        nnt = np.array([sum(1 for x in rhs if x in index) for rhs in rhss])
        rules[nt] = (rhss, _cumulative(zipf * np.exp(theta * nnt)))
    return rules


def scaffold_grammar() -> dict[str, tuple[list[tuple[str, ...]], list[float]]]:
    """The fixed scaffold: ``{lhs: (rhs list, cumulative probabilities)}``."""
    rng = np.random.default_rng(SCAFFOLD_SEED)
    tags = [f"T{i:02d}" for i in range(N_TAGS)]
    tag_w = 1.0 / np.arange(1, N_TAGS + 1) ** 1.05
    tag_w /= tag_w.sum()
    a_nts = [f"A{i:02d}" for i in range(BLOCK_SIZE)]
    b_nts = [f"B{i:02d}" for i in range(BLOCK_SIZE)]
    grammar = {ROOT: ([("A00",), ("B00",)], [0.5, 1.0])}
    grammar.update(_block(rng, a_nts, tags, tag_w, 3, 8, 1.4, 0.92))
    grammar.update(_block(rng, b_nts, tags, tag_w, 20, 60, 1.2, 0.90))
    return grammar


class _PtbSampler:
    def __init__(self, grammar, rng: np.random.Generator):
        self.grammar = grammar
        self.u = _Uniforms(rng)
        self.vocab_cum = _cumulative(1.0 / np.arange(1, VOCAB_PER_TAG + 1) ** 1.1)
        self.phrases = [nt for nt in grammar if nt != ROOT]

    def _try(self) -> tuple[str, int] | None:
        """One tree as indented bracketed text plus its word count, or None
        when it exceeds the node budget."""
        u, grammar = self.u, self.grammar
        out = []
        tokens = 0
        nodes = 0
        stack: list[tuple[str, int]] = [(ROOT, 0)]
        while stack:
            sym, depth = stack.pop()
            if sym == ")":
                out.append(")")
                continue
            if sym.startswith("("):  # literal trace subtree
                out.append("\n" + "  " * depth + sym)
                continue
            nodes += 1
            if nodes > MAX_NODES:
                return None
            entry = grammar.get(sym)
            if entry is None:  # POS tag: pre-terminal over a word leaf
                word = _pick(self.vocab_cum, u())
                out.append(f" ({sym} {sym.lower()}w{word})")
                tokens += 1
                continue
            rhss, cum = entry
            rhs = rhss[_pick(cum, u())]
            children: list[tuple[str, int]] = [(x, depth + 1) for x in rhs]
            if u() < TRACE_PROB:
                pos = int(u() * (len(children) + 1))
                children.insert(pos, ("(-NONE- *T*-1)", depth + 1))
            if u() < EMPTY_PHRASE_PROB:
                label = self.phrases[int(u() * len(self.phrases))]
                pos = int(u() * (len(children) + 1))
                children.insert(pos, (f"({label}-SBJ (-NONE- *))", depth + 1))
            out.append("\n" + "  " * depth + "(" + sym)
            stack.append((")", depth))
            stack.extend(reversed(children))
        return "( " + "".join(out).lstrip("\n") + ")\n", tokens

    def sample(self) -> tuple[str, int]:
        while True:
            drawn = self._try()
            if drawn is not None:
                return drawn


def file_sizes(total: int, files: int) -> list[int]:
    """Fixed, uneven file sizes summing to `total` (seed independent)."""
    w = np.exp(np.random.default_rng(SCAFFOLD_SEED + 1).normal(0.0, 0.5, files))
    sizes = np.maximum(1, np.floor(total * w / w.sum()).astype(int))
    sizes[int(np.argmax(sizes))] += total - int(sizes.sum())
    return sizes.tolist()


def write_treebank(
    directory: Path, seed: int, tokens: int, files: int, prefix: str = "wsj"
) -> list[TreebankFile]:
    """Sample trees into `files` PTB-style ``.mrg`` files of about `tokens`
    words in all.

    Each file is filled up to a fixed word budget rather than a fixed number
    of sentences: sentence lengths vary a lot, and the work every command
    does grows with the words read, so this keeps that work the same for
    every seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    sampler = _PtbSampler(scaffold_grammar(), np.random.default_rng(seed))
    written = []
    for i, budget in enumerate(file_sizes(tokens, files)):
        path = directory / f"{prefix}_{i:04d}.mrg"
        words = 0
        chunks = []
        while words < budget:
            text, count = sampler.sample()
            chunks.append(text)
            words += count
        path.write_text("".join(chunks), encoding="utf-8")
        written.append(TreebankFile(path, len(chunks), words))
    return written


def _projective_heads(u, length: int) -> list[int]:
    """Random projective dependency tree over tokens 1..length (0 = root).

    Each span picks a head; the rest of the span is cut into contiguous
    chunks, each one a dependent subtree, so no two arcs can cross.
    """
    heads = [0] * length
    agenda = [(1, length, 0)]
    while agenda:
        lo, hi, parent = agenda.pop()
        head = lo + int(u() * (hi - lo + 1))
        heads[head - 1] = parent
        for a, b in ((lo, head - 1), (head + 1, hi)):
            while a <= b:
                size = 1 + int(u() * min(b - a + 1, 6))
                agenda.append((a, a + size - 1, head))
                a += size
    return heads


def write_conllu(path: Path, seed: int, sentences: int, vocab: int) -> TreebankFile:
    """Projective CoNLL-U treebank with Zipf-distributed word forms."""
    rng = np.random.default_rng(seed)
    u = _Uniforms(rng)
    form_cum = _cumulative(1.0 / np.arange(1, vocab + 1))
    lengths = np.clip(rng.poisson(18, sentences), 3, 60).tolist()
    lines = []
    tokens = 0
    for s, length in enumerate(lengths, start=1):
        heads = _projective_heads(u, length)
        lines.append(f"# sent_id = s{s}")
        for i, head in enumerate(heads, start=1):
            form = f"w{_pick(form_cum, u())}"
            upos = _UPOS[int(u() * len(_UPOS))]
            rel = "root" if head == 0 else _RELATIONS[int(u() * len(_RELATIONS))]
            lines.append(f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
        lines.append("")
        tokens += length
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return TreebankFile(path, sentences, tokens)


def digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()
