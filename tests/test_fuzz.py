"""Seeded fuzzing of every reader: on any input, either a value comes back
or an :class:`InputError` subclass is raised; nothing else may escape.  The
counting readers must also agree with the graph and tree readers on every
input, and the CoNLL-U reader with the original one."""

import contextlib

import numpy as np
import pytest

from oracles import reference_count_conllu, reference_parse_conllu
from test_trees import READ_OPTIONS as ALL_READ_OPTIONS
from test_trees import _derivations, _outcome
from treebank_entropy.conllu import parse_conllu, read_conllu
from treebank_entropy.depconv import ConversionConfig, counted_conllu
from treebank_entropy.errors import InputError, ParseError, StructuralError
from treebank_entropy.grammar import dumps, induce, loads, read_grammar
from treebank_entropy.trees import (
    DEFAULT_DROP_LABELS,
    Corpus,
    derivation,
    parse_bracketed,
    read_bracketed,
)

BRACKETED = """\
( (S (NP-SBJ (DT the) (NN café)) (VP (VBD ouvrit) (-NONE- *T*-1))) )
(S (NP (PRP él)) (VP=2 (VBZ läuft) (ADVP (RB schnell))))
(FRAG (-LRB- -LRB-) (NN 東京) (-RRB- -RRB-))
"""

CONLLU = """\
# sent_id = s1
1\tJosé\tjosé\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\tcorrió\tcorrer\tVERB\t_\t_\t0\troot\t_\t_
3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_
3\tde\tde\tADP\t_\t_\t5\tcase\t_\t_
4\tel\tel\tDET\t_\t_\t5\tdet\t_\t_
5\tparque\tparque\tNOUN\t_\t_\t2\tobl\t_\t_

1\tÜber\tüber\tADP\t_\t_\t2\tcase\t_\t_
2\tnacht\tnacht\tNOUN\t_\t_\t0\troot\t_\t_
2.1\tx\tx\tX\t_\t_\t_\t_\t_\t_
"""

GRAMMAR = dumps(
    induce(Corpus(parse_bracketed(BRACKETED, DEFAULT_DROP_LABELS, preterminalize=True)))
)

#: Characters that matter to at least one reader, plus a few that matter to
#: none; random text draws from these so that it often gets past the first
#: token.
ALPHABET = list("()\t\n\r #->=._0123456789eSNPVabcé東") + [" ", "\x00"]

READ_OPTIONS = [
    dict(drop_labels=DEFAULT_DROP_LABELS, strip_tags=True, preterminalize=True),
    dict(drop_labels=frozenset(), strip_tags=False, preterminalize=False),
]


def _bracketed(text):
    for options in READ_OPTIONS:
        parse_bracketed(text, **options)


def _read_bracketed(path):
    for options in READ_OPTIONS:
        read_bracketed(path, **options)


#: kind -> (text parser, file reader, a valid input)
KINDS = {
    "bracketed": (_bracketed, _read_bracketed, BRACKETED),
    "conllu": (parse_conllu, read_conllu, CONLLU),
    "grammar": (loads, read_grammar, GRAMMAR),
}


def _texts(rng, valid, count):
    """Truncations of `valid`, random text, and `valid` with random edits."""
    for cut in range(len(valid) + 1):
        yield valid[:cut]
    for _ in range(count):
        size = int(rng.integers(0, 80))
        yield "".join(rng.choice(ALPHABET, size))
        chars = list(valid)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, len(chars)))
            action = rng.integers(0, 3)
            if action == 0:
                del chars[pos]
            elif action == 1:
                chars.insert(pos, str(rng.choice(ALPHABET)))
            else:
                chars[pos] = str(rng.choice(ALPHABET))
        yield "".join(chars)


def _blobs(rng, valid, count):
    """Truncations of `valid` (cutting through multi-byte characters too),
    random bytes, and `valid` with random bytes overwritten."""
    data = valid.encode("utf-8")
    for cut in range(len(data) + 1):
        yield data[:cut]
    for _ in range(count):
        yield rng.bytes(int(rng.integers(0, 80)))
        edited = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            edited[int(rng.integers(0, len(edited)))] = int(rng.integers(0, 256))
        yield bytes(edited)


@pytest.mark.parametrize("seed, kind", enumerate(KINDS))
def test_parsers_raise_only_input_errors(seed, kind):
    parse, _, valid = KINDS[kind]
    parse(valid)
    for text in _texts(np.random.default_rng(seed), valid, 400):
        with contextlib.suppress(InputError):
            parse(text)


@pytest.mark.parametrize("seed, kind", enumerate(KINDS))
def test_readers_raise_only_input_errors(seed, kind, tmp_path):
    _, read, valid = KINDS[kind]
    path = tmp_path / "input"
    for data in _blobs(np.random.default_rng(seed), valid, 150):
        path.write_bytes(data)
        with contextlib.suppress(InputError):
            read(path)



@pytest.mark.parametrize("seed", [3, 4])
def test_counting_reader_reads_like_parse_bracketed(seed):
    for text in _texts(np.random.default_rng(seed), BRACKETED, 400):
        for options in ALL_READ_OPTIONS:
            expected = _outcome(parse_bracketed, text, options)
            if isinstance(expected, list):
                expected = [derivation(t) for t in expected]
            assert _outcome(_derivations, text, options) == expected


def _conllu_outcome(read, text, *args):
    """What `read` returns, or the error's type, message and line."""
    try:
        return read(text, *args)
    except (ParseError, StructuralError) as err:
        return type(err), str(err), getattr(err, "line", None)


@pytest.mark.parametrize("seed", [5, 6])
def test_parse_conllu_reads_like_the_reference(seed):
    def outcome(read, text):
        graphs = _conllu_outcome(read, text)
        if isinstance(graphs, list):  # `DepGraph` equality leaves out sent_id
            return [(g.tokens, g.heads, g.labels, g.sent_id) for g in graphs]
        return graphs

    kinds = set()
    for text in _texts(np.random.default_rng(seed), CONLLU, 400):
        expected = outcome(reference_parse_conllu, text)
        assert outcome(parse_conllu, text) == expected
        kinds.add(expected[0] if isinstance(expected, tuple) else list)
    assert kinds == {list, ParseError, StructuralError}


@pytest.mark.parametrize("seed", [5, 6])
def test_counting_reader_reads_like_parse_conllu(seed):
    def derivations(text, config):
        corpus, skipped = counted_conllu(text, config)
        return corpus.derivations(), skipped

    configs = [ConversionConfig(labeled, use_pos)
               for labeled in (True, False) for use_pos in (True, False)]
    for text in _texts(np.random.default_rng(seed), CONLLU, 400):
        for config in configs:
            expected = _conllu_outcome(reference_count_conllu, text, config)
            assert _conllu_outcome(derivations, text, config) == expected
