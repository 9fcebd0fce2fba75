import numpy as np
import pytest

from oracles import (
    random_dependency_graph,
    random_projective_graph,
    reference_count_conllu,
    reference_crossing_arcs,
    reference_validate,
)
from treebank_entropy import conllu, depconv
from treebank_entropy.conllu import DepGraph, parse_conllu
from treebank_entropy.depconv import (
    ConversionConfig,
    _scanned,
    counted_conllu,
    crossing_arcs,
    dep_to_tree,
    graphs_to_corpus,
    is_projective,
    tree_to_dep,
)
from treebank_entropy.errors import InputError, NonProjectiveError, StructuralError
from treebank_entropy.trees import CountedCorpus, RuleTable, parse_bracketed


CONFIGS = [
    ConversionConfig(labeled=labeled, use_pos=use_pos)
    for labeled in (True, False) for use_pos in (True, False)
]


def to_conllu(graphs) -> str:
    """CoNLL-U text of `graphs`: word forms unlike their tags, and comments,
    multiword ranges and empty nodes, which carry no arcs."""
    lines = []
    for k, graph in enumerate(graphs):
        lines.append(f"# sent_id = g{k}")
        for i, ((_, pos), head, rel) in enumerate(
            zip(graph.tokens, graph.heads, graph.labels), start=1
        ):
            if i % 5 == 1:
                lines.append(f"{i}-{i + 1}\tab\t_\t_\t_\t_\t_\t_\t_\t_")
            rel = "root" if head == 0 else rel
            form = f"{pos.lower()}{i % 3}"
            lines.append(f"{i}\t{form}\t_\t{pos}\t_\t_\t{head}\t{rel}\t_\t_")
            if i % 7 == 0:
                lines.append(f"{i}.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append("")
    return "\n".join(lines)


def row(i, head):
    return f"{i}\tw\t_\tX\t_\t_\t{head}\tdep\t_\t_"


GOOD = "\n".join([row(1, 2), row(2, 0), row(3, 2)]) + "\n\n"

#: One text per kind of anomaly, each after a good sentence and before another.
MALFORMED = {
    "too few columns": row(1, 0) + "\n2\tw\tX\n",
    "too many columns": row(1, 0) + "\t_\n",
    "non-integer ID": "x" + row(1, 0)[1:] + "\n",
    "non-integer HEAD": row(1, "h") + "\n",
    "no root": "\n".join([row(1, 2), row(2, 1)]) + "\n",
    "two roots": "\n".join([row(1, 0), row(2, 0)]) + "\n",
    "head out of range": "\n".join([row(1, 0), row(2, 3)]) + "\n",
    # Indexed from the end, -2 would make token 2 the head: a tree.
    "negative head": "\n".join([row(1, 0), row(2, 1), row(3, -2)]) + "\n",
    "cycle": "\n".join([row(1, 2), row(2, 1), row(3, 0)]) + "\n",
    "self-loop": "\n".join([row(1, 1), row(2, 0)]) + "\n",
    # Heads are read by row position, so IDs must follow the rows.
    "ID skipped": "\n".join([row(1, 0), row(2, 1), row(4, 2)]) + "\n",
    "IDs swapped": "\n".join([row(2, 0), row(1, 2)]) + "\n",
    # A relation node needs a relation; the root's DEPREL is not read.
    "empty relation": "\n".join([row(1, 0).replace("dep", ""), row(2, 1).replace("dep", "")]) + "\n",
}


def negation_sentence():
    """'I do n't have any kids' with POS tags and labeled arcs."""
    return DepGraph(
        tokens=[
            ("I", "PRP"), ("do", "VBP"), ("n't", "RB"),
            ("have", "VB"), ("any", "DT"), ("kids", "NNS"),
        ],
        heads=[2, 0, 2, 2, 6, 2],
        labels=["SBJ", None, "NEG", "VC", "NDET", "OBJ"],
    )


class TestProjectivity:
    def test_chain_is_projective(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C")],
            heads=[2, 0, 2],
            labels=["x", None, "y"],
        )
        assert is_projective(graph)

    def test_crossing_arcs_detected(self):
        # Arcs 3->1 and 2->4 cross.
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
            heads=[3, 3, 0, 2],
            labels=["x", "y", None, "z"],
        )
        assert not is_projective(graph)
        assert (2, 4) in crossing_arcs(graph)

    def test_negation_sentence_projective(self):
        assert is_projective(negation_sentence())

    def test_arc_spanning_root_not_projective(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C")],
            heads=[3, 0, 2],
            labels=["x", None, "y"],
        )
        assert not is_projective(graph)

    @pytest.mark.parametrize("heads", [[1], [2, 1], [0, 3, 2], [0, 5, 1], [0, -1]])
    def test_non_tree_rejected_with_the_validate_message(self, heads):
        graph = DepGraph(tokens=[("a", "A")] * len(heads), heads=heads,
                         labels=[None if h == 0 else "x" for h in heads], sent_id="s3")
        with pytest.raises(StructuralError) as expected:
            reference_validate(graph)
        for check in (crossing_arcs, is_projective, dep_to_tree, DepGraph.validate):
            with pytest.raises(StructuralError) as got:
                check(graph)
            assert type(got.value) is StructuralError
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("tokens, heads, labels", [
        ([("a", "A")], [0, 1], [None, "x"]),
        ([("a", "A"), ("b", "B")], [0, 1], [None]),
        ([("a", "A"), ("b", "B")], [0], [None]),
    ])
    def test_field_lengths_checked_with_the_validate_message(self, tokens, heads, labels):
        graph = DepGraph(tokens=tokens, heads=heads, labels=labels)
        with pytest.raises(StructuralError, match="field lengths disagree") as expected:
            reference_validate(graph)
        for check in (crossing_arcs, is_projective, dep_to_tree, DepGraph.validate):
            with pytest.raises(StructuralError) as got:
                check(graph)
            assert type(got.value) is StructuralError
            assert str(got.value) == str(expected.value)

    def test_crossing_arcs_match_reference(self):
        rng = np.random.default_rng(31)
        crossing = 0
        for _ in range(300):
            n = int(rng.integers(1, 25))
            projective = random_projective_graph(rng, n)
            assert crossing_arcs(projective) == []
            assert reference_crossing_arcs(projective) == []
            graph = random_dependency_graph(rng, n)
            assert crossing_arcs(graph) == reference_crossing_arcs(graph)
            crossing += bool(reference_crossing_arcs(graph))
        assert crossing > 200  # the random trees are mostly non-projective


class TestDepToTree:
    def test_unlabeled_conversion(self):
        tree = dep_to_tree(negation_sentence(), ConversionConfig(labeled=False))
        (expected,) = parse_bracketed(
            "(ROOT (VBP (PRP PRP*) VBP* (RB RB*) (VB VB*) (NNS (DT DT*) NNS*)))"
        )
        assert tree == expected

    def test_labeled_conversion(self):
        tree = dep_to_tree(negation_sentence(), ConversionConfig(labeled=True))
        (expected,) = parse_bracketed(
            "(ROOT (VBP (VBP/SBJ (PRP PRP*)) VBP* (VBP/NEG (RB RB*))"
            " (VBP/VC (VB VB*)) (VBP/OBJ (NNS (NNS/NDET (DT DT*)) NNS*))))"
        )
        assert tree == expected

    def test_single_token(self):
        graph = DepGraph(tokens=[("hi", "NN")], heads=[0], labels=[None])
        tree = dep_to_tree(graph, ConversionConfig(labeled=True))
        assert tree == parse_bracketed("(ROOT (NN NN*))")[0]

    def test_word_form_labels(self):
        graph = DepGraph(tokens=[("hi", "NN")], heads=[0], labels=[None])
        tree = dep_to_tree(graph, ConversionConfig(labeled=True, use_pos=False))
        assert tree == parse_bracketed("(ROOT (hi hi*))")[0]

    def test_non_projective_rejected_with_arcs(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
            heads=[3, 3, 0, 2],
            labels=["x", "y", None, "z"],
        )
        with pytest.raises(NonProjectiveError) as exc:
            dep_to_tree(graph)
        assert (2, 4) in exc.value.crossing

    def test_node_counts_labeled(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 31))
            graph = random_projective_graph(rng, n)
            tree = dep_to_tree(graph, ConversionConfig(labeled=True))
            internal = sum(1 for x in tree.iter_nodes() if not x.is_leaf)
            leaves = sum(1 for x in tree.iter_nodes() if x.is_leaf)
            assert internal == 2 * n
            assert leaves == n

    def test_frontier_preserves_token_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 31))
            graph = random_projective_graph(rng, n)
            tree = dep_to_tree(graph, ConversionConfig(labeled=True))
            expected = [pos + "*" for _, pos in graph.tokens]
            assert tree.frontier() == expected


    @pytest.mark.parametrize("rel", ["", None])
    def test_missing_relation_rejected_when_labeled(self, rel):
        graph = DepGraph(tokens=[("a", "A"), ("b", "B")], heads=[2, 0],
                         labels=[rel, None], sent_id="s9")
        with pytest.raises(StructuralError, match="s9: token 1 has no relation"):
            dep_to_tree(graph, ConversionConfig(labeled=True))
        # The unlabeled tree has no relation nodes.
        assert dep_to_tree(graph, ConversionConfig(labeled=False)).label == "ROOT"


class TestTreeToDep:
    def test_round_trip_negation_sentence(self):
        graph = negation_sentence()
        back = tree_to_dep(dep_to_tree(graph, ConversionConfig(labeled=True)))
        assert back.heads == graph.heads
        assert back.labels == graph.labels
        assert [pos for _, pos in back.tokens] == [pos for _, pos in graph.tokens]

    def test_single_token_round_trip(self):
        graph = DepGraph(tokens=[("NN", "NN")], heads=[0], labels=[None])
        back = tree_to_dep(dep_to_tree(graph, ConversionConfig(labeled=True)))
        assert back == graph

    def test_random_round_trip(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            n = int(rng.integers(1, 31))
            graph = random_projective_graph(rng, n)
            back = tree_to_dep(dep_to_tree(graph, ConversionConfig(labeled=True)))
            assert back == graph

    def test_deep_chains_round_trip(self):
        # Converted trees grow two levels per token; 2000-token chains in
        # both directions must not hit the interpreter recursion limit.
        n = 2000
        for heads in (
            [0] + list(range(1, n)),          # head-initial chain
            list(range(2, n + 1)) + [0],      # head-final chain
        ):
            labels = [None if h == 0 else "dep" for h in heads]
            graph = DepGraph(
                tokens=[("NN", "NN")] * n, heads=heads, labels=labels
            )
            back = tree_to_dep(dep_to_tree(graph, ConversionConfig(labeled=True)))
            assert back == graph

    def test_wrong_shape_rejected(self):
        (tree,) = parse_bracketed("(S (NP (PRP I)))")
        with pytest.raises(StructuralError):
            tree_to_dep(tree)

    def test_missing_anchor_rejected(self):
        (tree,) = parse_bracketed("(ROOT (VBP (VBP/SBJ (PRP PRP*))))")
        with pytest.raises(StructuralError, match="anchor"):
            tree_to_dep(tree)


class TestBatchConversion:
    def test_non_projective_sentences_reported(self):
        good = negation_sentence()
        bad = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
            heads=[3, 3, 0, 2],
            labels=["x", "y", None, "z"],
        )
        corpus, skipped = graphs_to_corpus([good, bad, good])
        assert len(corpus) == 2
        assert [idx for idx, _ in skipped] == [1]
        assert isinstance(skipped[0][1], NonProjectiveError)


class TestCountConllu:
    def test_reads_like_the_tree_path(self):
        rng = np.random.default_rng(41)
        graphs = []
        for _ in range(150):
            n = int(rng.integers(1, 25))
            graphs.append(random_projective_graph(rng, n))
            graphs.append(random_dependency_graph(rng, n))
        text = to_conllu(graphs)
        for config in CONFIGS:
            corpus, skipped = counted_conllu(text, config)
            derivations = corpus.derivations()
            assert (derivations, skipped) == reference_count_conllu(text, config)
            assert len(derivations) > 150 and skipped > 100  # both kinds occur

    def test_deep_chains(self):
        n = 2000
        for heads in ([0] + list(range(1, n)), list(range(2, n + 1)) + [0]):
            labels = [None if h == 0 else "dep" for h in heads]
            graph = DepGraph(tokens=[("NN", "NN")] * n, heads=heads, labels=labels)
            text = to_conllu([graph])
            for config in CONFIGS:
                corpus, skipped = counted_conllu(text, config)
                assert (corpus.derivations(), skipped) == reference_count_conllu(
                    text, config)

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_malformed_raises_the_parse_conllu_error(self, kind):
        text = GOOD + MALFORMED[kind] + "\n" + GOOD
        with pytest.raises(InputError) as expected:
            parse_conllu(text)
        for config in CONFIGS:
            with pytest.raises(InputError) as got:
                counted_conllu(text, config)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
            assert getattr(got.value, "line", None) == getattr(expected.value, "line", None)


def ud(i, form, tag, head, rel, multiword=""):
    """A CoNLL-U row; `multiword` gives the ID of a range or empty node."""
    return f"{multiword or i}\t{form}\t_\t{tag}\t_\t_\t{head}\t{rel}\t_\t_"


#: A regular UD-style text: comments (one with a tab), multiword ranges and
#: empty nodes, non-ASCII forms and a non-projective second sentence.
UD_TEXT = "\n".join([
    "# newdoc id = d1",
    "# sent_id = s1",
    "# text = José vio al perro\tque ladró",
    ud(1, "José", "PROPN", 2, "nsubj"),
    ud(2, "vio", "VERB", 0, "root"),
    ud(0, "al", "_", "_", "_", multiword="3-4"),
    ud(3, "a", "ADP", 5, "case"),
    ud(4, "el", "DET", 5, "det"),
    ud(5, "perro", "NOUN", 2, "obj"),
    ud(0, "ladró", "VERB", "_", "_", multiword="5.1"),
    "",
    "# sent_id = s2",
    ud(1, "Über", "ADP", 3, "case"),
    ud(2, "東京", "PROPN", 4, "nsubj"),
    ud(3, "nacht", "NOUN", 4, "obl"),
    ud(4, "läuft", "VERB", 0, "root"),
    "",
    "# sent_id = s3",
    ud(1, "ça", "PRON", 2, "nsubj"),
    ud(2, "marche", "VERB", 0, "root"),
    ud(3, "…", "PUNCT", 2, "punct"),
    "",
    "",
])


def sentence(heads, forms=None, ids=None):
    """Rows of one sentence over `heads`, then a blank line."""
    forms = forms or [f"w{k % 3}" for k in range(len(heads))]
    ids = ids or range(1, len(heads) + 1)
    return "".join(ud(i, form, f"T{k % 2}", head, "dep" if head else "root") + "\n"
                   for k, (i, form, head) in enumerate(zip(ids, forms, heads))) + "\n"


CHAIN = sentence([0] + list(range(1, 10_000)))
MALFORMED_ROW = ud(1, "w", "T", 0, "root") + "\tx\n\n"

#: name -> (text, whether the whole-file scan reads it rather than the row
#: reader of parse_conllu)
HAND_CASES = {
    "multiword ranges and empty nodes": (UD_TEXT, True),
    "a sentence of only ranges and empty nodes": (
        sentence([0]) + ud(0, "ab", "_", "_", "_", multiword="1-2") + "\n"
        + ud(0, "x", "_", "_", "_", multiword="1.1") + "\n\n" + sentence([2, 0]), True),
    "a whitespace-only separator": (sentence([0, 1])[:-1] + " \t\n" + sentence([2, 0]), False),
    "carriage returns": (sentence([0, 1]).replace("\n", "\r\n") + sentence([0]), False),
    "a carriage return in a comment": ("# a\rb\n" + sentence([0]), False),
    "NUL ending a form": (sentence([0, 1, 1], forms=["a", "a\x00", "\x00"]), False),
    "a lone surrogate": (sentence([0, 1], forms=["\ud800", "x"]), False),
    "IDs and HEADs with leading zeros": (sentence(["02", 0, "002"], ids=["01", "2", "003"]), True),
    "a plus sign": (sentence([0, "+1"], ids=[1, "+2"]), False),
    "an underscore in a number": (
        sentence([0] + [1] * 9 + ["1_0"], ids=[*range(1, 11), "1_1"]), False),
    "a non-ASCII digit": (sentence([0, "١"], ids=["١", 2]), False),
    "non-ASCII labels": (sentence([0, 1, 2], forms=["東京", "ça", "Ωmega"]), True),
    "empty text": ("", True),
    "a 10,000-token chain": (CHAIN, True),
    "a 10,000-dependent star": (sentence([0] + [1] * 10_000), True),
    "non-projective sentences between projective ones": (
        sentence([0, 1]) + sentence([3, 4, 0, 3]) + sentence([2, 0, 2])
        + sentence([0, 4, 1, 1]) + sentence([0]), True),
    "two roots": (sentence([0, 0]), True),
    "no root": (sentence([2, 1]), True),
    "a head out of range": (sentence([0, 3]), True),
    "a cycle": (sentence([0, 3, 2]), True),
    "two roots, then a malformed row": (sentence([0, 0]) + MALFORMED_ROW, False),
    "no root, then a malformed row": (sentence([2, 1]) + MALFORMED_ROW, False),
    "a head out of range, then a malformed row": (sentence([0, 3]) + MALFORMED_ROW, False),
    "a cycle, then a malformed row": (sentence([0, 3, 2]) + MALFORMED_ROW, False),
    "a malformed row, then a cycle": (MALFORMED_ROW + sentence([0, 3, 2]), False),
}


def _counted_outcome(read, text, config, keys=()):
    """What `read` gives for `text` over a table that holds `keys`: the
    corpus's columns, the table's keys and the skipped count, or the
    error's type, message and line."""
    table = RuleTable()
    table.intern(list(keys))
    try:
        corpus, skipped = read(text, config, table)
    except InputError as err:
        return type(err), str(err), getattr(err, "line", None)
    return (corpus.ids.tolist(), corpus.offsets.tolist(), corpus.leaves,
            corpus.leaf_offsets.tolist(), corpus.roots, table.keys(), skipped)


def _reference_counted(text, config, table):
    derivations, skipped = reference_count_conllu(text, config)
    return CountedCorpus(derivations, table=table), skipped


class TestColumnarReader:
    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    @pytest.mark.parametrize("case", HAND_CASES)
    def test_reads_like_the_reference(self, case, config):
        text, scanned = HAND_CASES[case]
        assert (_scanned(text, config) is not None) == scanned
        assert (_counted_outcome(counted_conllu, text, config)
                == _counted_outcome(_reference_counted, text, config))

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_over_a_shared_table(self, config):
        derivations, _ = reference_count_conllu(UD_TEXT + sentence([0, 1, 2, 3, 2]), config)
        keys = [*dict.fromkeys(r for d in derivations[1:] for r in d.rules)][::-1]
        keys.append(("X", ("y",)))
        text = HAND_CASES["non-projective sentences between projective ones"][0] + UD_TEXT
        got = _counted_outcome(counted_conllu, text, config, keys)
        assert got == _counted_outcome(_reference_counted, text, config, keys)
        assert got[-1] == 3 and len(got[5]) > len(keys)  # skipped, and new keys

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_regular_text_never_reaches_the_row_reader(self, config, monkeypatch):
        def refuse(text):
            raise AssertionError("the row reader ran")

        for module in (conllu, depconv):
            monkeypatch.setattr(module, "_sentences", refuse)
        with pytest.raises(AssertionError, match="row reader"):  # the patch holds
            counted_conllu(HAND_CASES["carriage returns"][0], config)
        corpus, skipped = counted_conllu(UD_TEXT, config)
        assert (len(corpus), skipped) == (2, 1)
        assert ("PROPN*" if config.use_pos else "José*") in corpus.leaves
        for text in ("", "# a comment\n\n", ud(0, "ab", "_", "_", "_", multiword="1-2")):
            corpus, skipped = counted_conllu(text, config)
            assert (len(corpus), skipped) == (0, 0)
