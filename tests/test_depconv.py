import numpy as np
import pytest

from oracles import (
    random_dependency_graph,
    random_projective_graph,
    reference_count_conllu,
    reference_crossing_arcs,
    reference_validate,
)
from treebank_entropy.conllu import DepGraph, parse_conllu
from treebank_entropy.depconv import (
    ConversionConfig,
    counted_conllu,
    crossing_arcs,
    dep_to_tree,
    graphs_to_corpus,
    is_projective,
    tree_to_dep,
)
from treebank_entropy.errors import InputError, NonProjectiveError, StructuralError
from treebank_entropy.trees import parse_bracketed


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
