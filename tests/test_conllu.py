import pytest

from treebank_entropy.conllu import DepGraph, parse_conllu
from treebank_entropy.errors import ParseError, StructuralError


def row(i, form, pos, head, rel):
    return f"{i}\t{form}\t_\t{pos}\t_\t_\t{head}\t{rel}\t_\t_"


def block(*rows):
    return "\n".join(rows) + "\n\n"


class TestParseConllu:
    def test_two_token_sentence(self):
        text = block(row(1, "I", "PRP", 2, "nsubj"), row(2, "run", "VBP", 0, "root"))
        (graph,) = parse_conllu(text)
        assert graph.heads == [2, 0]
        assert graph.tokens == [("I", "PRP"), ("run", "VBP")]
        assert graph.labels == ["nsubj", None]
        assert graph.root == 2

    def test_cycle_rejected(self):
        text = block(row(1, "a", "X", 2, "dep"), row(2, "b", "X", 1, "dep"))
        with pytest.raises(StructuralError, match="root"):
            parse_conllu(text)

    def test_true_cycle_with_root_elsewhere(self):
        text = block(
            row(1, "a", "X", 2, "dep"),
            row(2, "b", "X", 1, "dep"),
            row(3, "c", "X", 0, "root"),
        )
        with pytest.raises(StructuralError, match="cycle"):
            parse_conllu(text)

    def test_multiple_roots_rejected(self):
        text = block(row(1, "a", "X", 0, "root"), row(2, "b", "X", 0, "root"))
        with pytest.raises(StructuralError, match="one root"):
            parse_conllu(text)

    def test_comment_only_group_skipped(self):
        text = "# sent_id = empty\n# just comments\n\n" + block(
            row(1, "hi", "UH", 0, "root")
        )
        graphs = parse_conllu(text)
        assert len(graphs) == 1

    def test_non_integer_head_rejected(self):
        text = block(row(1, "a", "X", "x", "dep"))
        with pytest.raises(ParseError, match="HEAD"):
            parse_conllu(text)

    def test_empty_relation_rejected_below_the_root(self):
        text = block(row(1, "a", "X", 0, ""), row(2, "b", "X", 1, "dep")) + block(
            row(1, "a", "X", 2, ""), row(2, "b", "X", 0, "root"))
        with pytest.raises(ParseError, match="DEPREL") as err:
            parse_conllu(text)
        assert err.value.line == 4
        (graph,) = parse_conllu(block(row(1, "a", "X", 0, ""), row(2, "b", "X", 1, "x")))
        assert graph.labels == [None, "x"]

    def test_multiword_ranges_and_empty_nodes_skipped(self):
        text = block(
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
            row(1, "de", "ADP", 3, "case"),
            row(2, "el", "DET", 3, "det"),
            "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_",
            row(3, "campo", "NOUN", 0, "root"),
        )
        (graph,) = parse_conllu(text)
        assert len(graph) == 3
        assert graph.heads == [3, 3, 0]

    def test_sent_id_reported_in_errors(self):
        text = "# sent_id = bad-42\n" + block(
            row(1, "a", "X", 0, "root"), row(2, "b", "X", 0, "root")
        )
        with pytest.raises(StructuralError, match="bad-42"):
            parse_conllu(text)

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ParseError, match="columns"):
            parse_conllu("1\tone\ttwo\n\n")

    def test_no_trailing_blank_line(self):
        text = row(1, "hi", "UH", 0, "root")
        (graph,) = parse_conllu(text)
        assert graph.heads == [0]


class TestDepGraph:
    def test_dependents_in_surface_order(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B"), ("c", "C")],
            heads=[2, 0, 2],
            labels=["l", None, "r"],
        )
        assert graph.dependents()[2] == [1, 3]

    def test_head_out_of_range(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B")], heads=[0, 9], labels=[None, "x"]
        )
        with pytest.raises(StructuralError, match="out of range"):
            graph.validate()
