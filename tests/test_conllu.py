import time

import numpy as np
import pytest

from oracles import dependents, reference_parse_conllu, reference_validate
from treebank_entropy.conllu import DepGraph, parse_conllu
from treebank_entropy.depconv import dep_to_tree, tree_to_dep
from treebank_entropy.errors import ParseError, StructuralError


def row(i, form, pos, head, rel):
    return f"{i}\t{form}\t_\t{pos}\t_\t_\t{head}\t{rel}\t_\t_"


def block(*rows):
    return "\n".join(rows) + "\n\n"


def outcome(read, *args):
    """What `read` returns, or the error it raises."""
    try:
        return read(*args)
    except (ParseError, StructuralError) as err:
        return err


def chain(n, cycle=False):
    """One head-initial chain sentence of `n` tokens; with `cycle`, its last
    two tokens head each other instead, detached from the chain."""
    heads = [0] + list(range(1, n))
    if cycle:
        heads[-2:] = [n, n - 1]
    return block(*(row(i, "NN", "NN", h, "dep") for i, h in enumerate(heads, start=1)))


class TestParseConllu:
    def test_two_token_sentence(self):
        text = block(row(1, "I", "PRP", 2, "nsubj"), row(2, "run", "VBP", 0, "root"))
        (graph,) = parse_conllu(text)
        assert graph.heads == [2, 0]
        assert graph.tokens == [("I", "PRP"), ("run", "VBP")]
        assert graph.labels == ["nsubj", None]
        assert dependents(graph)[0] == [2]

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

    @pytest.mark.parametrize("ids, line", [((1, 2, 4), 3), ((2, 1), 1), ((1, 1), 2)])
    def test_ids_out_of_sequence_rejected(self, ids, line):
        # Heads are read by row position, so an ID that is not its row's
        # position would give a tree the file does not describe.
        heads = [0] + [1] * (len(ids) - 1)
        text = block(*(row(i, "w", "X", h, "dep") for i, h in zip(ids, heads)))
        with pytest.raises(ParseError, match=f"ID '{ids[line - 1]}' out of sequence, "
                           f"expected {line}") as err:
            parse_conllu(text)
        assert err.value.line == line
        assert str(err.value) == str(outcome(reference_parse_conllu, text))

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
        assert dependents(graph)[2] == [1, 3]

    def test_head_out_of_range(self):
        graph = DepGraph(
            tokens=[("a", "A"), ("b", "B")], heads=[0, 9], labels=[None, "x"]
        )
        with pytest.raises(StructuralError, match="out of range"):
            graph.validate()


    def test_validate_matches_reference_on_random_heads(self):
        rng = np.random.default_rng(17)
        kinds = set()
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            heads = [int(h) for h in rng.integers(-1, n + 2, n)]
            if rng.random() < 0.8:  # mostly in range, with exactly one root
                heads = [int(h) for h in rng.integers(1, n + 1, n)]
                heads[int(rng.integers(0, n))] = 0
            graph = DepGraph(tokens=[("a", "A")] * n, heads=heads, labels=[None] * n)
            got, want = outcome(graph.validate), outcome(reference_validate, graph)
            assert (type(got), str(got)) == (type(want), str(want))
            kinds.add(str(want).partition(": ")[2].split(" ")[0] if want else "tree")
        assert kinds == {"tree", "expected", "head", "cycle"}


class TestLongSentences:
    def test_cycle_at_the_far_end_named_like_the_reference(self):
        text = chain(2_000, cycle=True)
        got, want = outcome(parse_conllu, text), outcome(reference_parse_conllu, text)
        assert (type(got), str(got)) == (type(want), str(want))
        assert str(want) == "sentence 1 (line 1): cycle through token 1999"

    def test_20000_token_chain(self):
        n = 20_000
        started = time.perf_counter()
        (graph,) = parse_conllu(chain(n))
        # Walking every token to the root took about 20 s at this length.
        assert time.perf_counter() - started < 5.0
        assert graph.heads == [0] + list(range(1, n))
        assert tree_to_dep(dep_to_tree(graph)) == graph
        # The reference walks every token to the root, so it is run on this
        # construction at 2,000 tokens (above), where it names token n - 1.
        with pytest.raises(StructuralError) as err:
            parse_conllu(chain(n, cycle=True))
        assert str(err.value) == f"sentence 1 (line 1): cycle through token {n - 1}"
