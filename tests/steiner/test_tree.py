"""MulticastTree structural behaviour."""

import networkx as nx
import pytest

from repro.steiner import MulticastTree


def chain_tree():
    return MulticastTree("a", {"b": "a", "c": "b", "d": "c"})


def fanout_tree():
    return MulticastTree("r", {"x": "r", "y": "r", "x1": "x", "x2": "x"})


class TestConstruction:
    def test_empty_tree(self):
        tree = MulticastTree("solo", {})
        assert tree.cost == 0
        assert tree.nodes == {"solo"}
        assert tree.leaves == {"solo"}

    def test_root_with_parent_rejected(self):
        with pytest.raises(ValueError):
            MulticastTree("a", {"a": "b"})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle through 'a'"):
            MulticastTree("r", {"a": "b", "b": "a"})

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="node 'a' is not connected to the root"):
            MulticastTree("r", {"x": "r", "a": "ghost"})

    def test_cost_is_edge_count(self):
        assert chain_tree().cost == 3
        assert fanout_tree().cost == 4


class TestStructure:
    def test_children_sorted(self):
        tree = MulticastTree("r", {"b": "r", "a": "r"})
        assert tree.children("r") == ["a", "b"]

    def test_edges_directed_parent_first(self):
        assert ("a", "b") in chain_tree().edges

    def test_leaves(self):
        assert fanout_tree().leaves == {"y", "x1", "x2"}

    def test_path_from_root(self):
        assert chain_tree().path_from_root("d") == ["a", "b", "c", "d"]

    def test_depth(self):
        assert chain_tree().depth == 3
        assert fanout_tree().depth == 2

    def test_depth_of(self):
        assert fanout_tree().depth_of("x1") == 2
        assert fanout_tree().depth_of("r") == 0

    def test_subtree_nodes(self):
        assert fanout_tree().subtree_nodes("x") == {"x", "x1", "x2"}
        assert fanout_tree().subtree_nodes("y") == {"y"}


class TestFactories:
    def test_from_undirected_edges(self):
        tree = MulticastTree.from_undirected_edges(
            "r", [("x", "r"), ("x", "y")]
        )
        assert tree.parent == {"x": "r", "y": "x"}

    def test_from_undirected_edges_rejects_cycle(self):
        with pytest.raises(ValueError):
            MulticastTree.from_undirected_edges(
                "r", [("r", "a"), ("a", "b"), ("b", "r")]
            )

    def test_from_paths_merges(self):
        tree = MulticastTree.from_paths(
            "r", [["r", "a", "b"], ["r", "a", "c"]]
        )
        assert tree.cost == 3
        assert set(tree.children("a")) == {"b", "c"}

    def test_from_paths_conflicting_parent_rejected(self):
        with pytest.raises(ValueError):
            MulticastTree.from_paths("r", [["r", "a", "x"], ["r", "b", "x"]])

    def test_from_paths_must_start_at_root(self):
        with pytest.raises(ValueError):
            MulticastTree.from_paths("r", [["a", "r"]])

    def test_to_digraph(self):
        dg = fanout_tree().to_digraph()
        assert isinstance(dg, nx.DiGraph)
        assert dg.number_of_edges() == 4
        assert nx.is_arborescence(dg)
