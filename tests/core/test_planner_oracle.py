"""Differential oracle for the layer-peeling planner's hot path.

The reference functions below are verbatim copies of the original planner:
a networkx BFS re-bucketed into layers, a greedy pick that rescans the whole
sorted layer, and a tree check that walks to the root from every node.  The
linear-time rewrite must agree with them exactly on randomly failed fabrics:
the same parent maps in the same insertion order, the same hop layers, and
the same exception types and messages.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import layer_peeling_tree
from repro.steiner import MulticastTree, validate_tree
from repro.topology import (
    FatTree,
    LeafSpine,
    Topology,
    fail_random_uplinks,
    fail_switch,
    farthest_destination_layer,
    hop_layers,
)
from repro.topology.addressing import NodeKind, kind_of

# -- reference implementations (test-only) ------------------------------------


def ref_hop_layers(graph, source):
    dist = nx.single_source_shortest_path_length(graph, source)
    if not dist:
        return []
    radius = max(dist.values())
    layers = [set() for _ in range(radius + 1)]
    for node, d in dist.items():
        layers[d].add(node)
    return layers


def ref_layer_peeling_tree(topo, source, destinations):
    """The original planner; returns the tree's parent map."""
    graph = topo.graph if isinstance(topo, Topology) else topo
    dests = [d for d in dict.fromkeys(destinations) if d != source]
    if not dests:
        return {}

    layers = ref_hop_layers(graph, source)
    depth = {node: j for j, layer in enumerate(layers) for node in layer}
    for d in dests:
        if d not in depth:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
    farthest = max(depth[d] for d in dests)

    in_tree = {source, *dests}
    parent = {}

    for level in range(farthest - 1, -1, -1):
        upper = [n for n in layers[level + 1] if n in in_tree]
        uncovered = set()
        for node in upper:
            existing = _ref_neighbor_in(graph, node, layers[level], in_tree)
            if existing is not None:
                if node not in parent:
                    parent[node] = existing
            else:
                uncovered.add(node)
        while uncovered:
            best = _ref_best_cover(graph, layers[level], uncovered)
            in_tree.add(best)
            for node in sorted(uncovered & set(graph.neighbors(best))):
                parent[node] = best
                uncovered.discard(node)

    ref_check_acyclic(source, parent)
    validate_tree(MulticastTree(source, parent), graph, source, dests)
    return parent


def _ref_neighbor_in(graph, node, layer, in_tree):
    candidates = [v for v in graph.neighbors(node) if v in layer and v in in_tree]
    return min(candidates) if candidates else None


def _ref_best_cover(graph, layer, uncovered):
    best_node = None
    best_cover = 0
    for node in sorted(layer):
        if kind_of(node) is NodeKind.HOST:
            continue
        cover = sum(1 for v in graph.neighbors(node) if v in uncovered)
        if cover > best_cover:
            best_node = node
            best_cover = cover
    if best_node is None:
        for node in sorted(layer):
            if any(v in uncovered for v in graph.neighbors(node)):
                return node
        raise ValueError("no covering node found; layering invariant violated")
    return best_node


def ref_check_acyclic(root, parent):
    for start in parent:
        seen = {start}
        node = start
        while node in parent:
            node = parent[node]
            if node in seen:
                raise ValueError(f"parent map contains a cycle through {node!r}")
            seen.add(node)
        if node != root:
            raise ValueError(f"node {start!r} is not connected to the root")


def ref_farthest_destination_layer(dist, source, destinations):
    farthest = 0
    for d in destinations:
        if d not in dist:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
        farthest = max(farthest, dist[d])
    return farthest


# -- helpers ------------------------------------------------------------------------


def outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle compares any error
        return ("raised", type(exc), str(exc))


def layer_orders(layers):
    return [list(layer) for layer in layers]


@st.composite
def failed_fabrics(draw):
    """A LeafSpine or FatTree with 0-20% of its uplinks failed and maybe one
    switch drained (which can strand hosts), plus a random group."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        topo = LeafSpine(
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.integers(min_value=2, max_value=8)),
            draw(st.integers(min_value=1, max_value=3)),
        )
    else:
        topo = FatTree(4, hosts_per_tor=draw(st.integers(min_value=1, max_value=2)))
    fail_random_uplinks(topo, draw(st.floats(min_value=0.0, max_value=0.2)), seed=seed)
    if draw(st.booleans()):
        switches = sorted(topo.switches)
        fail_switch(topo, switches[draw(st.integers(0, len(switches) - 1))])
    hosts = topo.hosts
    rng = random.Random(seed)
    src = hosts[rng.randrange(len(hosts))]
    # Duplicates and the source itself may appear: the planner drops both.
    dests = [
        hosts[rng.randrange(len(hosts))]
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    return topo, src, dests


@st.composite
def parent_maps(draw):
    """Random parent maps over a few nodes: trees, cycles, detached nodes."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = [f"n{i}" for i in range(n)]
    parent = {}
    for child in draw(st.permutations(names[1:])):
        if draw(st.booleans()):
            parent[child] = draw(st.sampled_from(names + ["stray"]))
    return names[0], parent


# -- properties ---------------------------------------------------------------------


class TestPlannerMatchesReference:
    @given(failed_fabrics())
    @settings(max_examples=120, deadline=None)
    def test_same_parent_map_and_errors(self, scenario):
        topo, src, dests = scenario
        want = outcome(ref_layer_peeling_tree, topo, src, dests)
        got = outcome(lambda: layer_peeling_tree(topo, src, dests).parent)
        assert got[0] == want[0], (got, want)
        if want[0] == "ok":
            assert got[1] == want[1]
            assert list(got[1].items()) == list(want[1].items())
        else:
            assert got == want

    @given(failed_fabrics())
    @settings(max_examples=80, deadline=None)
    def test_same_hop_layers(self, scenario):
        topo, src, dests = scenario
        want = ref_hop_layers(topo.graph, src)
        got = hop_layers(topo.graph, src)
        assert got == want
        assert layer_orders(got) == layer_orders(want)
        dist = nx.single_source_shortest_path_length(topo.graph, src)
        assert list(topo.distances_from(src).items()) == list(dist.items())
        assert outcome(farthest_destination_layer, topo.graph, src, dests) == outcome(
            ref_farthest_destination_layer, dist, src, dests
        )

    @given(parent_maps())
    @settings(max_examples=300, deadline=None)
    def test_same_tree_check(self, case):
        root, parent = case
        want = outcome(ref_check_acyclic, root, parent)
        got = outcome(MulticastTree, root, parent)
        if want[0] == "ok":
            assert got[0] == "ok", got
        else:
            assert got == want


def test_missing_source_raises_like_networkx():
    graph = LeafSpine(2, 2, 1).graph
    with pytest.raises(nx.NodeNotFound) as want:
        nx.single_source_shortest_path_length(graph, "host:l9:0")
    with pytest.raises(nx.NodeNotFound) as got:
        hop_layers(graph, "host:l9:0")
    assert str(got.value) == str(want.value)
