"""The asymmetric planner's cost model, pinned by counts rather than clocks.

Planning 50 groups on a failed leaf-spine must read each node's adjacency at
most once in the BFS, and must never call into networkx from inside
:func:`layer_peeling_tree` (the tree check included).
"""

import os
import random
import sys
from collections import Counter

import networkx as nx

from repro.core import layer_peeling_tree
from repro.topology import LeafSpine, fail_random_uplinks
from repro.topology.layers import bfs_layers

NUM_GROUPS = 50


class CountingAdjacency(dict):
    """An outer adjacency dict that counts every ``adj[node]`` read."""

    def __init__(self, adj):
        super().__init__(adj)
        self.reads = Counter()

    def __getitem__(self, node):
        self.reads[node] += 1
        return super().__getitem__(node)


def asymmetric_groups():
    topo = LeafSpine(4, 12, 4)
    fail_random_uplinks(topo, 0.15, seed=5)
    assert not topo.is_symmetric
    rng = random.Random(7)
    hosts = topo.hosts
    groups = []
    for _ in range(NUM_GROUPS):
        src = rng.choice(hosts)
        groups.append((src, rng.sample([h for h in hosts if h != src], 6)))
    return topo, groups


def test_bfs_reads_each_node_at_most_once():
    topo, groups = asymmetric_groups()
    for src, _ in groups:
        graph = topo.graph.copy()
        graph._adj = adj = CountingAdjacency(graph._adj)
        layers, depth = bfs_layers(graph, src)
        assert len(depth) == graph.number_of_nodes()
        assert sum(len(layer) for layer in layers) == len(depth)
        assert set(adj.reads.values()) == {1}
        # Every layer but the last is expanded; the last one cannot reach
        # anything new once all nodes have a depth.
        assert set(adj.reads) == set().union(*layers[:-1])


def test_layer_peeling_makes_no_networkx_calls():
    topo, groups = asymmetric_groups()
    nx_dir = os.path.dirname(nx.__file__) + os.sep
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(nx_dir):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(watch)
    try:
        trees = [layer_peeling_tree(topo, src, dests) for src, dests in groups]
    finally:
        sys.setprofile(previous)
    assert calls == []
    assert all(tree.cost > 0 for tree in trees)
