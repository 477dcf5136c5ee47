"""The layer-peeling greedy Steiner heuristic for asymmetric Clos (§2.3).

Hop layers are peeled from the outside in.  On each layer the algorithm
greedily adds the switch that attaches the most still-unconnected tree nodes
of the layer above — mimicking the classical set-cover heuristic while
preserving a layered, loop-free structure.  Approximation factor:
``O(min(F, |D|))`` where ``F`` is the farthest destination's hop distance
(Theorem 2.5).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import networkx as nx

from ..steiner import MulticastTree, validate_tree
from ..topology import Topology
from ..topology.addressing import NodeKind, kind_of
from ..topology.layers import bfs_layers


def layer_peeling_tree(
    topo: Topology | nx.Graph, source: str, destinations: Iterable[str]
) -> MulticastTree:
    """Build an approximate multicast tree from ``source`` to the group.

    Works on any connected graph, symmetric or not; destinations must be
    reachable.  Hosts never act as transit nodes (only the source, the
    destinations, and switches may join the tree).

    One BFS gives the layers; each greedy pick then costs the degree sum of
    the still-uncovered nodes, not a sort and scan of the whole layer.
    Nothing derived from the graph outlives the call, since fabrics are
    failed in place.
    """
    graph = topo.graph if isinstance(topo, Topology) else topo
    dests = [d for d in dict.fromkeys(destinations) if d != source]
    if not dests:
        return MulticastTree(source, {})

    layers, depth = bfs_layers(graph, source)
    for d in dests:
        if d not in depth:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
    farthest = max(depth[d] for d in dests)

    adj = graph._adj
    in_tree: set[str] = {source, *dests}
    parent: dict[str, str] = {}

    for level in range(farthest - 1, -1, -1):
        layer = layers[level]
        upper = [n for n in layers[level + 1] if n in in_tree]
        uncovered: set[str] = set()
        for node in upper:
            existing = _neighbor_in(adj[node], layer, in_tree)
            if existing is not None:
                if node not in parent:
                    parent[node] = existing
            else:
                uncovered.add(node)
        while uncovered:
            best = _best_cover(adj, layer, uncovered)
            in_tree.add(best)
            for node in sorted(uncovered.intersection(adj[best])):
                parent[node] = best
                uncovered.discard(node)

    tree = MulticastTree(source, parent)
    validate_tree(tree, graph, source, dests)
    return tree


def _neighbor_in(
    neighbors: Iterable[str], layer: set[str], in_tree: set[str]
) -> str | None:
    """Deterministically pick an already-in-tree neighbor on ``layer``."""
    candidates = [v for v in neighbors if v in layer and v in in_tree]
    return min(candidates) if candidates else None


def _best_cover(adj: Mapping, layer: set[str], uncovered: set[str]) -> str:
    """Switch on ``layer`` adjacent to the most uncovered nodes (§2.3 step 4a).

    Ties break lexicographically for determinism.  Every uncovered node has a
    BFS parent on ``layer``, so a positive-coverage switch always exists.

    Covers are counted from the uncovered side (adjacency is symmetric), so
    only ``layer`` nodes with positive cover are ever looked at.
    """
    cover: dict[str, int] = {}
    for node in uncovered:
        for v in adj[node]:
            if v in layer:
                cover[v] = cover.get(v, 0) + 1
    switches = [v for v in cover if kind_of(v) is not NodeKind.HOST]
    if switches:
        return min(switches, key=lambda v: (-cover[v], v))
    # Uncovered nodes whose only lower-layer neighbors are hosts can only
    # happen for the source's own layer-1 neighbors; the source covers them,
    # but it sits on layer 0 and is not a switch.  Fall back to the smallest
    # host neighbor present in the layer (the source itself).
    if cover:
        return min(cover)
    raise ValueError("no covering node found; layering invariant violated")


def peeled_tree_bound(tree: MulticastTree, destinations: Iterable[str]) -> int:
    """Lemma 2.3's upper bound ``|D| * F`` on the peeled tree size."""
    dests = list(dict.fromkeys(destinations))
    farthest = max((tree.depth_of(d) for d in dests if d in tree.nodes), default=0)
    return len(dests) * max(farthest, 1)
