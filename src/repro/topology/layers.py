"""Hop-layer computation for the layer-peeling heuristic (§2.3).

Layer ``l_j`` holds every node at BFS distance ``j`` from the source host.
Even in an asymmetric Clos, every node at distance ``j > 0`` has at least one
neighbor at distance ``j - 1`` (its BFS parent), which is the invariant the
greedy peeling relies on.

:func:`bfs_layers` is the package's one hop-distance BFS: the layers, the
distance map and the reachability checks are all read off it.
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx


def bfs_layers(
    graph: nx.Graph, source: str
) -> tuple[list[set[str]], dict[str, int]]:
    """One level-synchronous BFS: ``(layers, depth)`` around ``source``.

    ``layers[j]`` is the set of nodes at hop distance ``j``; ``depth`` maps
    every reachable node to its distance, in BFS visit order (the order
    :func:`networkx.single_source_shortest_path_length` returns).  Each
    reachable node's adjacency is read at most once.  Raises
    :class:`networkx.NodeNotFound` if ``source`` is not in ``graph``.
    """
    adj = graph._adj
    if source not in adj:
        raise nx.NodeNotFound(f"Source {source} is not in G")
    num_nodes = len(adj)
    depth = {source: 0}
    layers = [{source}]
    frontier = [source]
    # Once every node has a depth, expanding the last layer finds nothing
    # new, so it is skipped (networkx stops there too).
    while len(depth) < num_nodes:
        level = len(layers)
        reached: list[str] = []
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in depth:
                    depth[nbr] = level
                    reached.append(nbr)
        if not reached:
            break
        layers.append(set(reached))
        frontier = reached
    return layers, depth


def hop_layers(graph: nx.Graph, source: str) -> list[set[str]]:
    """Concentric hop layers around ``source``.

    Returns ``layers`` with ``layers[j] = {v | dist(source, v) = j}``;
    unreachable nodes appear in no layer.  ``layers[0] == {source}``.
    """
    return bfs_layers(graph, source)[0]


def farthest_destination_layer(
    graph: nx.Graph, source: str, destinations: Iterable[str]
) -> int:
    """``F`` from §2.3: the hop distance of the farthest destination.

    Raises ``ValueError`` if any destination is unreachable from the source.
    """
    dist = bfs_layers(graph, source)[1]
    farthest = 0
    for d in destinations:
        if d not in dist:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
        farthest = max(farthest, dist[d])
    return farthest
