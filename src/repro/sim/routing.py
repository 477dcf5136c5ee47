"""Unicast routing: ECMP-style shortest paths through the fabric.

Used by the unicast-based collectives (Ring, Binary Tree, Orca's host-agent
fan-out).  Next hops are chosen uniformly at random among shortest-path
neighbors — the per-flow hashing effect of ECMP — with per-destination BFS
distance maps cached for speed.
"""

from __future__ import annotations

import random

from ..steiner import MulticastTree
from ..topology import Topology


class UnicastRouter:
    """Shortest-path unicast routing with randomized ECMP tie-breaks."""

    def __init__(self, topo: Topology, rng: random.Random | None = None) -> None:
        self.topo = topo
        self.rng = rng or random.Random(0)
        self._dist_to: dict[str, dict[str, int]] = {}

    def _distances_to(self, dst: str) -> dict[str, int]:
        cached = self._dist_to.get(dst)
        if cached is None:
            cached = self.topo.distances_from(dst)
            self._dist_to[dst] = cached
        return cached

    def invalidate(self) -> None:
        """Drop caches after the topology changes (e.g. link failures)."""
        self._dist_to.clear()

    def path(
        self, src: str, dst: str, rng: random.Random | None = None
    ) -> list[str]:
        """One shortest path ``src -> dst``; raises if unreachable.

        ``rng`` overrides the router's shared RNG for the ECMP tie-breaks —
        collectives pass a per-job stream
        (:meth:`repro.collectives.env.CollectiveEnv.ecmp_rng`) so path
        choices depend only on ``(seed, job)``, not on how many other jobs
        routed first.  That independence is what makes the ECMP-routed
        baselines shardable.
        """
        if src == dst:
            return [src]
        dist = self._distances_to(dst)
        if src not in dist:
            raise ValueError(f"{dst!r} unreachable from {src!r}")
        choice = (rng or self.rng).choice
        path = [src]
        node = src
        while node != dst:
            here = dist[node]
            options = [
                v for v in self.topo.graph.neighbors(node) if dist.get(v, here) == here - 1
            ]
            node = choice(sorted(options))
            path.append(node)
        return path

    def path_tree(
        self, src: str, dst: str, rng: random.Random | None = None
    ) -> MulticastTree:
        """The path as a degenerate multicast tree (what transfers route on)."""
        path = self.path(src, dst, rng)
        return MulticastTree(src, {b: a for a, b in zip(path, path[1:])})
