"""Base topology abstraction shared by fat-tree and leaf-spine fabrics."""

from __future__ import annotations

import copy
from collections.abc import Iterable

import networkx as nx

from .addressing import NodeKind, kind_of, parse, tier_rank
from .layers import bfs_layers

#: Default physical link speed used throughout the paper's evaluation (§4).
DEFAULT_LINK_BPS = 100e9


class Topology:
    """A Clos fabric: a networkx graph plus fabric-level metadata.

    Nodes are named strings (see :mod:`repro.topology.addressing`).  Edges
    carry a ``capacity_bps`` attribute.  Failed links are *removed* from the
    graph but remembered in :attr:`failed_links`, turning a symmetric Clos
    into the asymmetric variant the paper studies in §2.2–2.3.
    """

    def __init__(self, graph: nx.Graph, name: str = "clos") -> None:
        self.graph = graph
        self.name = name
        self.failed_links: list[tuple[str, str]] = []
        self._failed_capacity: dict[frozenset[str], float] = {}

    # -- node accessors ----------------------------------------------------

    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return [n for n in self.graph.nodes if kind_of(n) is kind]

    @property
    def hosts(self) -> list[str]:
        return self.nodes_of_kind(NodeKind.HOST)

    @property
    def switches(self) -> list[str]:
        return [n for n in self.graph.nodes if kind_of(n) is not NodeKind.HOST]

    def tor_of(self, host: str) -> str:
        """The edge switch a host hangs off (its only neighbor)."""
        if kind_of(host) is not NodeKind.HOST:
            raise ValueError(f"{host!r} is not a host")
        neighbors = list(self.graph.neighbors(host))
        if not neighbors:
            raise ValueError(f"host {host!r} is disconnected")
        return neighbors[0]

    def pod_of(self, node: str) -> int | None:
        """Pod index for fat-tree nodes; ``None`` for core/leaf-spine nodes."""
        return parse(node).pod

    # -- link orientation --------------------------------------------------

    def up_neighbors(self, node: str) -> list[str]:
        """Neighbors one tier closer to the core."""
        rank = tier_rank(node)
        return [v for v in self.graph.neighbors(node) if tier_rank(v) > rank]

    def down_neighbors(self, node: str) -> list[str]:
        """Neighbors one tier closer to the hosts."""
        rank = tier_rank(node)
        return [v for v in self.graph.neighbors(node) if tier_rank(v) < rank]

    def capacity_bps(self, u: str, v: str) -> float:
        return self.graph.edges[u, v]["capacity_bps"]

    # -- failures ----------------------------------------------------------

    def fail_link(self, u: str, v: str) -> None:
        """Remove a link, recording it as failed."""
        if not self.graph.has_edge(u, v):
            raise ValueError(f"no such link: {u!r} -- {v!r}")
        self._failed_capacity[frozenset((u, v))] = self.graph.edges[u, v][
            "capacity_bps"
        ]
        self.graph.remove_edge(u, v)
        self.failed_links.append((u, v))

    def restore_link(self, u: str, v: str) -> None:
        """Re-add a previously failed link (a repair or the end of a flap)."""
        if (u, v) in self.failed_links:
            self.failed_links.remove((u, v))
        elif (v, u) in self.failed_links:
            self.failed_links.remove((v, u))
        else:
            raise ValueError(f"link {u!r} -- {v!r} is not failed")
        cap = self._failed_capacity.pop(
            frozenset((u, v)), getattr(self, "link_bps", DEFAULT_LINK_BPS)
        )
        self.graph.add_edge(u, v, capacity_bps=cap)

    @property
    def is_symmetric(self) -> bool:
        """True iff no link has been failed (the §2.1 regime)."""
        return not self.failed_links

    def copy(self) -> "Topology":
        dup = copy.copy(self)
        dup.graph = self.graph.copy()
        dup.failed_links = list(self.failed_links)
        dup._failed_capacity = dict(self._failed_capacity)
        return dup

    # -- convenience -------------------------------------------------------

    def distances_from(self, source: str) -> dict[str, int]:
        """Hop distance from ``source`` to every reachable node."""
        return bfs_layers(self.graph, source)[1]

    def reachable(self, source: str, targets: Iterable[str]) -> bool:
        dist = self.distances_from(source)
        return all(t in dist for t in targets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name}: "
            f"{len(self.hosts)} hosts, {len(self.switches)} switches, "
            f"{self.graph.number_of_edges()} links, "
            f"{len(self.failed_links)} failed>"
        )


def add_link(graph: nx.Graph, u: str, v: str, capacity_bps: float) -> None:
    graph.add_edge(u, v, capacity_bps=capacity_bps)
