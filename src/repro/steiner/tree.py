"""Rooted multicast tree representation shared by every tree builder."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import networkx as nx


class MulticastTree:
    """A multicast distribution tree rooted at the source.

    Stored as a parent map (``node -> parent``; the root has no entry).  The
    tree's *cost* is its edge count — with unit link costs this is exactly
    the number of link traversals one packet copy needs, the quantity both
    Lemma 2.1 and the Steiner formulation minimize.
    """

    #: Shared empty child list: ``children()`` misses return this instead of
    #: allocating a fresh list per call (callers never mutate the result).
    _NO_CHILDREN: list[str] = []

    def __init__(self, root: str, parent: Mapping[str, str]) -> None:
        self.root = root
        self.parent: dict[str, str] = dict(parent)
        if root in self.parent:
            raise ValueError("root must not have a parent")
        #: ``node -> sorted child list``; public so the data plane can bind
        #: it once per (tree, switch) instead of calling :meth:`children`
        #: on every segment hop (see ``SwitchNode.receive``).
        self.children_map: dict[str, list[str]] = {}
        for child, par in self.parent.items():
            self.children_map.setdefault(par, []).append(child)
        for kids in self.children_map.values():
            kids.sort()
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Each walk stops at the first node already known to reach the root,
        # so the whole check is linear; errors name the same first bad start
        # node (and cycle node) as a full walk from every node would.
        parent = self.parent
        rooted = {self.root}
        for start in parent:
            if start in rooted:
                continue
            seen = {start}
            node = start
            while node in parent:
                node = parent[node]
                if node in rooted:
                    break
                if node in seen:
                    raise ValueError(f"parent map contains a cycle through {node!r}")
                seen.add(node)
            else:
                raise ValueError(f"node {start!r} is not connected to the root")
            rooted |= seen

    # -- structure ----------------------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return {self.root} | set(self.parent)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """Directed edges, parent first."""
        return [(par, child) for child, par in self.parent.items()]

    @property
    def cost(self) -> int:
        return len(self.parent)

    def children(self, node: str) -> list[str]:
        return self.children_map.get(node, self._NO_CHILDREN)

    @property
    def leaves(self) -> set[str]:
        return {n for n in self.nodes if not self.children(n)}

    def path_from_root(self, node: str) -> list[str]:
        """Nodes from the root to ``node``, inclusive."""
        path = [node]
        while node != self.root:
            node = self.parent[node]
            path.append(node)
        return list(reversed(path))

    def depth_of(self, node: str) -> int:
        return len(self.path_from_root(node)) - 1

    @property
    def depth(self) -> int:
        return max((self.depth_of(n) for n in self.leaves), default=0)

    def subtree_nodes(self, node: str) -> set[str]:
        out = {node}
        stack = [node]
        while stack:
            for child in self.children(stack.pop()):
                out.add(child)
                stack.append(child)
        return out

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_undirected_edges(
        cls, root: str, edges: Iterable[tuple[str, str]]
    ) -> "MulticastTree":
        """Orient an undirected edge set away from ``root``."""
        graph = nx.Graph(edges)
        if root not in graph and not graph.number_of_edges():
            return cls(root, {})
        parent: dict[str, str] = {}
        for par, child in nx.bfs_edges(graph, root):
            parent[child] = par
        if len(parent) != graph.number_of_edges():
            raise ValueError("edge set is not a tree reachable from the root")
        return cls(root, parent)

    @classmethod
    def from_paths(cls, root: str, paths: Iterable[list[str]]) -> "MulticastTree":
        """Union of root-anchored paths; later paths must agree on parents."""
        parent: dict[str, str] = {}
        for path in paths:
            if path[0] != root:
                raise ValueError(f"path must start at the root, got {path[0]!r}")
            for par, child in zip(path, path[1:]):
                existing = parent.get(child)
                if existing is not None and existing != par:
                    raise ValueError(
                        f"conflicting parents for {child!r}: {existing!r} vs {par!r}"
                    )
                if child != root:
                    parent[child] = par
        return cls(root, parent)

    def to_digraph(self) -> nx.DiGraph:
        out = nx.DiGraph()
        out.add_node(self.root)
        out.add_edges_from(self.edges)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MulticastTree root={self.root!r} cost={self.cost}>"
