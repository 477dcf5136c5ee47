"""Link-failure injection: turning a symmetric Clos into an asymmetric one.

The paper's robustness study (§4, Fig. 7) fails a random 1–10 % of
spine-to-leaf links.  We also support failing core--aggregation links on
fat-trees and DoR (Disable-on-Repair) style maintenance that takes down all
links of a switch at once.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .base import Topology
from .fattree import FatTree
from .layers import bfs_layers
from .leafspine import LeafSpine


def _fail_sample(
    topo: Topology,
    candidates: Sequence[tuple[str, str]],
    fraction: float,
    rng: random.Random,
    keep_connected_hosts: bool = True,
) -> list[tuple[str, str]]:
    """Fail ``fraction`` of ``candidates``, never disconnecting any host.

    Links are drawn without replacement; a draw that would disconnect a host
    from the rest of the fabric is skipped (real operators drain, they do not
    strand racks).  Returns the failed links.
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    target = round(fraction * len(candidates))
    order = list(candidates)
    rng.shuffle(order)
    failed: list[tuple[str, str]] = []
    hosts = topo.hosts
    for u, v in order:
        if len(failed) == target:
            break
        topo.graph.remove_edge(u, v)
        if keep_connected_hosts and not _hosts_connected(topo, hosts):
            topo.graph.add_edge(u, v, capacity_bps=topo.link_bps)
            continue
        topo.failed_links.append((u, v))
        failed.append((u, v))
    return failed


def _hosts_connected(topo: Topology, hosts: list[str]) -> bool:
    if not hosts:
        return True
    reached = bfs_layers(topo.graph, hosts[0])[1]
    return all(h in reached for h in hosts)


def fail_random_uplinks(
    topo: Topology, fraction: float, seed: int | None = None
) -> list[tuple[str, str]]:
    """Fail a fraction of the fabric's upper-tier links in place.

    For a :class:`LeafSpine` this targets spine--leaf links (the paper's
    Fig. 7 sweep); for a :class:`FatTree` it targets core--agg links.
    """
    rng = random.Random(seed)
    if isinstance(topo, LeafSpine):
        candidates = topo.spine_leaf_links()
    elif isinstance(topo, FatTree):
        candidates = topo.core_agg_links()
    else:
        raise TypeError(f"unsupported topology type: {type(topo).__name__}")
    return _fail_sample(topo, candidates, fraction, rng)


def fail_switch(topo: Topology, switch: str) -> list[tuple[str, str]]:
    """DoR-style maintenance: fail every link of one switch."""
    links = [(switch, v) for v in list(topo.graph.neighbors(switch))]
    for u, v in links:
        topo.fail_link(u, v)
    return links


def asymmetric(
    topo: Topology, fraction: float, seed: int | None = None
) -> tuple[Topology, list[tuple[str, str]]]:
    """Return a failed *copy* of ``topo`` plus the list of failed links."""
    dup = topo.copy()
    failed = fail_random_uplinks(dup, fraction, seed=seed)
    return dup, failed
