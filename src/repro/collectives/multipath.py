"""Striped multicast: the §2.3 "multicast vs multipath" reconciliation.

Builds several diverse near-optimal trees and stripes message segments
round-robin across them, so one collective's bytes spread over many core
links instead of funnelling onto a single tree — at the price of every tree
needing every receiver (no bandwidth saving, but better load spreading).
"""

from __future__ import annotations

from ..core.multipath import diverse_trees
from ..sim import Transfer
from .base import BroadcastScheme, CollectiveHandle, Group
from .env import CollectiveEnv
from .registry import register_scheme


@register_scheme(
    "striped",
    params=("num_trees",),
    description="segment striping over diverse multicast trees",
)
class StripedMulticastBroadcast(BroadcastScheme):
    """Multicast over ``num_trees`` diverse trees with segment striping."""

    def __init__(self, num_trees: int = 4) -> None:
        if num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        self.num_trees = num_trees
        self.name = f"striped-{num_trees}"

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        receivers = group.receiver_hosts
        handle = self._handle(env, group, message_bytes, arrival_s, receivers)
        if not receivers:
            return handle
        source = group.source.host
        trees = diverse_trees(env.topo, source, receivers, self.num_trees)
        transfer = Transfer(
            env.network,
            env.next_transfer_name(self.name),
            source,
            message_bytes,
            trees,
            receivers=set(receivers),
            start_at=arrival_s,
            on_host_done=handle.host_done,
            stripe=True,
        )
        transfer.start()
        return handle
