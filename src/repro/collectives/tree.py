"""Unicast Binary-Tree broadcast (NCCL-style, pipelined).

Hosts are arranged in a heap-ordered binary tree rooted at the source (in
locality order, so subtrees stay rack-local).  Interior hosts forward each
received segment to both children; the two unicasts share the host's single
NIC, which is the serialization penalty Figure 1b illustrates (some links
carry the message three times).
"""

from __future__ import annotations

from ..sim import Transfer
from .base import BroadcastScheme, CollectiveHandle, Group, nccl_chunk_bytes
from .env import CollectiveEnv
from .registry import register_scheme


@register_scheme("tree", description="NCCL-style pipelined binary tree")
class BinaryTreeBroadcast(BroadcastScheme):
    """NCCL-style pipelined binary tree (see module docstring)."""
    name = "tree"
    shardable = True  # ECMP draws come from the per-job stream

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        receivers = group.receiver_hosts
        handle = self._handle(env, group, message_bytes, arrival_s, receivers)
        order = [group.source.host] + receivers
        if len(order) == 1:
            return handle

        chunk = nccl_chunk_bytes(message_bytes, env.config.mtu_bytes)
        ecmp = env.ecmp_rng()
        inbound: dict[int, Transfer] = {}
        for parent in range(len(order)):
            for child in (2 * parent + 1, 2 * parent + 2):
                if child >= len(order):
                    continue
                src, dst = order[parent], order[child]
                transfer = Transfer(
                    env.network,
                    env.next_transfer_name(f"tree-{src}"),
                    src,
                    message_bytes,
                    [env.router.path_tree(src, dst, ecmp)],
                    start_at=arrival_s,
                    is_relay=parent != 0,
                    on_host_done=handle.host_done,
                    relay_chunk_bytes=chunk,
                )
                if parent != 0:
                    inbound[parent].add_relay_child(src, transfer)
                transfer.start()
                inbound[child] = transfer
        return handle
