"""Unicast Ring broadcast (NCCL-style, pipelined).

Hosts form a chain in locality order starting at the source; each host
forwards segments it has fully received while still receiving the rest
(the paper's chunked pipelining — our store-and-forward segments give the
same effect at finer grain).  The ring schedules unicasts; it does not
reduce total bytes: every hop carries the full message, which is exactly
the §1 bandwidth overshoot PEEL attacks.
"""

from __future__ import annotations

from ..sim import Transfer
from .base import BroadcastScheme, CollectiveHandle, Group, nccl_chunk_bytes
from .env import CollectiveEnv
from .registry import register_scheme


@register_scheme("ring", description="NCCL-style pipelined unicast ring")
class RingBroadcast(BroadcastScheme):
    """NCCL-style pipelined unicast ring (see module docstring)."""
    name = "ring"
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
        chain = [group.source.host] + receivers
        if len(chain) == 1:
            return handle

        chunk = nccl_chunk_bytes(message_bytes, env.config.mtu_bytes)
        ecmp = env.ecmp_rng()
        previous: Transfer | None = None
        for src, dst in zip(chain, chain[1:]):
            transfer = Transfer(
                env.network,
                env.next_transfer_name(f"ring-{src}"),
                src,
                message_bytes,
                [env.router.path_tree(src, dst, ecmp)],
                start_at=arrival_s,
                is_relay=previous is not None,
                on_host_done=handle.host_done,
                relay_chunk_bytes=chunk,
            )
            if previous is not None:
                previous.add_relay_child(src, transfer)
            transfer.start()
            previous = transfer
        return handle
