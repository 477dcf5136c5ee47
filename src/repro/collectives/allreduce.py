"""AllReduce: reduce-scatter followed by allgather.

The dominant data-parallel collective.  The reduce-scatter half is a
gather — each rank ends up owning the reduced version of one shard — and
multicast cannot accelerate it (aggregation needs either host relaying or
in-network compute, which the paper scopes out).  The allgather half *is*
a broadcast per shard, so PEEL applies there:

* :class:`RingAllReduce` — ring reduce-scatter + ring allgather (NCCL's
  classic 2(N-1)/N-bytes-per-NIC algorithm);
* :class:`PeelAllReduce` — ring reduce-scatter + per-owner PEEL multicast
  for the allgather half, cutting the fabric bytes of the second phase.

Reduction compute is modelled as free (the network is the bottleneck under
study); correctness of the data flow — every shard visits every rank — is
what the structure enforces.
"""

from __future__ import annotations

from ..sim import Transfer
from .allgather import PeelAllgather, RingAllgather, shard_bytes
from .base import BroadcastScheme, CollectiveHandle, Group, nccl_chunk_bytes
from .env import CollectiveEnv
from .registry import register_scheme


class _AllReduceScheme(BroadcastScheme):
    """Ring reduce-scatter stage shared by both variants.

    In ring reduce-scatter, shard ``j`` travels ``N-1`` hops around the
    ring, accumulating partial sums, and finishes at its owner rank
    ``(j + N - 1) mod N``.  On the wire this is exactly a relay chain of
    shard-sized transfers per shard — same bytes and timing as the
    allgather ring, different ownership bookkeeping.
    """

    allgather_cls: type[BroadcastScheme]

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        hosts = group.hosts
        n = len(hosts)
        if n <= 1:
            return self._handle(
                env, group, message_bytes, arrival_s, group.receiver_hosts
            )

        shard = shard_bytes(message_bytes, n)
        chunk = nccl_chunk_bytes(shard, env.config.mtu_bytes)

        # Phase 2 (allgather) starts per-owner, as soon as that owner's
        # reduced shard is complete; completion tracking lives there.
        allgather = self.allgather_cls()
        handle, counters, needed = allgather._allgather_handle(
            env, group, message_bytes, arrival_s
        )
        sink = allgather._shard_sink(handle, counters, needed)
        # One ECMP stream per job, shared by both phases: phase-2 draws
        # happen at completion events, but only this job's, in an order
        # fixed by the deterministic simulation.
        ecmp = env.ecmp_rng()
        phase2_starter = self._phase2_starter(env, group, shard, sink, ecmp)

        # Phase 1: ring reduce-scatter, one relay chain per shard.
        for owner in range(n):
            previous: Transfer | None = None
            final_host = hosts[(owner + n - 1) % n]
            for step in range(n - 1):
                src = hosts[(owner + step) % n]
                dst = hosts[(owner + step + 1) % n]
                is_last = step == n - 2

                def on_done(host, now, owner=owner, final=final_host, last=is_last):
                    if last and host == final:
                        phase2_starter(owner, final, now)

                transfer = Transfer(
                    env.network,
                    env.next_transfer_name(f"ar-rs-{owner}"),
                    src,
                    shard,
                    [env.router.path_tree(src, dst, ecmp)],
                    start_at=arrival_s,
                    is_relay=previous is not None,
                    on_host_done=on_done,
                    relay_chunk_bytes=chunk,
                )
                if previous is not None:
                    previous.add_relay_child(src, transfer)
                transfer.start()
                previous = transfer
        return handle

    def _phase2_starter(self, env, group, shard, sink, ecmp):
        raise NotImplementedError


@register_scheme("allreduce-ring", description="ring reduce-scatter + ring allgather")
class RingAllReduce(_AllReduceScheme):
    """Classic ring allreduce: both phases are rings."""

    name = "allreduce-ring"
    allgather_cls = RingAllgather
    shardable = True  # ECMP draws come from the per-job stream

    def _phase2_starter(self, env: CollectiveEnv, group: Group, shard: int, sink, ecmp):
        hosts = group.hosts
        n = len(hosts)
        chunk = nccl_chunk_bytes(shard, env.config.mtu_bytes)

        def start(owner: int, owner_host: str, now: float) -> None:
            sink(owner_host, now)  # the owner already holds its shard
            previous: Transfer | None = None
            start_idx = hosts.index(owner_host)
            for step in range(n - 1):
                src = hosts[(start_idx + step) % n]
                dst = hosts[(start_idx + step + 1) % n]
                transfer = Transfer(
                    env.network,
                    env.next_transfer_name(f"ar-ag-{owner}"),
                    src,
                    shard,
                    [env.router.path_tree(src, dst, ecmp)],
                    start_at=now,
                    is_relay=previous is not None,
                    on_host_done=sink,
                    relay_chunk_bytes=chunk,
                )
                if previous is not None:
                    previous.add_relay_child(src, transfer)
                transfer.start()
                previous = transfer

        return start


@register_scheme(
    "allreduce-peel",
    description="ring reduce-scatter + PEEL multicast allgather",
)
class PeelAllReduce(_AllReduceScheme):
    """Ring reduce-scatter + PEEL multicast allgather (§3 applied to the
    broadcast half of allreduce)."""

    name = "allreduce-peel"
    allgather_cls = PeelAllgather
    shardable = True  # ring phase uses the per-job stream; PEEL is RNG-free

    def _phase2_starter(self, env: CollectiveEnv, group: Group, shard: int, sink, ecmp):
        hosts = group.hosts
        peel = env.peel()

        def start(owner: int, owner_host: str, now: float) -> None:
            sink(owner_host, now)
            others = [h for h in hosts if h != owner_host]
            plan = peel.plan(owner_host, others)
            transfer = Transfer(
                env.network,
                env.next_transfer_name(f"ar-agp-{owner}"),
                owner_host,
                shard,
                plan.static_trees,
                receivers=set(others),
                start_at=now,
                on_host_done=sink,
            )
            transfer.start()

        return start
