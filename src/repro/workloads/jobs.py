"""Collective job specs: arrivals + placement combined into a workload."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..collectives import Group
from ..topology import Topology
from .arrivals import fixed_count_arrivals
from .load import arrival_rate_for_load
from .placement import DEFAULT_GPUS_PER_HOST, _place_job, locality_ordered_hosts


@dataclass(frozen=True)
class CollectiveJob:
    """One Broadcast instance to run: when, who, how much — and for whom
    (multi-tenant serving tags each job with its tenant)."""

    arrival_s: float
    group: Group
    message_bytes: int
    tenant: str = "default"


def generate_jobs(
    topo: Topology,
    num_jobs: int,
    num_gpus: int,
    message_bytes: int,
    offered_load: float = 0.3,
    gpus_per_host: int = DEFAULT_GPUS_PER_HOST,
    seed: int = 0,
    fragmentation: float = 0.0,
) -> list[CollectiveJob]:
    """A Poisson workload of identical-shape Broadcasts at a target load.

    Placement, source selection and arrival times are all derived from
    ``seed`` so scenarios are reproducible and schemes can be compared on
    the exact same workload.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    rng = random.Random(seed)
    hosts = locality_ordered_hosts(topo)
    receiver_hosts = max(1, math.ceil(num_gpus / gpus_per_host) - 1)
    rate = arrival_rate_for_load(
        offered_load,
        message_bytes,
        receiver_hosts,
        len(hosts),
        topo.link_bps,
    )
    times = fixed_count_arrivals(rate, num_jobs, rng)
    jobs = []
    for t in times:
        group = _place_job(hosts, num_gpus, gpus_per_host, rng, fragmentation)
        jobs.append(CollectiveJob(t, group, message_bytes))
    return jobs


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of a multi-tenant serving workload."""

    name: str
    num_jobs: int
    num_gpus: int
    message_bytes: int
    offered_load: float = 0.1
    fragmentation: float = 0.0

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if self.offered_load <= 0:
            raise ValueError("offered_load must be positive")


def generate_tenant_jobs(
    topo: Topology,
    tenants: list[TenantSpec],
    gpus_per_host: int = DEFAULT_GPUS_PER_HOST,
    seed: int = 0,
) -> list[CollectiveJob]:
    """Merge independent per-tenant Poisson streams into one job timeline.

    Each tenant gets its own arrival process (calibrated to its own offered
    load) and its own placement draws, all derived from ``seed`` + the
    tenant's position so streams are reproducible and scheme comparisons
    see identical workloads.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    hosts = locality_ordered_hosts(topo)
    jobs: list[CollectiveJob] = []
    for index, spec in enumerate(tenants):
        # String seeding is deterministic (sha512-based), unlike str hash.
        rng = random.Random(f"{seed}:{index}:{spec.name}")
        receiver_hosts = max(1, math.ceil(spec.num_gpus / gpus_per_host) - 1)
        rate = arrival_rate_for_load(
            spec.offered_load,
            spec.message_bytes,
            receiver_hosts,
            len(hosts),
            topo.link_bps,
        )
        for t in fixed_count_arrivals(rate, spec.num_jobs, rng):
            group = _place_job(
                hosts, spec.num_gpus, gpus_per_host, rng, spec.fragmentation
            )
            jobs.append(CollectiveJob(t, group, spec.message_bytes, spec.name))
    jobs.sort(key=lambda j: j.arrival_s)
    return jobs
