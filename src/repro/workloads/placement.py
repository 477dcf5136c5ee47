"""Job placement: bin-packed, locality-honouring GPU selection (§4, ref [3]).

GPU schedulers pack jobs into contiguous runs of servers within racks and
pods, which is the *job locality* PEEL's prefix aggregation relies on.  A
``fragmentation`` knob punches random holes into the contiguous run to
study the §3.4 fragmentation question.
"""

from __future__ import annotations

import math
import random

from ..collectives import Gpu, Group, locality_key
from ..topology import Topology

DEFAULT_GPUS_PER_HOST = 8


def locality_ordered_hosts(topo: Topology) -> list[str]:
    """All hosts sorted pod-major, rack-minor: adjacent hosts share racks."""
    return sorted(topo.hosts, key=locality_key)


def place_job(
    topo: Topology,
    num_gpus: int,
    gpus_per_host: int = DEFAULT_GPUS_PER_HOST,
    rng: random.Random | None = None,
    fragmentation: float = 0.0,
) -> Group:
    """Pick a bin-packed GPU group and its source.

    Chooses a contiguous run of servers at a random locality offset and
    fills them GPU by GPU; the source is the first GPU.  With
    ``fragmentation`` in (0, 1], each chosen host is displaced with that
    probability to a random host elsewhere in the fabric, modelling
    scattered placements.
    """
    return _place_job(
        locality_ordered_hosts(topo), num_gpus, gpus_per_host, rng, fragmentation
    )


def _place_job(
    hosts: list[str],
    num_gpus: int,
    gpus_per_host: int,
    rng: random.Random | None,
    fragmentation: float,
) -> Group:
    """:func:`place_job` over a precomputed :func:`locality_ordered_hosts`
    list, so a workload generator sorts the fabric's hosts once, not once
    per job."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if not 0 <= fragmentation <= 1:
        raise ValueError("fragmentation must be in [0, 1]")
    rng = rng or random.Random(0)
    hosts_needed = math.ceil(num_gpus / gpus_per_host)
    if hosts_needed > len(hosts):
        raise ValueError(
            f"job needs {hosts_needed} hosts, fabric has {len(hosts)}"
        )
    start = rng.randrange(0, len(hosts) - hosts_needed + 1)
    chosen = hosts[start : start + hosts_needed]

    if fragmentation:
        taken = set(chosen)
        outside = [h for h in hosts if h not in taken]
        rng.shuffle(outside)
        for i in range(len(chosen)):
            if outside and rng.random() < fragmentation:
                chosen[i] = outside.pop()

    gpus: list[Gpu] = []
    remaining = num_gpus
    for host in chosen:
        take = min(gpus_per_host, remaining)
        gpus.extend(Gpu(host, idx) for idx in range(take))
        remaining -= take
    return Group(source=gpus[0], members=tuple(gpus))


def place_job_racks(
    topo: Topology,
    num_racks: int,
    window_racks: int,
    rng: random.Random | None = None,
) -> Group:
    """Occupy whole racks sampled from a contiguous rack window.

    Models §3.4's fragmentation at the granularity where it hurts prefix
    aggregation: ``num_racks`` racks chosen out of a locality window of
    ``window_racks`` leaves gaps *between racks*, splintering the
    power-of-two ToR blocks.  ``window_racks == num_racks`` is perfectly
    bin-packed; larger windows are sparser placements.
    """
    if num_racks < 1:
        raise ValueError("num_racks must be >= 1")
    if window_racks < num_racks:
        raise ValueError("window_racks must be >= num_racks")
    rng = rng or random.Random(0)
    hosts = locality_ordered_hosts(topo)
    racks: list[list[str]] = []
    current_rack: str | None = None
    for host in hosts:
        rack = topo.tor_of(host)
        if rack != current_rack:
            racks.append([])
            current_rack = rack
        racks[-1].append(host)
    if window_racks > len(racks):
        raise ValueError(
            f"window of {window_racks} racks exceeds fabric's {len(racks)}"
        )
    start = rng.randrange(0, len(racks) - window_racks + 1)
    window = racks[start : start + window_racks]
    chosen = sorted(rng.sample(range(window_racks), num_racks))
    gpus = tuple(
        Gpu(host, 0) for index in chosen for host in window[index]
    )
    return Group(source=gpus[0], members=gpus)
