"""Bin-packed job placement."""

import random

import pytest

from repro.topology import FatTree, LeafSpine
from repro.workloads import (
    CollectiveJob,
    arrival_rate_for_load,
    fixed_count_arrivals,
    generate_jobs,
    locality_ordered_hosts,
    place_job,
)


class TestLocalityOrder:
    def test_rack_adjacency(self):
        ft = FatTree(4)
        hosts = locality_ordered_hosts(ft)
        assert hosts[0] == "host:p0:t0:0"
        assert hosts[1] == "host:p0:t0:1"
        # Hosts of the same rack are consecutive.
        assert hosts[2] == "host:p0:t1:0"

    def test_covers_all_hosts(self):
        ls = LeafSpine(2, 4, 3)
        assert sorted(locality_ordered_hosts(ls)) == sorted(ls.hosts)


class TestPlaceJob:
    def test_gpu_count(self):
        ft = FatTree(8, hosts_per_tor=4)
        group = place_job(ft, 37, gpus_per_host=8, rng=random.Random(0))
        assert group.size == 37

    def test_bin_packing_fills_hosts(self):
        ft = FatTree(8, hosts_per_tor=4)
        group = place_job(ft, 32, gpus_per_host=8, rng=random.Random(1))
        assert len(group.hosts) == 4  # 32/8

    def test_contiguity(self):
        """Chosen hosts form a contiguous run in locality order."""
        ft = FatTree(8, hosts_per_tor=4)
        ordered = locality_ordered_hosts(ft)
        group = place_job(ft, 64, gpus_per_host=8, rng=random.Random(2))
        indices = sorted(ordered.index(h) for h in group.hosts)
        assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_source_is_first_gpu(self):
        ft = FatTree(4)
        group = place_job(ft, 6, gpus_per_host=2, rng=random.Random(3))
        assert group.source == group.members[0]

    def test_deterministic_with_seed(self):
        ft = FatTree(8, hosts_per_tor=4)
        a = place_job(ft, 16, rng=random.Random(9))
        b = place_job(ft, 16, rng=random.Random(9))
        assert a == b

    def test_fragmentation_scatters(self):
        ft = FatTree(8, hosts_per_tor=4)
        ordered = locality_ordered_hosts(ft)
        frag = place_job(ft, 64, gpus_per_host=8, rng=random.Random(4),
                         fragmentation=1.0)
        indices = sorted(ordered.index(h) for h in frag.hosts)
        spread = indices[-1] - indices[0]
        assert spread > len(indices)  # no longer contiguous

    def test_too_large_job_rejected(self):
        ls = LeafSpine(2, 2, 2)
        with pytest.raises(ValueError):
            place_job(ls, 1000, gpus_per_host=8)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_rejects_non_positive_gpus(self, bad):
        with pytest.raises(ValueError):
            place_job(LeafSpine(2, 2, 2), bad)

    def test_rejects_bad_fragmentation(self):
        with pytest.raises(ValueError):
            place_job(LeafSpine(2, 2, 2), 2, fragmentation=1.5)


class TestGenerateJobs:
    def test_same_jobs_as_per_job_placement(self):
        """Sorting the hosts once per workload draws the same RNG values in
        the same order as calling :func:`place_job` for every job."""
        ft = FatTree(4, hosts_per_tor=2)
        jobs = generate_jobs(ft, 20, 6, 1024, gpus_per_host=2, seed=3,
                             fragmentation=0.5)
        rng = random.Random(3)
        rate = arrival_rate_for_load(0.3, 1024, 2, len(ft.hosts), ft.link_bps)
        want = [
            CollectiveJob(
                t, place_job(ft, 6, gpus_per_host=2, rng=rng, fragmentation=0.5),
                1024,
            )
            for t in fixed_count_arrivals(rate, 20, rng)
        ]
        assert jobs == want
