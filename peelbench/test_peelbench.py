"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest peelbench -q

Every workload must print every metric of ``BENCHMARK.json`` with its
unit, pass its own output checks, and keep each layer's spans on the
workload that exercises it.  A wrong pinned hash and a refused control
request must both show up as failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    Bcast1024,
    ControlChurn,
    PlanAsym,
    ShardPods,
    _timed_request,
)

SEED = 3


def tiny(name: str):
    """Each workload at a size that runs in about a second."""
    if name == "bcast_1024":
        return Bcast1024(num_jobs=20, num_gpus=16, message_bytes=1 << 20, hosts_per_tor=4)
    if name == "plan_asym":
        return PlanAsym(num_jobs=30, num_gpus=8, leaves=12)
    if name == "control_churn":
        return ControlChurn(num_jobs=24)
    return ShardPods(jobs_per_pod=3, message_bytes=1 << 20, k=4)


NAMES = ("bcast_1024", "plan_asym", "control_churn", "shard_pods")


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == {k: u for k, (u, _) in run.per_layer_metrics().items()}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert sorted(w["name"] for w in json.load(fh)["workloads"]) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    result = run.benchmark(tiny(name), SEED, 0.2, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric_and_splits_spans(name):
    wl = tiny(name)
    result = run.benchmark(wl, SEED, 0.2, trace=True)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["calls_per_event.sim.engine"]["value"] > 0 or name == "shard_pods"
    with open(os.path.join(run.OUT_DIR, f"{name}-seed{SEED}.json"), encoding="utf-8") as fh:
        layers = {span["name"].split(".")[0] for span in json.load(fh)["spans"]}
    assert ("shard" in layers) == (name == "shard_pods")
    assert ("serve" in layers) == (name == "control_churn")
    assert ("control" in layers) == (name == "control_churn")


def test_wrong_pinned_hash_fails_every_operation():
    wl = tiny("bcast_1024")
    result = run.benchmark(wl, wl.default_seed, 0.2, trace=False,
                           pinned={"hash": "0" * 32})
    assert not result["correct"]
    assert result["failed"] >= wl.num_jobs


class RefusedRequest(ControlChurn):
    """The tiny churn workload plus one request the service must refuse:
    a submit to a group that does not exist, sent before the final ``run``."""

    def setup(self, seed, tracer=None, server_mode=None):
        session = super().setup(seed, tracer, server_mode)
        request = session.client.request

        def with_refused(op, **fields):
            if op == "run":
                _timed_request(session.client, session.requests, NullTracer(), "submit",
                               group=len(session.gids) + 1000, message_bytes=1)
            return request(op, **fields)

        session.client.request = with_refused
        return session


def test_refused_control_request_counts_as_failed():
    result = run.benchmark(RefusedRequest(num_jobs=24), SEED, 0.2, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "peelbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "peelbench/run.py", "--workload", "bcast_1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
