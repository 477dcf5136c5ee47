"""Control-plane server process for the ``control_churn`` workload.

Serves one :class:`repro.control.ControlPlane` (two-spine leaf-spine,
PEEL, congestion replanner on, observability attached, invariants checked)
on an abstract unix-domain socket until a client sends ``shutdown``, then
prints one JSON line with the server's own account of the run: simulator
events, fabric bytes, the digest of the exact obs metrics+trace export, the
time that export took and the server's peak resident memory.

    python3 peelbench/ctlserver.py --socket NAME --seed N [--mode plain|spans|profile]

``--mode spans`` records spans around the calls the server makes into the
control and serve layers; ``--mode profile`` profiles request handling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from hashlib import blake2b

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def build_control_plane(seed: int):
    """The campaign's service, exactly as both transports drive it."""
    from repro.control import CongestionReplanner, ControlPlane
    from repro.obs import Observability
    from repro.sim import SimConfig
    from repro.topology import LeafSpine

    return ControlPlane(
        LeafSpine(2, 4, 2),
        "peel",
        SimConfig(segment_bytes=65536, seed=seed),
        check_invariants=True,
        obs=Observability(sample_interval_s=100e-6),
        replanner=CongestionReplanner(),
    )


def _wrap(spans: list, name: str, fn):
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append((name, t0, time.perf_counter()))

    return timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True, help="abstract socket name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    args = parser.parse_args(argv)

    from repro.control import ControlServer

    from tracing import fold_profile, status_kb

    control = build_control_plane(args.seed)
    server = ControlServer(control, "\0" + args.socket)
    dispatcher = server.dispatcher
    runtime = control.runtime
    spans: list = []
    profile = None
    if args.mode == "spans":
        dispatcher.handle = _wrap(spans, "control.dispatch", dispatcher.handle)
        runtime.submit = _wrap(spans, "serve.submit", runtime.submit)
        runtime.run = _wrap(spans, "serve.run", runtime.run)
        runtime.report = _wrap(spans, "serve.report", runtime.report)
    elif args.mode == "profile":
        import cProfile

        profile = cProfile.Profile()
        handle = dispatcher.handle

        def profiled(req):
            profile.enable()
            try:
                return handle(req)
            finally:
                profile.disable()

        dispatcher.handle = profiled
    server.serve_forever()

    obs = runtime.obs
    t0 = time.perf_counter()
    metrics = obs.metrics_json()
    trace = obs.trace_json()
    export_s = time.perf_counter() - t0
    digest = blake2b(digest_size=16)
    digest.update(metrics.encode("utf-8"))
    digest.update(trace.encode("utf-8"))
    env = control.env
    network = env.network
    header_bytes = sum(
        t.header_bytes * (t.num_segments + t.retransmissions)
        for record in runtime.records
        if record.handle is not None
        for t in record.handle.transfers
        if t.header_bytes
    )
    print(json.dumps({
        "events": env.sim.processed,
        "fabric_bytes": network.total_bytes_sent(),
        "pfc_pauses": network.pfc_pause_events,
        "ecn_marks": sum(port.ecn_marks for port in network.ports.values()),
        "header_bytes": header_bytes,
        "obs_digest": digest.hexdigest(),
        "export_s": export_s,
        "spans": spans,
        "profile": fold_profile(profile) if profile is not None else None,
        "peak_rss_kb": status_kb("self", "VmHWM"),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
