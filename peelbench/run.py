"""PEEL simulator benchmark: one workload, end-to-end or per-layer metrics.

    python3 peelbench/run.py --workload bcast_1024 --seed 7 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs the work repeatedly for
``--seconds`` seconds and checks every repetition's simulated output, then
prints one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also runs a
span pass and a profile pass and reports the per-layer metrics (see
``peelbench/README.md``).  Spans and the module profile of a traced run are
written to ``.peelbench-out/`` at the repository root.

Runs from a checkout of the repository: the package is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".peelbench-out")

#: Batch workloads time 3 to 200 setup trials, stopping after 3 s of them
#: (``setup_s`` is their median).  A trial repeats the setup for at least
#: 0.03 s and counts the mean.
SETUP_TRIALS = (3, 200)
SETUP_BUDGET_S = 3.0
SETUP_TRIAL_S = 0.03
#: Timed repetitions per run at the least, however short ``--seconds`` is.
MIN_REPS = 3
#: A tail percentile needs this many collectives beyond it.
TAIL_BEYOND = 10
#: Iterations of the host-speed probe loop.
PROBE_N = 30000
#: Seconds the probe loop takes on one CPU of the baseline host (baseline.json).
REFERENCE_CALIBRATION_S = 0.035

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fabric_bytes": "B",
}

PER_LAYER_FIXED = {
    "topology.build_s": ("s", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "api.plan_s": ("s", "lower"),
    "api.simulate_s": ("s", "lower"),
    "core.plan_us_p50": ("us", "lower"),
    "core.plan_us_p99": ("us", "lower"),
    "core.prefixes": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.pfc_pauses": ("count", "lower"),
    "sim.ecn_marks": ("count", "lower"),
    "sim.collectives": ("count", "higher"),
    "sim.cct_p50_us": ("us", "lower"),
    "sim.cct_tail_us": ("us", "lower"),
    "sim.cct_tail_pct": ("%", "higher"),
    "collectives.header_bytes": ("B", "lower"),
    "serve.cache_hits": ("count", "higher"),
    "serve.cache_invalidations": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "control.submit_p50_us": ("us", "lower"),
    "control.submit_p99_us": ("us", "lower"),
    "control.churn_p50_us": ("us", "lower"),
    "control.churn_p95_us": ("us", "lower"),
    "control.dispatch_us_p50": ("us", "lower"),
    "control.transport_us_p50": ("us", "lower"),
    "control.advance_s": ("s", "lower"),
    "control.grafts": ("count", "lower"),
    "control.prunes": ("count", "lower"),
    "control.full_repeels": ("count", "lower"),
    "control.replans": ("count", "lower"),
    "obs.export_s": ("s", "lower"),
    "shard.setup_s": ("s", "lower"),
    "shard.windows": ("count", "lower"),
    "shard.window_us_p50": ("us", "lower"),
    "shard.window_us_p99": ("us", "lower"),
    "shard.finish_s": ("s", "lower"),
    "shard.serial_wall_s": ("s", "lower"),
    "shard.speedup": ("ratio", "higher"),
    "trace_overhead": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: ``{name: (unit, better)}``."""
    from tracing import BUCKETS

    metrics = dict(PER_LAYER_FIXED)
    for bucket in BUCKETS:
        metrics[f"self_s.{bucket}"] = ("s", "lower")
    for bucket in BUCKETS:
        metrics[f"calls_per_event.{bucket}"] = ("calls/event", "lower")
    return metrics


# -- small statistics --------------------------------------------------------------


def pct(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation); 0 when empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cct_tail(ccts) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` collectives beyond it, or ``(0, 0)`` when there are
    too few collectives for that percentile to be above the median."""
    ordered = sorted(ccts)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 0.0, 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _probe_loop(n: int) -> float:
    push, pop = heapq.heappush, heapq.heappop
    heap: list = []
    table: dict = {}
    t0 = time.perf_counter()
    for i in range(n):
        push(heap, ((i * 7919) % 10007, i))
        table[i & 4095] = table.get((i * 31) & 4095, 0) + 1
    while heap:
        pop(heap)
    return time.perf_counter() - t0


def calibration_s(n: int = PROBE_N) -> float:
    """Time a fixed loop of heap and dict churn that uses only the standard
    library, once on each CPU this process may use, and return the mean:
    how fast this host runs Python right now, whatever the code under test
    does.  Host time is rescaled by it (see README.md)."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_loop(n))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def peak_rss_mb(children_kb: float) -> float:
    """Peak resident MiB of this process plus ``children_kb``, the most its
    child processes (shard workers or the control server) added in one rep."""
    from tracing import status_kb

    return (status_kb("self", "VmHWM") + children_kb) / 1024.0


# -- the measurement ---------------------------------------------------------------


class Run:
    """One benchmark invocation: reps, checks and the metrics they give."""

    def __init__(self, workload, seed: int, seconds: float, pinned: dict | None) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.pinned = pinned if seed == workload.default_seed else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Setup and timed-rep seconds, rescaled to the baseline host's speed.
        self.setups: list[float] = []
        self.scaled: list[float] = []
        #: Timed-rep seconds as measured.
        self.walls: list[float] = []
        self.probes: list[float] = [calibration_s()]
        self.latencies: dict[str, list[float]] = {}
        self.children_rss_kb = 0
        self.reference = None

    def _probe(self) -> float:
        """Probe the host's speed on every CPU (after collecting the last
        piece's garbage); returns the factor that rescales the piece timed
        since the previous probe to the baseline host's speed."""
        gc.collect()
        self.probes.append(calibration_s())
        return REFERENCE_CALIBRATION_S * 2 / (self.probes[-2] + self.probes[-1])

    def _setups(self):
        """Time the setup, rescaled to the baseline host's speed; returns
        the inputs the last setup built.

        A per-rep setup (the control server and its client) is timed once
        and rescaled like a rep: pinning it would pin its server too.  A
        batch workload runs 3 to 200 trials.  Each runs on one CPU, the
        CPUs taking turns, between two runs of the probe loop on that CPU:
        consecutive probes can differ by 2x on a shared host, and its two
        CPUs run setup code and the probe at different ratios, so one probe
        pair for a whole batch of setups would be too noisy.
        """
        if self.wl.setup_per_rep:
            gc.collect()
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed)
            seconds = time.perf_counter() - t0
            self.setups.append(seconds * self._probe())
            return state
        low, high = SETUP_TRIALS
        cpus = sorted(os.sched_getaffinity(0))
        state = None
        trials = 0
        stop = time.perf_counter() + SETUP_BUDGET_S
        try:
            while trials < low or (trials < high and time.perf_counter() < stop):
                os.sched_setaffinity(0, {cpus[trials % len(cpus)]})
                gc.collect()
                before = _probe_loop(PROBE_N)
                seconds = []
                while sum(seconds) < SETUP_TRIAL_S:
                    gc.collect()  # each setup starts from a heap without garbage
                    t0 = time.perf_counter()
                    built = self.wl.setup(self.seed)
                    seconds.append(time.perf_counter() - t0)
                    state = built  # the previous setup's inputs are freed untimed
                after = _probe_loop(PROBE_N)
                factor = REFERENCE_CALIBRATION_S * 2 / (before + after)
                self.setups.append(statistics.mean(seconds) * factor)
                trials += 1
        finally:
            os.sched_setaffinity(0, cpus)
        return state

    def _rep(self, state, reference: bool):
        """Run one rep and check it; returns its outcome or None."""
        wl = self.wl
        try:
            out = wl.run(state, reference=reference)
        except Exception:  # noqa: BLE001 - a failed rep is reported, not fatal
            traceback.print_exc()
            self.errors.append(f"{wl.name} rep raised")
            # Nothing to count ops from: charge one op so the run cannot pass.
            self.attempted += 1
            self.failed += 1
            return None
        errors = list(out.errors)
        if reference:
            errors += wl.validate(state, out)
            if self.pinned is not None and out.digest != self.pinned.get("hash"):
                errors.append(
                    f"output hash {out.digest} != pinned {self.pinned.get('hash')}"
                )
        elif out.summary != self.reference.summary:
            errors.append("simulated results differ from the reference rep")
        self.attempted += out.ops
        if errors:
            self.errors += errors
            self.failed += out.ops
        else:
            self.failed += out.failed
        return out

    def measure(self):
        """Setup, an untimed reference rep, then timed reps for ``seconds``."""
        wl = self.wl
        state = self._setups()
        try:
            self.reference = self._rep(state, reference=True)
        finally:
            if wl.setup_per_rep:
                wl.close(state)
        if self.reference is None:
            return None
        self._probe()
        deadline = time.perf_counter() + self.seconds
        while len(self.walls) < MIN_REPS or time.perf_counter() < deadline:
            if wl.setup_per_rep:
                state = self._setups()
                try:
                    out = self._rep(state, reference=False)
                finally:
                    wl.close(state)
            else:
                out = self._rep(state, reference=False)
            if out is None:
                break
            self.walls.append(out.wall_s)
            self.children_rss_kb = max(self.children_rss_kb, out.children_rss_kb)
            self.scaled.append(out.wall_s * self._probe())
            for kind, values in out.latencies.items():
                self.latencies.setdefault(kind, []).extend(values)
        return None if wl.setup_per_rep else state

    def end_to_end(self) -> dict[str, float]:
        ref = self.reference
        wall = statistics.median(self.scaled)
        print(f"wall median {statistics.median(self.walls):.4f} s as measured over "
              f"{len(self.walls)} reps; host-speed probe median "
              f"{statistics.median(self.probes):.5f} s", file=sys.stderr)
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": wall,
            "events_per_s": ref.events / wall,
            "peak_rss_mb": peak_rss_mb(self.children_rss_kb),
            "fabric_bytes": ref.fabric_bytes,
        }

    # -- the traced run ------------------------------------------------------

    def per_layer(self, state) -> tuple[dict[str, float], object]:
        """Span pass, profile pass, plan probe and the extra checks."""
        from tracing import BUCKETS, Tracer

        from workloads import ControlChurn, ShardPods

        wl = self.wl
        ref = self.reference
        metrics = dict.fromkeys(per_layer_metrics(), 0.0)
        tracer = Tracer(f"{wl.name}-seed{self.seed}-pid{os.getpid()}")

        traced_state = wl.setup(self.seed, tracer)
        serial = None
        try:
            if isinstance(wl, ShardPods):
                # Untraced: the serial comparator is not part of the sharded
                # run and shows only as shard.serial_wall_s.
                serial = wl.serial(traced_state)
            with tracer.span("bench.timed"):
                out = wl.run(traced_state, tracer)
            probe, prefixes = wl.plan_probe(traced_state)
        finally:
            wl.close(traced_state)
        if out.summary != ref.summary:
            self._fail_traced("traced rep differs from the reference rep", out.ops)
        if serial is not None and serial.summary != ref.summary:
            self._fail_traced("serial comparator differs from the sharded run", serial.ops)

        if isinstance(wl, ControlChurn):
            folded, events = wl.profile(self.seed)
            local = wl.local_leg(self.seed)
        else:
            folded, events = wl.profile(state)
            trace_digest, trace_errors = wl.golden_trace(state)
            for error in trace_errors:
                self._fail_traced(error, ref.ops)
            if self.pinned is not None and trace_digest != self.pinned.get("trace_digest"):
                self._fail_traced(
                    f"golden trace {trace_digest} != pinned "
                    f"{self.pinned.get('trace_digest')}", ref.ops,
                )

        wall = statistics.median(self.walls)
        tail, tail_pct = cct_tail(ref.ccts)
        metrics.update({
            "topology.build_s": tracer.total("topology.build"),
            "workloads.generate_s": tracer.total("workloads.generate"),
            "api.plan_s": tracer.total("api.plan"),
            "api.simulate_s": tracer.total("api.simulate"),
            "core.plan_us_p50": pct(probe, 50) * 1e6,
            "core.plan_us_p99": pct(probe, 99) * 1e6,
            "core.prefixes": prefixes,
            "sim.collectives": len(ref.ccts),
            "sim.cct_p50_us": statistics.median(ref.ccts) * 1e6,
            "sim.cct_tail_us": tail * 1e6,
            "sim.cct_tail_pct": tail_pct,
            "trace_overhead": out.wall_s / wall,
        })
        for name, value in out.counts.items():
            if name in metrics:
                metrics[name] = value
        for bucket in BUCKETS:
            self_s, calls = folded[bucket]
            metrics[f"self_s.{bucket}"] = self_s
            metrics[f"calls_per_event.{bucket}"] = calls / events if events else 0.0
        if isinstance(wl, ControlChurn):
            submits = self.latencies.get("submit", [])
            churn = self.latencies.get("join", []) + self.latencies.get("leave", [])
            local_submit = pct(local.get("submit", []), 50)
            metrics.update({
                "control.submit_p50_us": pct(submits, 50) * 1e6,
                "control.submit_p99_us": pct(submits, 99) * 1e6,
                "control.churn_p50_us": pct(churn, 50) * 1e6,
                "control.churn_p95_us": pct(churn, 95) * 1e6,
                "control.dispatch_us_p50": local_submit * 1e6,
                "control.transport_us_p50": (pct(submits, 50) - local_submit) * 1e6,
                "control.advance_s": tracer.total("control.advance"),
            })
        if serial is not None:
            sharded_wall = out.wall_s
            windows = tracer.durations("shard.window")
            metrics.update({
                "shard.setup_s": tracer.total("shard.setup"),
                "shard.window_us_p50": pct(windows, 50) * 1e6,
                "shard.window_us_p99": pct(windows, 99) * 1e6,
                "shard.finish_s": tracer.total("shard.finish"),
                "shard.serial_wall_s": serial.wall_s,
                "shard.speedup": serial.wall_s / sharded_wall,
                "sim.ecn_marks": serial.counts.get("sim.ecn_marks", 0),
            })
        return metrics, tracer

    def _fail_traced(self, error: str, ops: int) -> None:
        self.errors.append(error)
        self.attempted += ops
        self.failed += ops


def write_trace(wl, seed: int, tracer, metrics: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "spans": tracer.to_json(),
                   "per_layer": metrics}, fh, indent=1)
    return path


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def benchmark(workload, seed: int, seconds: float, trace: bool,
              pinned: dict | None = None) -> dict:
    """Run one workload and return the result object the CLI prints."""
    run = Run(workload, seed, seconds, pinned)
    state = run.measure()
    if run.reference is None or not run.walls:
        values = dict.fromkeys(per_layer_metrics() if trace else END_TO_END, 0.0)
    elif trace:
        values, tracer = run.per_layer(state)
        path = write_trace(workload, seed, tracer, values)
        prefixes = sorted({name.split(".")[0] for name in tracer.names()})
        print(f"spans by layer: {prefixes}; written to {path}", file=sys.stderr)
    else:
        values = run.end_to_end()
    if run.errors:
        print("output check failed: " + "; ".join(run.errors[:5]), file=sys.stderr)
    units = (
        {k: u for k, (u, _) in per_layer_metrics().items()} if trace else END_TO_END
    )
    return {
        "correct": not run.errors and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro package under {src}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} cpus={os.cpu_count()}", file=sys.stderr)
    pinned = load_pinned().get(workload.name)
    result = benchmark(workload, args.seed, args.seconds, bool(args.trace), pinned)
    frac = result["failed"] / result["attempted"]
    print(f"ops_failed_frac={frac:.6f} ({result['failed']}/{result['attempted']})",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
