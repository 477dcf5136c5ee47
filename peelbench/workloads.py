"""The benchmark's four workloads, driven through the public API only.

Each workload turns a seed into inputs (``setup``), runs the work a user
would run (``run``), and knows how to check what the simulator produced.
The scenario workloads go through :class:`repro.api.ScenarioRun` (the two
halves of :func:`repro.api.run`) or :class:`repro.shard.ShardedScenarioRun`;
``control_churn`` drives a :class:`repro.control.ControlServer` in its own
process over a unix-domain socket with one closed-loop
:class:`repro.control.SocketClient`.

Every span name a workload records names the layer whose public call it
wraps (``api.plan``, ``shard.window``, ``control.submit``, ...).
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.api import ScenarioRun, ScenarioSpec, segment_bytes_for
from repro.control import LocalClient, SocketClient
from repro.core import Peel
from repro.experiments.control_churn import _build_campaign as churn_script
from repro.shard import ShardedScenarioRun, pod_local_jobs
from repro.sim import SimConfig
from repro.topology import FatTree, LeafSpine, fail_random_uplinks
from repro.workloads import generate_jobs

from tracing import NullTracer, fold_profile, status_kb

KB = 1 << 10
MB = 1 << 20

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    #: Operations attempted: collectives, or control requests.
    ops: int
    failed: int = 0
    #: Host seconds of the timed work.
    wall_s: float = 0.0
    #: Simulator events fired.
    events: int = 0
    #: Simulated completion time of each collective (seconds).
    ccts: list = field(default_factory=list)
    #: Simulated bytes sent on fabric links.
    fabric_bytes: int = 0
    #: Simulated results that must repeat exactly from rep to rep.
    summary: tuple = ()
    #: Hash over the simulated results (set on reference reps).
    digest: str | None = None
    #: Host round trips by request kind (control only), seconds.
    latencies: dict = field(default_factory=dict)
    #: Per-layer counts this rep observed.
    counts: dict = field(default_factory=dict)
    #: Problems found while checking this rep's output.
    errors: list = field(default_factory=list)
    #: Folded module profile a server process sent back (control only).
    profile: dict | None = None
    #: Peak resident kB the rep's child processes added: the shard workers
    #: past what they inherited at fork, or the control server.
    children_rss_kb: int = 0


def _hash(*parts) -> str:
    h = blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- scenario workloads -----------------------------------------------------------


class ScenarioWorkload:
    """A batch of collectives run to completion by the run driver."""

    #: Control needs a fresh server per rep; batch workloads reuse inputs.
    setup_per_rep = False
    default_seed = 7

    def __init__(self, num_jobs: int) -> None:
        self.num_jobs = num_jobs

    def build(self, seed: int, tracer):  # pragma: no cover - abstract
        """Return ``(topology, jobs, config, shards)`` for ``seed``."""
        raise NotImplementedError

    def setup(self, seed: int, tracer=None) -> ScenarioSpec:
        topo, jobs, config, shards = self.build(seed, tracer or NullTracer())
        return ScenarioSpec(
            topology=topo, scheme="peel", jobs=tuple(jobs), config=config,
            shards=shards,
        )

    def close(self, spec) -> None:
        pass

    # -- running -------------------------------------------------------------

    def run(self, spec: ScenarioSpec, tracer=None, reference: bool = False) -> Outcome:
        """One ``run(spec)``: plan and launch, then simulate to completion.

        A reference rep also folds every fired event into the event digest;
        the timed reps run the plain spec.
        """
        tracer = tracer or NullTracer()
        if reference:
            spec = dataclasses.replace(spec, event_digest=True)
        t0 = time.perf_counter()
        with tracer.span("api.plan"):
            scenario = ScenarioRun(spec)
        with tracer.span("api.simulate"):
            result = scenario.finish()
        wall = time.perf_counter() - t0
        out = outcome_of(spec, result, wall)
        ports = scenario.env.network.ports.values()
        out.counts["sim.ecn_marks"] = sum(port.ecn_marks for port in ports)
        return out

    def profile(self, spec: ScenarioSpec) -> tuple[dict, int]:
        """``(folded profile, events)`` of one rep under cProfile."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            out = self.run(spec)
        finally:
            profile.disable()
        return fold_profile(profile), out.events

    def golden_trace(self, spec: ScenarioSpec) -> tuple[str, list]:
        """The golden-trace digest of this spec, plus any mismatch found."""
        scenario = ScenarioRun(dataclasses.replace(spec, record_trace=True))
        return scenario.finish().trace_digest, []

    def plan_probe(self, spec: ScenarioSpec) -> tuple[list[float], int]:
        """Plan every job's group directly: per-plan seconds and the total
        prefix count."""
        return plan_probe(spec.topology, [
            (job.group.source.host, job.group.receiver_hosts) for job in spec.jobs
        ])

    def validate(self, spec: ScenarioSpec, out: Outcome) -> list[str]:
        """Checks any correct run passes, whatever the seed."""
        errors = []
        link_bps = spec.topology.link_bps
        floor_bytes = 0
        for job, cct in zip(spec.jobs, out.ccts):
            if cct is None or not math.isfinite(cct) or cct <= 0:
                errors.append(f"collective at {job.arrival_s} has CCT {cct}")
                continue
            # Each receiver's NIC must carry the whole message.
            if cct < job.message_bytes * 8 / link_bps:
                errors.append(f"CCT {cct} beats the NIC serialization bound")
            floor_bytes += job.message_bytes * len(job.group.receiver_hosts)
        if out.fabric_bytes < floor_bytes:
            errors.append(
                f"fabric carried {out.fabric_bytes} B, receivers need {floor_bytes} B"
            )
        return errors


def outcome_of(spec: ScenarioSpec, result, wall: float) -> Outcome:
    ccts = list(result.ccts)
    failed = sum(1 for c in ccts if c is None or not math.isfinite(c))
    events = result.replay.events_processed
    summary = (
        events, tuple(ccts), result.total_bytes, result.pfc_pause_events,
        result.wasted_bytes, result.header_overhead_bytes,
    )
    return Outcome(
        ops=len(spec.jobs),
        failed=failed,
        wall_s=wall,
        events=events,
        ccts=ccts,
        fabric_bytes=result.total_bytes,
        summary=summary,
        digest=_hash(summary, result.replay.event_digest),
        counts={
            "sim.events": events,
            "sim.pfc_pauses": result.pfc_pause_events,
            "collectives.header_bytes": result.header_overhead_bytes,
        },
    )


def in_child(fn, *args):
    """``fn(*args)`` run in a forked child process, so that its memory never
    counts towards this process's peak; the result comes back pickled."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def target():
        sender.send(fn(*args))

    proc = ctx.Process(target=target)
    proc.start()
    sender.close()
    try:
        return receiver.recv()
    finally:
        receiver.close()
        proc.join()


def plan_probe(topo, groups) -> tuple[list[float], int]:
    planner = Peel(topo)
    seconds = []
    prefixes = 0
    for source, receivers in groups:
        t0 = time.perf_counter()
        plan = planner.plan(source, receivers)
        seconds.append(time.perf_counter() - t0)
        prefixes += plan.num_prefixes
    return seconds, prefixes


class Bcast1024(ScenarioWorkload):
    """The headline: 512-GPU, 32 MiB PEEL Broadcasts on the paper's
    1024-NIC 8-ary fat-tree at offered load 0.3, default DCQCN/ECN."""

    name = "bcast_1024"

    def __init__(self, num_jobs: int = 12, num_gpus: int = 512,
                 message_bytes: int = 32 * MB, hosts_per_tor: int = 32) -> None:
        super().__init__(num_jobs)
        self.num_gpus = num_gpus
        self.message_bytes = message_bytes
        self.hosts_per_tor = hosts_per_tor

    def build(self, seed, tracer):
        with tracer.span("topology.build"):
            topo = FatTree(8, hosts_per_tor=self.hosts_per_tor)
        with tracer.span("workloads.generate"):
            jobs = generate_jobs(
                topo, self.num_jobs, self.num_gpus, self.message_bytes,
                offered_load=0.3, gpus_per_host=1, seed=seed,
            )
        return topo, jobs, SimConfig(segment_bytes=segment_bytes_for(self.message_bytes)), 1


class PlanAsym(ScenarioWorkload):
    """Small 64-GPU PEEL Broadcasts on the paper's 16x48 leaf-spine with 8%
    of spine-leaf links failed, at offered load 0.9."""

    name = "plan_asym"
    default_seed = 11

    def __init__(self, num_jobs: int = 750, num_gpus: int = 64,
                 message_bytes: int = 64 * KB, leaves: int = 48) -> None:
        super().__init__(num_jobs)
        self.num_gpus = num_gpus
        self.message_bytes = message_bytes
        self.leaves = leaves

    def build(self, seed, tracer):
        with tracer.span("topology.build"):
            topo = LeafSpine(16, self.leaves, 16)
            fail_random_uplinks(topo, 0.08, seed=seed)
        with tracer.span("workloads.generate"):
            jobs = generate_jobs(
                topo, self.num_jobs, self.num_gpus, self.message_bytes,
                offered_load=0.9, gpus_per_host=1, seed=seed,
            )
        return topo, jobs, SimConfig(segment_bytes=segment_bytes_for(self.message_bytes)), 1


class ShardPods(ScenarioWorkload):
    """A pod-local batch on an 8-ary fat-tree with 4 hosts per ToR, run as
    2 shard worker processes.  The ECN band is pushed out of reach, the
    regime sharding accepts today."""

    name = "shard_pods"
    shards = 2

    def __init__(self, jobs_per_pod: int = 64, message_bytes: int = 4 * MB,
                 k: int = 8) -> None:
        super().__init__(jobs_per_pod)
        self.message_bytes = message_bytes
        self.k = k

    def build(self, seed, tracer):
        with tracer.span("topology.build"):
            topo = FatTree(self.k, hosts_per_tor=4)
        with tracer.span("workloads.generate"):
            jobs = pod_local_jobs(topo, self.num_jobs, 4, self.message_bytes, seed=seed)
        config = SimConfig(
            segment_bytes=segment_bytes_for(self.message_bytes),
            ecn_kmin_bytes=1 << 30,
            ecn_kmax_bytes=1 << 31,
        )
        return topo, jobs, config, self.shards

    def serial(self, spec: ScenarioSpec, tracer=None, reference: bool = False) -> Outcome:
        """The same batch through the serial driver (the comparator)."""
        return super().run(dataclasses.replace(spec, shards=1), tracer, reference)

    def _serial_result(self, spec: ScenarioSpec) -> tuple:
        out = self.serial(spec, reference=True)
        return out.summary, out.digest

    def run(self, spec: ScenarioSpec, tracer=None, reference: bool = False) -> Outcome:
        """One sharded run; a reference rep also runs the serial driver (in
        a child process, outside this process's peak memory) and requires
        the sharded result to be byte-identical to it."""
        tracer = tracer or NullTracer()
        serial = None
        if reference:
            serial = in_child(self._serial_result, spec)
            spec = dataclasses.replace(spec, event_digest=True)
        inherited_kb = status_kb("self", "VmRSS")
        t0 = time.perf_counter()
        with tracer.span("shard.setup"):
            sharded = ShardedScenarioRun(spec, processes=True)
        while not sharded.drained:
            with tracer.span("shard.window"):
                sharded.advance_window()
        # The workers are still alive until finish(); each one's peak counts
        # past the pages it inherited from this process at fork.
        workers_kb = sum(
            max(0, status_kb(proc.pid, "VmHWM") - inherited_kb)
            for proc in multiprocessing.active_children()
        )
        with tracer.span("shard.finish"):
            result = sharded.finish()
        wall = time.perf_counter() - t0
        out = outcome_of(spec, result, wall)
        out.counts["shard.windows"] = sharded.windows_run
        out.children_rss_kb = workers_kb
        if serial is not None and serial != (out.summary, out.digest):
            out.errors.append("sharded run differs from the serial run")
        return out

    def golden_trace(self, spec):
        serial = ScenarioRun(
            dataclasses.replace(spec, shards=1, record_trace=True)
        ).finish().trace_digest
        sharded = ShardedScenarioRun(
            dataclasses.replace(spec, record_trace=True), processes=True
        ).finish().trace_digest
        errors = [] if sharded == serial else ["sharded golden trace differs from serial"]
        return serial, errors


# -- control-plane workload -------------------------------------------------------

class ControlSession:
    """One live server process plus its connected client."""

    def __init__(self, proc, client, topo, groups, ops, gids, requests):
        self.proc = proc
        self.client = client
        self.topo = topo
        self.groups = groups
        self.ops = ops
        self.gids = gids
        #: ``[(kind, ok, seconds)]`` of every request this session sent.
        self.requests = requests


class ControlChurn:
    """The two-tenant churn campaign through a control server process."""

    name = "control_churn"
    default_seed = 11
    setup_per_rep = True

    def __init__(self, num_jobs: int = 500, gap_scale: float = 8.0) -> None:
        self.num_jobs = num_jobs
        self.gap_scale = gap_scale

    # -- setup ---------------------------------------------------------------

    def setup(self, seed: int, tracer=None, server_mode: str | None = None) -> ControlSession:
        """Build the op script, start the server, connect, create groups.

        A traced setup starts a server that records its own spans.
        """
        tracer = tracer or NullTracer()
        server_mode = server_mode or ("spans" if tracer.enabled else "plain")
        with tracer.span("topology.build"):
            topo = LeafSpine(2, 4, 2)
        with tracer.span("workloads.generate"):
            _, groups, ops = churn_script(self.num_jobs, seed, self.gap_scale)
        socket_name = f"\0peelbench-{os.getpid()}-{time.monotonic_ns()}"
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "ctlserver.py"),
             "--socket", socket_name[1:], "--seed", str(seed), "--mode", server_mode],
            stdout=subprocess.PIPE,
            text=True,
        )
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            # Server and client each keep a CPU of their own.
            os.sched_setaffinity(proc.pid, {cpus[-1]})
        try:
            with tracer.span("control.connect"):
                client = _connect(socket_name, proc)
            requests = []
            gids = []
            for tenant, source, members in groups:
                resp = _timed_request(
                    client, requests, tracer, "create",
                    tenant=tenant, source=source, members=sorted(members),
                )
                gids.append(resp.get("group", -1))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return ControlSession(proc, client, topo, groups, ops, gids, requests)

    def close(self, session: ControlSession) -> None:
        if session.proc.poll() is None:
            session.proc.kill()
        session.proc.wait()
        session.client.close()

    # -- running -------------------------------------------------------------

    def run(self, session: ControlSession, tracer=None, reference: bool = False) -> Outcome:
        """The closed-loop op script up to and including ``report`` (timed),
        then shutdown and the server's own account of the run."""
        tracer = tracer or NullTracer()
        client = session.client
        requests = session.requests
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(0, set(cpus[:-1]))
        try:
            t0 = time.perf_counter()
            report = drive_script(client, session.ops, session.gids, requests, tracer)
            wall = time.perf_counter() - t0
        finally:
            os.sched_setaffinity(0, cpus)
        stats = _timed_request(client, requests, tracer, "stats").get("stats", {})
        events = _timed_request(client, requests, tracer, "events").get("events", [])
        _timed_request(client, requests, tracer, "shutdown")
        stdout, _ = session.proc.communicate(timeout=120)
        session.client.close()
        server = json.loads(stdout.strip().splitlines()[-1])
        for name, start, end in server["spans"]:
            tracer.add(name, start, end)
        ccts = [e["cct_s"] for e in events if e.get("event") == "job_done"]
        counters = stats.get("counters", {})
        summary = (
            server["events"], tuple(ccts), server["fabric_bytes"], server["obs_digest"],
            report.get("completed"), report.get("p99_cct_s"),
            report.get("cache_hits"), report.get("cache_invalidations"),
            tuple(sorted(counters.items())), stats.get("replans"),
        )
        out = Outcome(
            ops=len(requests),
            failed=sum(1 for _, ok, _ in requests if not ok),
            wall_s=wall,
            events=server["events"],
            ccts=ccts,
            fabric_bytes=server["fabric_bytes"],
            summary=summary,
            digest=_hash(summary),
        )
        for kind, ok, seconds in requests:
            out.latencies.setdefault(kind, []).append(seconds)
        submits = sum(1 for op in session.ops if op[0] == "submit")
        if report.get("violations"):
            out.errors.append(f"invariant violations: {report['violations'][:3]}")
        if report.get("completed") != submits or len(ccts) != submits:
            out.errors.append(
                f"{report.get('completed')} of {submits} submitted collectives completed"
            )
        rejected = sum(t.get("rejected", 0) for t in report.get("tenants", {}).values())
        out.counts.update({
            "sim.events": server["events"],
            "sim.pfc_pauses": server["pfc_pauses"],
            "sim.ecn_marks": server["ecn_marks"],
            "collectives.header_bytes": server["header_bytes"],
            "serve.cache_hits": report.get("cache_hits", 0),
            "serve.cache_invalidations": report.get("cache_invalidations", 0),
            "serve.rejected": rejected,
            "control.grafts": counters.get("grafts", 0),
            "control.prunes": counters.get("prunes", 0),
            "control.full_repeels": counters.get("full_repeels", 0),
            "control.replans": stats.get("replans", 0),
            "obs.export_s": server["export_s"],
        })
        out.profile = server.get("profile")
        out.children_rss_kb = server["peak_rss_kb"]
        return out

    def profile(self, seed: int) -> tuple[dict, int]:
        """``(folded profile, events)`` of the server's request handling."""
        session = self.setup(seed, server_mode="profile")
        try:
            out = self.run(session)
        finally:
            self.close(session)
        return fold_profile(out.profile), out.events

    def local_leg(self, seed: int) -> dict[str, list[float]]:
        """The same op script through an in-process :class:`LocalClient`:
        request seconds by kind, without the socket."""
        from ctlserver import build_control_plane

        _, groups, ops = churn_script(self.num_jobs, seed, self.gap_scale)
        client = LocalClient(build_control_plane(seed))
        requests = []
        gids = [
            _timed_request(client, requests, NullTracer(), "create", tenant=t,
                           source=s, members=sorted(m)).get("group", -1)
            for t, s, m in groups
        ]
        drive_script(client, ops, gids, requests, NullTracer())
        by_kind: dict[str, list[float]] = {}
        for kind, _, seconds in requests:
            by_kind.setdefault(kind, []).append(seconds)
        return by_kind

    def plan_probe(self, session: ControlSession) -> tuple[list[float], int]:
        return plan_probe(session.topo, [(s, sorted(m)) for _, s, m in session.groups])

    def validate(self, session, out: Outcome) -> list[str]:
        return []


def _connect(socket_name: str, proc, timeout_s: float = 60.0) -> SocketClient:
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return SocketClient(socket_name)
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None:
                raise RuntimeError(f"control server exited with {proc.returncode}")
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def _timed_request(client, requests, tracer, op: str, **fields) -> dict:
    with tracer.span(f"control.{op}"):
        t0 = time.perf_counter()
        resp = client.request(op, **fields)
        requests.append((op, bool(resp.get("ok")), time.perf_counter() - t0))
    return resp


def drive_script(client, ops, gids, requests, tracer) -> dict:
    """Closed loop: for each op, ``advance`` the service to its time, then
    send it; finally drain with ``run`` and fetch the ``report``."""
    for kind, gid, arg, at in ops:
        _timed_request(client, requests, tracer, "advance", until_s=at)
        if kind == "submit":
            _timed_request(client, requests, tracer, "submit",
                           group=gids[gid], message_bytes=arg, at_s=at)
        else:
            _timed_request(client, requests, tracer, kind,
                           group=gids[gid], host=arg, at_s=at)
    _timed_request(client, requests, tracer, "run")
    return _timed_request(client, requests, tracer, "report")


WORKLOADS = {
    wl.name: wl for wl in (Bcast1024, PlanAsym, ControlChurn, ShardPods)
}
