"""Spans and the module profile for the benchmark's traced pass.

Spans are recorded by the benchmark's own code around each call into a
layer's public functions (nothing inside ``src/`` is instrumented).  Each
span is ``(name, start_s, end_s, parent, run_id)`` with ``parent`` the
index of the enclosing span; spans live in memory until the run ends.

The module profile is a ``cProfile`` pass whose per-function rows are
folded into this repository's layers (``sim.engine``, ``core``, ...), so a
shift of self time or call counts between layers is visible per workload.

:func:`status_kb` reads a process's memory figures for ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import os
import pstats
import time

#: Profile buckets, in report order.  ``other`` takes the standard library,
#: builtins and every ``repro`` module not named here.
BUCKETS = (
    "sim.engine",
    "sim.network",
    "sim.packet",
    "sim.transfer",
    "sim.dcqcn",
    "sim.invariants",
    "core",
    "steiner",
    "topology",
    "collectives",
    "obs",
    "serve",
    "control",
    "shard",
    "networkx",
    "other",
)

_SIM_FILES = {"engine", "network", "packet", "transfer", "dcqcn", "invariants"}
_PACKAGES = {
    "core", "steiner", "topology", "collectives", "obs", "serve", "control", "shard",
}


def status_kb(pid: int | str, field: str) -> int:
    """A kB field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``.

    ``VmHWM`` is the peak resident size of the process's own address space.
    Unlike ``ru_maxrss``, it does not carry the peak of the process that
    spawned it across ``exec``; a forked child starts at what it inherited.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class NullTracer:
    """The untraced stand-in: every span is a no-op."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, start_s: float, end_s: float) -> None:
        pass


class Tracer:
    """In-memory span recorder for one run id."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start_s, end_s, parent_index]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start_s: float, end_s: float) -> None:
        """Record a span another process timed (``perf_counter`` reads the
        same monotonic clock in every process on the host)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start_s, end_s, parent])

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "start_s": start,
                "end_s": end,
                "parent": parent,
                "run_id": self.run_id,
            }
            for name, start, end, parent in self.spans
        ]


def bucket_of(filename: str, repro_dir: str, networkx_dir: str | None) -> str:
    """The layer a profiled function's source file belongs to."""
    path = os.path.abspath(filename) if filename not in ("~", "") else filename
    if path.startswith(repro_dir + os.sep):
        parts = path[len(repro_dir) + 1:].split(os.sep)
        if parts[0] == "sim" and len(parts) == 2:
            stem = parts[1].removesuffix(".py")
            if stem in _SIM_FILES:
                return f"sim.{stem}"
        elif parts[0] in _PACKAGES:
            return parts[0]
        return "other"
    if networkx_dir and path.startswith(networkx_dir + os.sep):
        return "networkx"
    return "other"


def fold_profile(profile) -> dict[str, list[float]]:
    """``{bucket: [self_s, calls]}`` over every bucket in :data:`BUCKETS`.

    Accepts a ``cProfile.Profile`` or a dict another process folded.
    """
    if isinstance(profile, dict):
        return {b: list(profile.get(b, (0.0, 0))) for b in BUCKETS}
    import networkx

    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    networkx_dir = os.path.dirname(os.path.abspath(networkx.__file__))
    out = {bucket: [0.0, 0] for bucket in BUCKETS}
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(profile).stats.items():
        row = out[bucket_of(filename, repro_dir, networkx_dir)]
        row[0] += tottime
        row[1] += ncalls
    return out
