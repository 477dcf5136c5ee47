"""Recompute ``peelbench/pinned.json``: each workload's output hash and
golden-trace digest at its default seed.

    python3 peelbench/pin.py [workload ...]

Run it only when a change is meant to move the simulated results, and say
so in that change; the benchmark fails every run whose output differs
from what is pinned here.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def pin(workload) -> dict:
    """The pinned entry for one workload at its default seed."""
    seed = workload.default_seed
    state = workload.setup(seed)
    try:
        out = workload.run(state, reference=True)
    finally:
        workload.close(state)
    if out.errors:
        raise RuntimeError(f"{workload.name}: {out.errors}")
    entry = {"seed": seed, "hash": out.digest}
    if hasattr(workload, "golden_trace"):
        digest, errors = workload.golden_trace(state)
        if errors:
            raise RuntimeError(f"{workload.name}: {errors}")
        entry["trace_digest"] = digest
    return entry


def main(argv=None) -> int:
    from workloads import WORKLOADS

    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    path = os.path.join(HERE, "pinned.json")
    with open(path, encoding="utf-8") as fh:
        pinned = json.load(fh)
    for name in names:
        pinned[name] = pin(WORKLOADS[name]())
        print(f"{name}: {pinned[name]}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
