#!/usr/bin/env python3
"""Regenerate the pinned outcome digests in ``perfbench/pinned.json``.

A simulation workload's digest covers one direct repetition of each of
the seed's traffic variants (cycles, injected, delivered,
``work_counter``, every counter, the exact latency histogram).
``service_mix``'s digest covers every job's key and metrics, with each
job executed in-process by ``execute_job`` and no service involved, so
a pinned service run also proves the service returns what a direct
execution returns.

Only a change that is *meant* to alter simulated behaviour may re-pin::

    python3 perfbench/pin.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import service_workload  # noqa: E402
import sim_workloads  # noqa: E402
from run import PINNED, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pin(workload: str, seed: int) -> str:
    if workload == "service_mix":
        return service_workload.expected_digest(seed)
    spec = sim_workloads.WORKLOADS[workload]
    reps = [sim_workloads.run_rep(spec, config)
            for config in sim_workloads.variant_configs(spec, seed)]
    return sim_workloads.set_digest([reps], None)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range")
    args = parser.parse_args()
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for workload in WORKLOADS:
        table = pins.setdefault(workload, {})
        for seed in seed_range(args.seeds):
            table[str(seed)] = pin(workload, seed)
            print(f"{workload} seed {seed}: {table[str(seed)][:16]}",
                  flush=True)
        pins[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
