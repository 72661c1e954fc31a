#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clrp_saturation --seed 3 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the layers named in ``perfbench/README.md`` and
reports their per-layer metrics instead.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are a human-readable table (metric, value, unit, sample
count).  ``--out FILE`` also writes the table as JSON together with
host facts.  A run whose correctness gate fails prints
``"correct": false`` with no metrics and exits 1; a directory without
the simulator's sources exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
SCRATCH = ROOT / ".perfbench_tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def catalogue(trace: int) -> dict[str, str]:
    """``name -> unit`` of the metrics a run reports, from BENCHMARK.json."""
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Measure one benchmark workload (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="time budget of a simulation run, which sets its"
                             " number of rounds (service_mix has a fixed"
                             " volume)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write detailed results (JSON)")
    return parser.parse_args(argv)


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    return pins.get(workload, {}).get(str(seed))


def host_facts(args) -> dict:
    import statistics

    import hostspeed
    from repro.sim.config import NetworkConfig

    return {
        "nproc": os.cpu_count(),
        # Times are in reference seconds; this is how fast the host ran
        # the calibration kernel at the end of the run.
        "ref_kernel_s": hostspeed.REF_KERNEL_S,
        "kernel_s": statistics.median(hostspeed.probe(50)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": NetworkConfig.__dataclass_fields__["backend"].default,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, scratch: str):
    import metrics as metrics_mod
    pinned = pinned_digest(args.workload, args.seed)
    if args.workload == "service_mix":
        import service_workload as svc

        fn = svc.measure_traced if args.trace else svc.measure
        m, attempted, failed = fn(args.seed, pinned, scratch)
    else:
        import sim_workloads as sims

        workload = sims.WORKLOADS[args.workload]
        if args.trace:
            m, attempted, failed = sims.measure_traced(
                workload, args.seed, args.seconds, pinned)
        else:
            m, attempted, failed = sims.measure(
                workload, args.seed, args.seconds, pinned, scratch)
    out = metrics_mod.Metrics()
    for name in catalogue(args.trace):
        got = m.pop(name, None)
        if got is None:
            if not args.trace:
                raise KeyError(f"end-to-end metric {name} not measured")
            # The layer does not run on this workload.
            got = metrics_mod.Metric(0.0, 0)
        out[name] = got
    if m:
        raise KeyError(f"metrics outside the catalogue: {sorted(m)}")
    return out, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}; run"
              " from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        metrics, attempted, failed = measure(args, scratch)
        correct = True
    except Exception:  # the gate failed: report no numbers
        traceback.print_exc()
        metrics, attempted, failed, correct = {}, 1, 1, False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass

    units = catalogue(args.trace)
    table = {name: {"value": m.value, "unit": units[name],
                    "samples": m.samples} for name, m in metrics.items()}
    for name, row in table.items():
        print(f"{name:44s} {row['value']:16.6g} {row['unit']:7s}"
              f" n={row['samples']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": host_facts(args),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": table,
        }, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
