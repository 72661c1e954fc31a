#!/usr/bin/env python3
"""Every workload, every metric, in one table and one JSON file.

Runs each workload twice through ``perfbench/run.py`` at
``BENCHMARK.json``'s ``run_seconds`` -- once untraced (end-to-end
metrics) and once traced (per-layer metrics) -- each in its own process
so ``peak_rss_mb`` is the workload's own.  Prints every metric by name
with its unit and sample count and writes them, with the host facts, to
``--out``::

    python3 perfbench/report.py --seed 0 --out perfbench-results.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--out", str(out)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if not out.exists():
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} (trace {trace}) produced no result")
        return json.loads(out.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="perfbench-results.json")
    args = parser.parse_args()

    report = {"runs": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, trace)
            report["host"] = {k: v for k, v in result["host"].items()
                              if k not in ("workload", "trace")}
            report["runs"][f"{workload}/trace{trace}"] = result
            status = "ok" if result["correct"] else "FAILED"
            print(f"\n== {workload}  trace={trace}  correctness {status}"
                  f"  attempted={result['attempted']}"
                  f"  failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:44s} {m['value']:16.6g} {m['unit']:7s}"
                      f" n={m['samples']}")
    print("\nhost: " + json.dumps(report["host"]))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
