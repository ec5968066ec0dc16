"""Run every workload over ten seeds, plus one traced run, and write a baseline.

    python3 bench/baseline.py [--out bench/baseline.json]

Run from the repository root.  Each run lasts BENCHMARK.json's
run_seconds.  For each workload and end-to-end metric it records the
median, the quartiles of ``statistics.quantiles(n=4)`` and the spread
(Q3 - Q1) / median; the traced run of seed 1 adds the per-layer
metrics.  Compare a change with its parent by running this on both,
alternating which goes first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        values: dict = {}
        for seed in out["seeds"]:
            result = run(name, seed, spec["run_seconds"], 0)
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vs}
        traced = run(name, 1, spec["run_seconds"], 1)
        out["workloads"][name] = {
            "end_to_end": summary,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
