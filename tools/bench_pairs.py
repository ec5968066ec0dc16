"""Interleaved parent/change pairs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_name.json \\
        [--workload W ...] [--pairs 10] [--first-seed 1] [--seconds S]

PARENT and CHANGE are two checkouts of the repository, each with its
own bench/ and src/.  For each workload, pair i runs the benchmark
command of PARENT's BENCHMARK.json with ``--trace 0`` and seed
first_seed + i once in each checkout.  The parent runs first in even
pairs and the change in odd ones, so a steady drift in the machine's
speed falls on both sides alike.  The run length defaults to
BENCHMARK.json's run_seconds, and the metric directions and bounds come
from its end_to_end list; the file is only read.

For each workload and end-to-end metric the output holds both sides'
medians and quartiles (statistics.quantiles, inclusive), the parent's
interquartile range (IQR), the pairs the change wins (strictly better;
ties count for neither side) and a verdict:

- "better": the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's IQR,
  the rule a claimed gain must meet;
- "worse than bound": the change's median is worse than the parent's by
  more than the bound;
- "unresolved": the parent's IQR exceeds the bound times its median,
  and not every change run is better than every parent run;
- "within bound" otherwise.

Every run is listed in the output.  The exit status is 1 if any run
printed ``"correct": false``.  Standard library only; nothing is
imported from the package under test.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def _quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric statistics of paired runs: parent[i] and change[i] map
    each metric name to its value in pair i, and end_to_end is
    BENCHMARK.json's list of {"name", "better", "bound"}."""
    n = len(parent)
    if n == 0 or len(change) != n:
        raise ValueError(f"need the same nonzero number of runs on both sides, got {n} and {len(change)}")
    out = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1 if spec["better"] == "higher" else -1  # sign * (c - p) > 0: the change is better
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pm, cm = statistics.median(p), statistics.median(c)
        (pq1, pq3), (cq1, cq3) = _quartiles(p), _quartiles(c)
        iqr = pq3 - pq1
        if pm:
            rel = cm / pm - 1
        else:
            rel = 0.0 if cm == pm else math.copysign(math.inf, cm - pm)
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        if 10 * wins >= 9 * n and sign * (cm - pm) > iqr:
            verdict = "better"
        elif -sign * rel > bound:
            verdict = "worse than bound"
        elif iqr > bound * abs(pm) and min(sign * y for y in c) <= max(sign * x for x in p):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "parent_median": pm,
            "parent_q1": pq1,
            "parent_q3": pq3,
            "parent_iqr": iqr,
            "change_median": cm,
            "change_q1": cq1,
            "change_q3": cq3,
            "change_over_parent_minus_1": rel,
            "change_wins": wins,
            "pairs": n,
            "verdict": verdict,
        }
    return out


def run_bench(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout: its correctness, counts and
    metric values, read from the JSON object on its last output line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"bench_pairs: {workload} seed {seed} in {checkout} printed no result "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        ) from None
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _describe(checkout: Path) -> str | None:
    """The checkout's commit, as git describes it, or None outside git."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=checkout, capture_output=True, text=True
        )
    except FileNotFoundError:  # no git on the path
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    summary, runs = {}, []
    for workload in workloads:
        got = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "order": f"{order[0]}-first"}
            for side in order:
                pair[side] = run_bench(sides[side], spec["command"], workload, seed, seconds)
                got[side].append(pair[side])
            runs.append(pair)
            print(f"{workload} seed {seed}: {order[0]} first", file=sys.stderr)
        metrics = summarize(
            [r["metrics"] for r in got["parent"]], [r["metrics"] for r in got["change"]], spec["end_to_end"]
        )
        for name, m in metrics.items():
            print(
                f"{workload} {name}: {m['change_over_parent_minus_1']:+.1%} "
                f"({m['change_wins']}/{m['pairs']} wins) {m['verdict']}"
            )
        summary[workload] = {
            "pairs": args.pairs,
            "all_correct": all(r["correct"] for side in got.values() for r in side),
            "failed": {side: sum(r["failed"] for r in got[side]) for side in got},
            **metrics,
        }

    out = {
        "parent": _describe(args.parent),
        "change": _describe(args.change),
        "command": " ".join(spec["command"]) + " --workload W --seed N --seconds S --trace 0",
        "seconds": seconds,
        "protocol": (
            f"{args.pairs} interleaved pairs per workload, seeds {args.first_seed}.."
            f"{args.first_seed + args.pairs - 1}; the parent runs first in even pairs "
            "(order field); quartiles are statistics.quantiles(method='inclusive'); "
            "change_wins counts pairs where the change is strictly better; bounds from "
            "BENCHMARK.json's end_to_end"
        ),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(s["all_correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
