"""The qball benchmark: three closed-loop workloads with checked answers.

    python3 bench/run.py --workload sweep|classify|bundle --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.

``--trace 0`` measures the end-to-end metrics: it runs a fixed number
of whole passes of the workload, S seconds' worth at the seed commit's
speed, each in a fresh interpreter so that module memos start cold as
they do for a command-line user, and between passes times fresh
interpreters importing qball (set-up).  One caller issues one call at a
time.

``--trace 1`` runs the pass twice untraced and twice with spans around
every layer, reports the per-layer metrics and the tracing overhead,
and fails if the two traced passes disagree on any exact count or if a
call escaped the wrappers.

Every answer is checked (see workloads.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A
wrong answer prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import TRACED  # noqa: E402

# Wall seconds of one pass at the seed commit on the baseline machine.
# A run makes round(S / PASS_S) passes whatever the code's speed, so a
# parent and a change take each item's best time over the same number
# of passes.
PASS_S = {"sweep": 4.0, "classify": 5.0, "bundle": 2.5}
SETUP_SPAWNS = 36  # per run, spread evenly between the passes
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    """The environment of every spawned interpreter: src on the path, and
    bytecode caching on regardless of the caller's setting, so that set-up is
    timed the way an installed package imports."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import(root: Path) -> float:
    """Wall time of a fresh interpreter importing qball.  The wait has no
    timeout: with one, the standard library polls in sleeps of up to
    50 ms, which would round the measurement."""
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, "-c", "import qball"], env=_env(root), cwd=root).returncode
    if code != 0:
        raise BenchError(f"importing qball failed with status {code}")
    return time.perf_counter() - t0


def run_worker(root: Path, workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    proc = subprocess.run(
        cmd, env=_env(root), cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {workload} seed {seed} ({mode}) failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# answer checks: each returns (failed, wrong), with wrong a list of messages


def check_sweep(result: dict, seed: int):
    ref = workloads.load_json(workloads.SWEEP_REF)
    wrong = []
    got = result["answers"]
    if [row[0] for row in got] != [row[0] for row in ref["rows"]]:
        return 0, [f"sweep rows differ from the reference universe ({len(got)} vs {len(ref['rows'])})"]
    failed_rows = {row[0] for row in got if "budget_exceeded" in (row[1], row[2])}
    for row, want in zip(got, ref["rows"]):
        if row[0] not in failed_rows and row[:4] != want:
            wrong.append(f"sweep row {row[:4]} != reference {want}")
    mismatches = [s for s in result["mismatches"] if s not in failed_rows]
    if mismatches != ref["mismatches"]:
        wrong.append(f"sweep mismatches {mismatches} != reference {ref['mismatches']}")
    return len(failed_rows), wrong


def check_classify(result: dict, seed: int):
    ref = {(tuple(q["string"]), q["t"]): q for q in workloads.load_json(workloads.CLASSIFY_REF)["queries"]}
    queries = workloads.classify_queries(seed)
    failed, wrong = 0, []
    for (a, t), (status, rules) in zip(queries, result["answers"], strict=True):
        if status == "error" or any(r.endswith("-embedding-budget") for r in rules):
            failed += 1
            continue
        want = ref[(tuple(a), t)]
        if [status, rules] != [want["status"], want["rules"]]:
            wrong.append(f"classify {a} t={t}: {status} {rules} != reference {want['status']} {want['rules']}")
    return failed, wrong


def check_bundle(result: dict, seed: int):
    items = workloads.bundle_items(seed)
    failed, wrong = 0, []
    for item, answer in zip(items, result["answers"], strict=True):
        if answer[0] == "error":
            failed += 1
            continue
        status, rules = workloads.expected_bundle_verdict(item["sign"], item["string"])
        want = ["Hyperbolic", item["sign"], item["string"], status, rules]
        if answer != want:
            wrong.append(f"bundle {item['matrix']}: {answer} != expected {want}")
    return failed, wrong


CHECKS = {"sweep": check_sweep, "classify": check_classify, "bundle": check_bundle}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(root: Path, workload: str, seed: int, seconds: float):
    time_import(root)  # writes the bytecode cache, as an install would
    n_passes = max(1, round(seconds / PASS_S[workload]))
    spawns = math.ceil(SETUP_SPAWNS / n_passes)
    setup, passes = [], []
    # the set-up samples sit between passes, so that one slow moment of
    # the machine cannot decide their median
    for _ in range(n_passes):
        setup += [time_import(root) for _ in range(spawns)]
        passes.append(run_worker(root, workload, seed, "plain"))
    failed = 0
    wrong = []
    for result in passes:
        f, w = CHECKS[workload](result, seed)
        failed += f
        wrong += w
    attempted = sum(len(r["latencies"]) for r in passes)
    # Every pass runs the same items in the same order from a cold start,
    # so each item's best time over the passes is its cost with the
    # machine's slow phases (up to 2x on the baseline VM) filtered out.
    best = sorted(map(min, zip(*(r["latencies"] for r in passes))))
    n = len(best)
    print(
        f"{workload}: {len(passes)} passes of {n} items; each item's time is its best over "
        f"the passes; latency_tail_ms is the p{100 * (n - 10) / n:.1f} item "
        f"({n} samples, 10 beyond it)"
    )
    metrics = {
        "items_per_s": (n / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_tail_ms": (best[n - 11] * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in passes) / 1024, "MB"),
        "success_share": ((attempted - failed) / attempted, "share"),
    }
    return attempted, failed, wrong, metrics


def per_layer(root: Path, workload: str, seed: int):
    # untraced, traced, traced, untraced passes of the same inputs, so
    # that a steady drift in machine speed cancels out of the overhead
    plain, traced = [], []
    for mode in ("plain", "trace", "trace", "plain"):
        (plain if mode == "plain" else traced).append(run_worker(root, workload, seed, mode))
    check = run_worker(root, workload, seed, "check")
    failed, wrong = CHECKS[workload](traced[0], seed)
    attempted = len(traced[0]["latencies"])
    for result in plain + traced[1:]:
        wrong += CHECKS[workload](result, seed)[1]

    counts = [t["trace"]["counts"] for t in traced]
    for key in sorted(set(counts[0]) | set(counts[1])):
        if counts[0].get(key) != counts[1].get(key):
            wrong.append(f"traced count {key} differs between two runs: {counts[0].get(key)} vs {counts[1].get(key)}")
    if check["escapes"]:
        wrong.append(f"calls escaped the trace wrappers: {check['escapes']}")
    trace = traced[0]["trace"]
    c = trace["counts"]
    if workload == "sweep":
        row_nodes = sum(row[4] for row in traced[0]["answers"])
        if c["embedsearch.nodes"] != row_nodes:
            wrong.append(f"traced search nodes {c['embedsearch.nodes']} != nodes reported by the rows {row_nodes}")

    def calls(name):
        return c.get(f"{name}.calls", 0)

    def self_s(name):
        return trace["self_s"].get(name, 0.0)

    searches = calls("embedsearch.find_embedding")
    nodes = c["embedsearch.nodes"]
    untraced_s = statistics.mean(sum(r["latencies"]) for r in plain)
    traced_s = statistics.mean(sum(r["latencies"]) for r in traced)
    m = {}
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.self_s"] = (self_s(name), "s")
    m.update(
        {
            "embedsearch.find_embedding.total_s": (trace["total_s"].get("embedsearch.find_embedding", 0.0), "s"),
            "embedsearch.nodes": (nodes, "count"),
            "embedsearch.us_per_node": (self_s("embedsearch.find_embedding") / nodes * 1e6 if nodes else 0.0, "us"),
            "embedsearch.found": (c.get("outcome.found", 0), "count"),
            "embedsearch.exhausted": (c.get("outcome.exhausted", 0), "count"),
            "embedsearch.budget_exceeded": (c.get("outcome.budget_exceeded", 0), "count"),
            "embedsearch.zero_node_share": (c["embedsearch.zero_node_searches"] / searches if searches else 0.0, "share"),
            "families.member.total_s": (trace["total_s"].get("families.member", 0.0), "s"),
            "families.member.distinct_share": (
                c["families.member.distinct"] / calls("families.member") if calls("families.member") else 0.0,
                "share",
            ),
            "classifier.normalize_monodromy.failed": (c.get("classifier.normalize_monodromy.raised", 0), "count"),
            "trace.items_s": (traced_s, "s"),
            "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "share"),
        }
    )
    print(
        f"{workload}: traced one pass of {attempted} items twice; exact counts "
        f"{'agree' if counts[0] == counts[1] else 'DIFFER'}; {traced[0]['rebound']} names "
        f"rebound; {check['calls_checked']} calls checked against the profile hook, "
        f"{sum(check['escapes'].values())} escaped"
    )
    return attempted, failed, wrong, m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qball" / "__init__.py").is_file():
        print("bench: src/qball not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, wrong, metrics = per_layer(root, args.workload, args.seed)
        else:
            attempted, failed, wrong, metrics = end_to_end(root, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for message in wrong[:20]:
        print(f"WRONG: {message}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
