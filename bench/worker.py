"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is ``plain`` (untraced), ``trace`` (spans around every layer) or
``check`` (a short traced pass under the profile hook that confirms no
call escapes the wrappers).  ``src`` must be on PYTHONPATH; run.py sets
it.  Inputs are generated before the clock starts, and each item is
timed on its own.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# items in the profile-hooked pass of ``check`` mode; the hook slows
# calls about tenfold, so the check runs on a small prefix
CHECK_ITEMS = {"classify": 40, "bundle": 12}
CHECK_SWEEP_ARGV = ["verify", "--max-n", "4", "--workers", "1"]


class _RowClock(io.StringIO):
    """Output sink for the verify command; the command flushes once per
    row, so the flush times split the pass into per-row latencies."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def flush(self):
        self.stamps.append(time.perf_counter())


def run_sweep(argv):
    from qball import cli

    out = _RowClock()
    t0 = time.perf_counter()
    code = cli.run(list(argv), out=out)
    if code != 0:
        raise RuntimeError(f"qball verify exited with {code}")
    stamps = [t0] + out.stamps
    latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    rows, summary = lines[:-1], lines[-1]
    answers = [[r["string"], r["neg"], r["pos"], r["agree"], r["nodes"]] for r in rows]
    return latencies, answers, {"mismatches": summary["mismatches"]}


def run_classify(queries):
    from qball import classifier

    latencies, answers = [], []
    for a, t in queries:
        t0 = time.perf_counter()
        try:
            v = classifier.classify_surgery(tuple(a), t)
            answer = [v.status, [r.rule for r in v.reasons]]
        except classifier.ClassifierError as exc:
            answer = ["error", [type(exc).__name__]]
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    return latencies, answers, {}


def run_bundle(items):
    from qball import classifier

    latencies, answers = [], []
    for item in items:
        m = item["matrix"]
        matrix = ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
        t0 = time.perf_counter()
        try:
            mc = classifier.normalize_monodromy(matrix)
            v = classifier.classify_torus_bundle(mc)
            answer = [type(mc).__name__, getattr(mc, "sign", None), list(getattr(mc, "string", ())), v.status, [r.rule for r in v.reasons]]
        except classifier.ClassifierError as exc:
            answer = ["error", type(exc).__name__]
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    return latencies, answers, {}


def inputs(workload, seed):
    if workload == "sweep":
        return workloads.SWEEP_ARGV
    if workload == "classify":
        return workloads.classify_queries(seed)
    return workloads.bundle_items(seed)


RUNNERS = {"sweep": run_sweep, "classify": run_classify, "bundle": run_bundle}


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import qball  # noqa: F401  (loads every module before tracing)

    data = inputs(workload, seed)
    tracer = None
    if mode in ("trace", "check"):
        from tracer import BindingCheck, Tracer

        tracer = Tracer()
        rebound = tracer.install()
    run = RUNNERS[workload]
    result = {}
    if mode == "check":
        small = CHECK_SWEEP_ARGV if workload == "sweep" else data[: CHECK_ITEMS[workload]]
        with BindingCheck(tracer) as check:
            run(small)
        result["escapes"] = check.escapes()
        result["rebound"] = rebound
        result["calls_checked"] = sum(check.seen.values())
    else:
        latencies, answers, extra = run(data)
        result.update(latencies=latencies, answers=answers, **extra)
        if tracer is not None:
            result["trace"] = tracer.to_json()
            result["rebound"] = rebound
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
