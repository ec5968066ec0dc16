"""Record the reference answers that run.py checks sweep and classify against.

    PYTHONPATH=src python3 bench/record_refs.py

Run it only on a commit whose answers are trusted; the files in
bench/ref were written at the seed commit.  Timings and search node
counts are left out, since a correct optimization changes them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import run_classify, run_sweep  # noqa: E402


def main():
    from qball.families import enumerate_strings

    _, answers, summary = run_sweep(workloads.SWEEP_ARGV)
    sweep = {
        "argv": workloads.SWEEP_ARGV,
        "rows": [row[:4] for row in answers],
        "mismatches": summary["mismatches"],
    }
    queries = [
        (list(a), t) for a in enumerate_strings(workloads.CLASSIFY_MAX_LEN, 0) for t in workloads.TWISTS
    ]
    _, verdicts, _ = run_classify(queries)
    classify = {
        "max_len": workloads.CLASSIFY_MAX_LEN,
        "queries": [
            {"string": a, "t": t, "status": status, "rules": rules}
            for (a, t), (status, rules) in zip(queries, verdicts)
        ],
    }
    workloads.REF_DIR.mkdir(exist_ok=True)
    for path, data in ((workloads.SWEEP_REF, sweep), (workloads.CLASSIFY_REF, classify)):
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
