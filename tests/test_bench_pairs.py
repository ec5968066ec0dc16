"""tools/bench_pairs.py: the per-metric summary of interleaved pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "up", "better": "higher", "bound": 0.24},
    {"name": "slower", "better": "lower", "bound": 0.24},
    {"name": "noisy", "better": "lower", "bound": 0.24},
    {"name": "noisy_all_better", "better": "lower", "bound": 0.24},
    {"name": "same", "better": "higher", "bound": 0.001},
]

PARENT_UP = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]


def _runs(columns):
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def test_summary_on_fixed_numbers():
    parent = _runs(
        {
            "up": PARENT_UP,
            "slower": [10] * 10,
            "noisy": [1, 3] * 5,
            "noisy_all_better": [1, 3] * 5,
            "same": [5] * 10,
        }
    )
    change = _runs(
        {
            "up": [x * 1.5 for x in PARENT_UP],
            "slower": [13] * 10,
            "noisy": [2] * 10,
            "noisy_all_better": [0.5] * 10,
            "same": [5] * 9 + [5.5],
        }
    )
    got = bench_pairs.summarize(parent, change, SPECS)
    # sorted parent: 96 97 98 99 100 100 101 102 103 104; inclusive
    # quartiles sit at positions 2.25 and 6.75
    assert got["up"] == {
        "parent_median": 100,
        "parent_q1": 98.25,
        "parent_q3": 101.75,
        "parent_iqr": 3.5,
        "change_median": 150.0,
        "change_q1": 147.375,
        "change_q3": 152.625,
        "change_over_parent_minus_1": 0.5,
        "change_wins": 10,
        "pairs": 10,
        "verdict": "better",
    }
    assert got["slower"]["change_over_parent_minus_1"] == pytest.approx(0.3)
    assert (got["slower"]["change_wins"], got["slower"]["verdict"]) == (0, "worse than bound")
    # parent IQR 2 against a median of 2: wider than the bound, and the
    # change wins only the five pairs where the parent read 3
    assert (got["noisy"]["parent_iqr"], got["noisy"]["change_wins"]) == (2, 5)
    assert got["noisy"]["verdict"] == "unresolved"
    # as wide, but every change run beats every parent run; the median
    # gap 1.5 is inside the IQR, so no gain either
    assert (got["noisy_all_better"]["change_wins"], got["noisy_all_better"]["verdict"]) == (10, "within bound")
    # ties count for neither side
    assert (got["same"]["change_wins"], got["same"]["verdict"]) == (1, "within bound")


def test_summary_of_one_pair_and_unequal_sides():
    spec = [{"name": "up", "better": "higher", "bound": 0.24}]
    got = bench_pairs.summarize([{"up": 4.0}], [{"up": 3.0}], spec)["up"]
    assert (got["parent_q1"], got["parent_q3"], got["change_over_parent_minus_1"]) == (4.0, 4.0, -0.25)
    assert got["verdict"] == "worse than bound"
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"up": 1.0}], [], spec)
