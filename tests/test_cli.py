"""The qball command: output formats, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qball.cli import COMMANDS, run
from qball.embedsearch import verify_classification


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def test_dual():
    code, out = invoke("dual", "--cyclic", "3,2")
    assert code == 0
    assert lines(out) == [{"dual": "4"}]
    code, out = invoke("dual", "--linear", "2,2,2")
    assert lines(out) == [{"dual": "4"}]
    code, out = invoke("dual", "--linear", "1")
    assert lines(out) == [{"dual": ""}]


def _checkout_python(*argv):
    """Run a fresh interpreter with the checkout's src on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_module_runs_the_command():
    # an uninstalled checkout runs the command as python -m qball.cli
    done = _checkout_python("-m", "qball.cli", "dual", "--cyclic", "3,2")
    assert done.returncode == 0, done.stderr
    assert lines(done.stdout) == [{"dual": "4"}]


def test_import_leaves_multiprocessing_unloaded():
    # only a sweep with workers > 1 needs a process pool; importing the
    # package must not pay for the multiprocessing import
    done = _checkout_python("-c", "import sys, qball; print('multiprocessing' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_run_leaves_argparse_and_locale_unloaded():
    # the command table is read through getopt; a command must not pay
    # for argparse, nor for the locale import its gettext lookups make
    done = _checkout_python(
        "-c",
        "import io, sys; from qball import cli; cli.run(['dual', '--cyclic', '3,2'], out=io.StringIO()); "
        "print(sorted({'argparse', 'locale'} & set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_fractions_unloaded():
    # only correction_term, which no decision calls, uses Fraction; importing
    # the package must not pay for fractions, which also loads decimal
    done = _checkout_python("-c", "import sys, qball; print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_classify_surgery_exit_codes():
    code, out = invoke("classify", "surgery", "--a", "6", "--t", "0")
    assert code == 0
    payload = lines(out)[0]
    assert payload["status"] == "Bounds"
    code, out = invoke("classify", "surgery", "--a", "6,2,2,2,6,2,2,2", "--t", "-1")
    assert code == 2
    assert lines(out)[0]["status"] == "Unknown"
    code, out = invoke("classify", "surgery", "--a", "3,2,2", "--t", "0")
    assert code == 0
    assert lines(out)[0]["status"] == "NotBounds"


def test_classify_bundle():
    code, out = invoke("classify", "bundle", "--matrix", "5,2,-3,-1")
    assert code == 0
    assert lines(out)[0]["status"] == "NotBounds"
    code, out = invoke("classify", "bundle", "--matrix", "0,1,-1,0")
    assert lines(out)[0]["status"] == "NotBounds"
    code, out = invoke("classify", "bundle", "--matrix=-1,-5,0,-1")
    assert lines(out)[0]["status"] == "Bounds"  # negative parabolic


def test_classify_bundle_large_negative_entries():
    # string_matrix((3, 2)) conjugated by [[1, 0], [10^6, 1]], in the
    # --matrix=... form; the separate --matrix -1,... form is parsed too
    code, out = invoke("classify", "bundle", "--matrix=-1999995,2,-1999994000003,1999999")
    assert code == 0
    assert lines(out)[0]["class"] == "Hyperbolic(sign=1, string=(2, 3))"


def test_classify_braid():
    code, out = invoke("classify", "braid", "--a", "3", "--t", "0")
    assert code == 0
    payload = lines(out)[0]
    assert payload["status"] == "Bounds"
    assert payload["reasons"][0]["rule"] == "double-cover"


def test_member():
    code, out = invoke("member", "--a", "3,2,2,3,5")
    payload = lines(out)[0]
    assert payload["in_s2"] and not payload["in_s1"]
    assert any(w["tag"] == "S2c" for w in payload["witnesses"])


def test_embed():
    code, out = invoke("embed", "--a", "3,3,3", "--kind", "positive")
    payload = lines(out)[0]
    assert payload["outcome"] == "found"
    assert payload["witness"]["string"] == [3, 3, 3]
    assert payload["certificate"] == "search"
    code, out = invoke("embed", "--a", "3,2,2", "--kind", "negative")
    payload = lines(out)[0]
    assert (payload["outcome"], payload["certificate"], payload["nodes"]) == ("exhausted", "det-nonsquare", 0)
    code, out = invoke("embed", "--a", "2,2,5,2,2,5", "--kind", "negative")
    payload = lines(out)[0]
    assert (payload["outcome"], payload["certificate"], payload["nodes"]) == ("exhausted", "no-metabolizer", 0)
    code, out = invoke("embed", "--a", "2,2,2", "--kind", "standard")
    assert lines(out)[0]["outcome"] == "found"


def test_homology():
    code, out = invoke("homology", "--a", "2,2,2,3,2")
    payload = lines(out)[0]
    assert payload["order_even"] == 5 and payload["order_odd"] == 9
    code, out = invoke("homology", "--a", "2,2")
    assert lines(out)[0]["order_even"] is None


def test_braid_command():
    code, out = invoke("braid", "--a", "3,2", "--t", "0")
    payload = lines(out)[0]
    assert payload["word"] == "s1 s2^-1 s1"
    assert payload["burau_trace"] == 4
    assert payload["trace_matches_monodromy"]


def test_fixtures_command():
    code, out = invoke("fixtures")
    names = {row["name"] for row in lines(out)}
    assert "star" in names and "exceptional" in names
    code, out = invoke("fixtures", "--name", "star", "--k", "2")
    payload = lines(out)[0]
    assert payload["string"] == [3, 3, 3, 3, 3]
    assert payload["p"] == {"3": 5}


def test_fixtures_bad_parameters_exit_1(capsys):
    for argv in [
        ("--name", "star"),
        ("--name", "standard_2a", "--x", "0"),
        ("--name", "star", "--k", "0"),
        ("--name", "standard_2a", "--x", "-1", "--y", "0"),
    ]:
        code, out = invoke("fixtures", *argv)
        assert (code, out) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("qball: error: ") and err.count("\n") == 1, err


def test_verify_json_and_csv():
    code, out = invoke("verify", "--max-n", "3")
    rows = lines(out)
    summary = rows[-1]
    assert summary["mismatches"] == []
    assert len(rows) - 1 == summary["rows"]
    # byte-identical reserialization (stable field order)
    for line in out.strip().splitlines():
        parsed = json.loads(line)
        assert json.dumps(parsed, separators=(", ", ": ")) == line
    code, csv_out = invoke("verify", "--max-n", "3", "--csv")
    csv_lines = csv_out.strip().splitlines()
    header = csv_lines[0].split(",")
    assert header[:3] == ["string", "I", "s1_strict"]
    assert len(csv_lines) == summary["rows"] + 2  # header + rows + summary
    # each CSV row is its JSON row, field by field, under the same header
    report = verify_classification(3, "relaxed", workers=1)
    assert len(report.rows) == summary["rows"]
    for row in report.rows:
        for mode in ("strict", "relaxed"):
            fields = row.to_json(mode)
            assert list(fields) == header
            cells = next(csv.reader([row.to_csv(mode)]))
            assert len(cells) == len(fields)
            for cell, value in zip(cells, fields.values()):
                assert cell == (json.dumps(value) if isinstance(value, bool) else str(value))


def test_verify_row_line_is_the_encoder_output():
    # a row formats its own JSON line: byte for byte what json.dumps makes
    # of to_json, in both modes, for every row of a sweep and for outcomes
    # and sizes the sweep does not reach
    rows = verify_classification(7, "relaxed", workers=1).rows
    assert {r.neg for r in rows} == {"found", "exhausted"}
    rows += [
        dataclasses.replace(rows[0], neg="found", nodes=10**12, ms=12345.678),
        dataclasses.replace(rows[-1], pos="exhausted", ms=1e-05),
    ]
    for row in rows:
        for mode in ("strict", "relaxed"):
            assert row.to_json_line(mode) == json.dumps(row.to_json(mode)) + "\n"


def test_verify_deterministic():
    _, out1 = invoke("verify", "--max-n", "3")
    _, out2 = invoke("verify", "--max-n", "3")

    def strip_ms(text):
        rows = lines(text)
        for r in rows:
            r.pop("ms", None)
        return rows

    assert strip_ms(out1) == strip_ms(out2)


def test_usage_errors_exit_1():
    code, _ = invoke("classify", "surgery", "--a", "bogus")
    assert code == 1
    code, out = invoke("verify", "--max-n", "4", "--skip-until", "9,9")
    assert code == 1 and out == ""  # no row is written before the error
    code, _ = invoke("dual", "--cyclic", "2,2")  # all-2 cyclic dual undefined
    assert code == 1
    with pytest.raises(SystemExit) as exc:
        run(["classify"])  # missing positional
    assert exc.value.code == 1
    for argv in (["embed", "--a", "3,3", "--kind", "positive"], ["verify", "--max-n", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--budget", "5"])  # the searches take no node budget
        assert exc.value.code == 1, argv


def test_out_file(tmp_path):
    path = tmp_path / "report.jsonl"
    code = run(["verify", "--max-n", "2", "--out", str(path)])
    assert code == 0
    rows = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert rows[-1]["mismatches"] == []


def test_out_file_untouched_on_usage_error(tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_bytes(b"keep\n")
    code = run(["verify", "--max-n", "4", "--skip-until", "9,9", "--out", str(path)])
    assert code == 1
    assert path.read_bytes() == b"keep\n"


def test_out_file_that_cannot_be_opened_exits_1(tmp_path):
    # an --out path in a missing directory is reported as an error line,
    # not a traceback
    path = tmp_path / "missing" / "x.jsonl"
    done = _checkout_python("-m", "qball.cli", "verify", "--max-n", "2", "--out", str(path))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("qball: error: ") and str(path) in done.stderr
    assert "Traceback" not in done.stderr


def test_option_forms():
    # --opt value, --opt=value and a unique prefix all read the same option
    for argv in (["--max-n", "3"], ["--max-n=3"], ["--max", "3"]):
        code, out = invoke("verify", *argv, "--workers", "1")
        assert code == 0 and lines(out)[-1] == {"rows": 9, "mismatches": []}, argv
    # a value may start with '-', in either form
    for argv in (["--t", "-1"], ["--t=-1"]):
        code, out = invoke("classify", "surgery", "--a", "7", *argv)
        assert lines(out)[0]["t"] == -1, argv
    for argv in (["--matrix", "-1,-5,0,-1"], ["--matrix=-1,-5,0,-1"]):
        code, out = invoke("classify", "bundle", *argv)
        assert lines(out)[0]["status"] == "Bounds", argv
    # a positional may follow the options
    code, out = invoke("classify", "--a", "6", "--t", "0", "surgery")
    assert lines(out)[0]["status"] == "Bounds"


def test_repeated_option_last_wins():
    code, out = invoke("classify", "surgery", "--a", "7", "--t", "5", "--t", "-1")
    assert lines(out)[0]["t"] == -1
    code, out = invoke("dual", "--cyclic", "2,2,2", "--cyclic", "3,2")
    assert lines(out) == [{"dual": "4"}]


def test_help_names_every_table_entry(capsys):
    for argv, names in [(["-h"], list(COMMANDS)), (["--help"], list(COMMANDS))] + [
        ([command, flag], [f"--{name}" for name in spec[3]] + list((spec[2] or ((), ()))[1]))
        for flag in ("-h", "--help")
        for command, spec in COMMANDS.items()
    ]:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0, argv
        help_text = capsys.readouterr().out
        assert help_text.startswith("usage: qball"), argv
        assert all(name in help_text for name in names), (argv, names)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],  # missing required option
        ["embed", "--a", "3,3"],  # missing required choice option
        ["verify", "--max-n", "3", "--bogus"],  # unknown option
        ["classify", "surgery", "--a", "7", "--m", "strict"],  # ambiguous prefix
        ["bogus"],  # unknown command
        [],  # no command
        ["verify", "--max-n", "three"],  # bad int
        ["classify", "surgery", "--a", "7", "--t", "1.5"],  # bad int
        ["verify", "--max-n", "3", "--mode", "lax"],  # bad choice
        ["classify", "bogus", "--a", "7"],  # bad positional choice
        ["classify", "--a", "7"],  # missing positional
        ["dual", "--cyclic", "3,2", "--linear", "2,2,2"],  # both either/or options
        ["dual"],  # neither either/or option
        ["homology", "--a", "3,2", "stray"],  # stray positional
        ["dual", "--cyclic", "3,2", "--", "--linear"],  # after --, positional
    ],
)
def test_usage_error_exits_1_before_output(argv, capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        run(argv, out=out)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert out.getvalue() == "" and captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[0].startswith("usage: qball")
    assert err[-1].startswith("qball") and ": error: " in err[-1]


def test_verify_workers_below_one_exit_1(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    path.write_bytes(b"keep\n")
    for workers in ("0", "-3"):
        code, out = invoke("verify", "--max-n", "3", "--workers", workers)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"qball: error: workers must be >= 1, got {workers}\n"
        assert run(["verify", "--max-n", "3", "--workers", workers, "--out", str(path)]) == 1
        assert path.read_bytes() == b"keep\n"
        capsys.readouterr()
