"""The qball command: output formats, exit codes, determinism."""

import io
import json

import pytest

from qball.cli import run


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
    assert csv_lines[0].startswith("string,I,s1_strict")
    assert len(csv_lines) == summary["rows"] + 2  # header + rows + summary


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
