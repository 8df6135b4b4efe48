"""``tools/report_bytes.py`` on the first two systems of the scan-small
table plus the two-spin runs, and ``--compare`` as a gate."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "report_bytes.py")
spec = importlib.util.spec_from_file_location("report_bytes", TOOL)
report_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_bytes)


def test_subset_writes_and_compares(tmp_path, capsys):
    assert report_bytes.main(["--limit", "2"]) == 0
    text = capsys.readouterr().out
    lines = [json.loads(line) for line in text.splitlines()]
    assert [d["run"] for d in lines] == [
        "pauli #0 decompose", "pauli #0 simulate",
        "pauli #1 decompose", "pauli #1 simulate",
        "two-spin demo", "two-spin decompose",
        "two-spin decompose --pivot 1,0,0", "two-spin simulate"]
    assert all(d["exit"] == 0 and d["stderr"] == "" for d in lines)
    by_run = {d["run"]: d["stdout"] for d in lines}
    assert by_run["two-spin demo"] == by_run["two-spin decompose"]
    assert json.loads(by_run["two-spin simulate"])["final_time"] > 0.0

    before = tmp_path / "before.jsonl"
    before.write_text(text)
    assert report_bytes.main(["--compare", str(before), str(before)]) == 0
    assert "8 runs before, 8 after, 0 differ" in capsys.readouterr().out

    # One byte of one report, and a run missing on one side.
    changed = dict(lines[3], stdout=lines[3]["stdout"].replace("0", "1", 1))
    after = tmp_path / "after.jsonl"
    for body, message in (
            (lines[:3] + [changed] + lines[4:], "pauli #1 simulate: stdout"),
            (lines[:-1], "two-spin simulate: only before")):
        after.write_text("".join(json.dumps(d) + "\n" for d in body))
        assert report_bytes.main(["--compare", str(before), str(after)]) == 1
        assert message in capsys.readouterr().out

    # A report whose numbers moved names its largest difference; one that
    # is not JSON on one side names none.
    report = json.loads(lines[3]["stdout"])
    report["final_time"] += 0.25
    report["total"][0][0][0] += 0.5
    moved = dict(lines[3], stdout=json.dumps(report))
    broken = dict(lines[5], stdout="not json")
    after.write_text("".join(json.dumps(d) + "\n" for d in
                             lines[:3] + [moved, lines[4], broken] + lines[6:]))
    assert report_bytes.main(["--compare", str(before), str(after)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "pauli #1 simulate: stdout differ",
        "  largest difference 5.000e-01 at total[0][0][0]",
        "two-spin decompose: stdout differ",
        "8 runs before, 8 after, 2 differ"]


def test_largest_difference():
    largest = report_bytes.largest_difference
    before = {"a": [1.0, 2.0, {"b": 3}], "c": "x", "d": True, "e": 1.0}
    assert largest(before, before) is None
    after = {"a": [1.5, 2.0, {"b": 1}, 9.0], "c": "y", "d": False}
    assert largest(before, after) == (2, "a[2].b")
    # Strings, booleans and paths held on one side only are not numbers
    # the two hold at one path.
    assert largest({"c": "x", "d": True, "e": 1.0},
                   {"c": "y", "d": False, "f": 2.0}) is None
    assert largest([1.0], {"a": 1.0}) is None
