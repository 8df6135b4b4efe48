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
