"""Write the CLI reports of a fixed set of runs, one JSON line each, to tell
whether a change moved any byte of them.

The runs are every ``decompose`` and ``simulate`` of the benchmark's
scan-small table (``perfbench/workloads.py``, only imported: 104 systems
with their 8-segment schedules) and, on the bundled two-spin model,
``demo``, ``decompose`` with and without ``--pivot 1,0,0`` and
``simulate`` over a fixed 40-segment schedule.  The CLI runs in-process
with one BLAS thread; each line holds the run's name, its exit code and
its standard output and error.

Run from the repository root:

    python3 tools/report_bytes.py > reports.jsonl
    python3 tools/report_bytes.py --compare before.jsonl after.jsonl

``--compare`` names every run that is missing on one side or whose exit
code, output or error differs, and exits 1 when there is any; else 0.
For a run whose output differs and parses as JSON on both sides it also
prints the largest absolute difference of a number the two reports hold
at the same key path, and that path.
``--limit N`` takes only the first N systems of the table.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads, so equal inputs give equal
    # bytes.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
TWO_SPIN_SEGMENTS = 40


def runs(work, limit=None):
    """(name, CLI argv) of every run, its input files written to ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    table = workloads.ScanSmall().table()[:limit]
    for i, (name, terms, segs) in enumerate(table):
        spec = os.path.join(work, f"spec-{i}.json")
        sched = os.path.join(work, f"schedule-{i}.json")
        workloads.write_json(spec, workloads.spec_doc(terms))
        workloads.write_json(sched, workloads.schedule_doc(segs))
        yield f"{name} decompose", ["decompose", spec]
        yield f"{name} simulate", ["simulate", spec, sched]
    spec = os.path.join(work, "two-spin.json")
    sched = os.path.join(work, "two-spin-schedule.json")
    workloads.write_json(spec, {"model": "two-spin"})
    segs = workloads.schedule(np.random.default_rng(TWO_SPIN_SEGMENTS), 2,
                              TWO_SPIN_SEGMENTS)
    workloads.write_json(sched, workloads.schedule_doc(segs))
    yield "two-spin demo", ["demo", "two-spin"]
    yield "two-spin decompose", ["decompose", spec]
    yield "two-spin decompose --pivot 1,0,0", ["decompose", spec,
                                               "--pivot", "1,0,0"]
    yield "two-spin simulate", ["simulate", spec, sched]


def run_cli(argv):
    """Exit code, standard output and standard error of one CLI call."""
    from dynlie import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def largest_difference(before, after, path=""):
    """(|a - b|, key path) of the numbers two JSON values hold at the same
    path that differ most, or None when no such numbers differ."""
    if isinstance(before, dict) and isinstance(after, dict):
        pairs = [(f"{path}.{k}" if path else k, before[k], after[k])
                 for k in before.keys() & after.keys()]
    elif isinstance(before, list) and isinstance(after, list):
        pairs = [(f"{path}[{i}]", b, a)
                 for i, (b, a) in enumerate(zip(before, after))]
    else:
        numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (before, after)]
        if all(numbers) and before != after:
            return abs(after - before), path
        return None
    found = [d for d in (largest_difference(b, a, p) for p, b, a in pairs)
             if d is not None]
    return max(found, default=None)


def print_largest_difference(before, after):
    """Print :func:`largest_difference` of two outputs that both parse as
    JSON; print nothing otherwise."""
    try:
        reports = json.loads(before), json.loads(after)
    except ValueError:
        return
    found = largest_difference(*reports)
    print("  no number differs" if found is None else
          f"  largest difference {found[0]:.3e} at {found[1]}")


def compare(before_path, after_path):
    """Print the runs that differ; True when none does."""
    def load(path):
        with open(path) as fh:
            return {d["run"]: d for d in map(json.loads, fh)}
    before, after = load(before_path), load(after_path)
    differ = 0
    for name in sorted(before.keys() | after.keys()):
        b, a = before.get(name), after.get(name)
        if b is None or a is None:
            print(f"{name}: only {'after' if b is None else 'before'}")
        elif b != a:
            keys = [k for k in ("exit", "stdout", "stderr") if b[k] != a[k]]
            print(f"{name}: {', '.join(keys)} differ")
            if "stdout" in keys:
                print_largest_difference(b["stdout"], a["stdout"])
        else:
            continue
        differ += 1
    print(f"{len(before)} runs before, {len(after)} after, {differ} differ")
    return not differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two report files instead of writing")
    parser.add_argument("--limit", type=int, metavar="N",
                        help="take only the first N systems of the table")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    with tempfile.TemporaryDirectory() as work:
        for name, cli_argv in runs(work, args.limit):
            code, out, err = run_cli(cli_argv)
            print(json.dumps({"run": name, "exit": code, "stdout": out,
                              "stderr": err}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
