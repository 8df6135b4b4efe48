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
