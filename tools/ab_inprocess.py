"""Time one benchmark workload on two checkouts in one process, alternating
the two sides round by round, and print per-operation medians.

Separate benchmark processes can run at different speeds for reasons that
have nothing to do with the code (propagate-long's fast and slow regimes);
alternating the sides inside one process shares every such regime between
them.  The tool copies ``PARENT/src/dynlie`` into a temporary directory as
the package ``dynlie_parent`` and imports it next to this checkout's
``dynlie``.  It builds the workload's inputs once, with this checkout
(``perfbench/workloads.py`` is only imported), and warms both sides up.
Each round then points the module the operations look up
(``workloads.cli`` for scan-small, else ``workloads.dynamics``) at one
side's and runs every operation once; the parent goes first in even rounds
and the change in odd ones.  The workload's ``check`` runs on each side's
outcomes of the last round.

Run from the repository root, with the parent commit checked out in another
directory:

    python3 tools/ab_inprocess.py --parent ../parent \\
        --workload propagate-long --rounds 40

It prints, per operation and for whole rounds, each side's median time in
milliseconds and the ratio change / parent, then each side's failed
operations and check problems.
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads, as perfbench/run.py does.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
COPY = "dynlie_parent"
SIDES = ("parent", "change")


def load_workloads():
    """``perfbench/workloads.py`` on this checkout's sources."""
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return importlib.import_module("workloads")


def import_copy(parent, where):
    """``parent``'s ``src/dynlie``, copied into ``where`` and imported as
    the package ``COPY``."""
    shutil.copytree(Path(parent) / "src" / "dynlie", Path(where) / COPY,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in [m for m in sys.modules
                 if m == COPY or m.startswith(COPY + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(where))
    try:
        return importlib.import_module(COPY)
    finally:
        sys.path.remove(str(where))


def compare(parent, workload, rounds, inputs=None):
    """Alternate ``rounds`` rounds per side of ``workload`` (a class of
    ``workloads.WORKLOADS``) on ``inputs``, by default its set-up with
    seed 1.  Returns {side: {"times": per-operation lists of seconds,
    "rounds": seconds per round, "failed": failed operations of the last
    round, "problems": its check's problems}} and the operations' names."""
    workloads = load_workloads()
    wl = workload()
    name = "cli" if wl.name == "scan-small" else "dynamics"
    with tempfile.TemporaryDirectory() as where:
        if inputs is None:
            os.mkdir(os.path.join(where, "work"))
            inputs = wl.setup(1, os.path.join(where, "work"))
        import_copy(parent, where)
        modules = {"parent": importlib.import_module(f"{COPY}.{name}"),
                   "change": getattr(workloads, name)}
        ops = wl.ops(inputs)
        result = {side: {"times": [[] for _ in ops], "rounds": []}
                  for side in SIDES}
        last = {}
        try:
            for side in SIDES:
                setattr(workloads, name, modules[side])
                wl.warmup(inputs)
            for i in range(rounds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    setattr(workloads, name, modules[side])
                    outcomes, spent = [], result[side]["times"]
                    start = perf_counter()
                    for op, times in zip(ops, spent):
                        t0 = perf_counter()
                        outcomes.append(op())
                        times.append(perf_counter() - t0)
                    result[side]["rounds"].append(perf_counter() - start)
                    last[side] = outcomes
        finally:
            setattr(workloads, name, modules["change"])
        for side in SIDES:
            result[side]["failed"] = sum(not o.ok for o in last[side])
            result[side]["problems"] = wl.check(inputs, [last[side]])
    return result, [o.op for o in last["change"]]


def table(result, names):
    """Lines of per-operation and per-round medians, in milliseconds, and
    their ratio change / parent."""
    rows = [(n, [result[s]["times"][i] for s in SIDES])
            for i, n in enumerate(names)]
    rows.append(("round", [result[s]["rounds"] for s in SIDES]))
    width = max(len(n) for n, _ in rows)
    lines = [f"{'operation':<{width}}  parent ms  change ms  change/parent"]
    for n, (p, c) in rows:
        mp, mc = statistics.median(p), statistics.median(c)
        lines.append(f"{n:<{width}}  {1e3 * mp:9.3f}  {1e3 * mc:9.3f}"
                     f"  {mc / mp:13.3f}")
    for side in SIDES:
        problems = result[side]["problems"]
        lines.append(f"{side}: {result[side]['failed']} failed, "
                     f"{len(problems)} check problems")
        lines += [f"  {p}" for p in problems[:10]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout whose src/dynlie is the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True,
                        help="rounds per side")
    args = parser.parse_args(argv)
    if not (Path(args.parent) / "src" / "dynlie" / "__init__.py").is_file():
        print(f"error: no dynlie sources under {args.parent}/src",
              file=sys.stderr)
        return 2
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    result, names = compare(args.parent, workloads.WORKLOADS[args.workload],
                            args.rounds)
    print("\n".join(table(result, names)))
    return 1 if any(result[s]["failed"] or result[s]["problems"]
                    for s in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
