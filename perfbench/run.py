"""dynlie benchmark: one workload per run, its result as the last output line.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps dynlie's module functions from outside (see tracing.py)
and reports the per-layer metrics instead.  The line before the result holds
the run's environment, rounds and failures.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: the matrices are small, and a fixed count keeps the
# figures comparable between machines with different core counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_ROUNDS = 2


def blas_info(np):
    """BLAS name, version and thread count as the library reports them."""
    import ctypes
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads if threads is not None
            else os.environ["OPENBLAS_NUM_THREADS"]}


def run_round(ops):
    """Run each operation once; returns the outcomes and the seconds spent."""
    t0 = perf_counter()
    outcomes = [op() for op in ops]
    return outcomes, perf_counter() - t0


def measure(wl, seed, seconds, tracer, work):
    """Set up, warm up and run whole rounds for ``seconds``.

    A round starts only if a round of the median length so far still ends
    within ``seconds``, so a run never overshoots by most of a round; it
    measures at least MIN_ROUNDS rounds.
    """
    import workloads

    if tracer is not None:
        tracer.set_phase("setup")
        tracer.install()
    setup_times = []
    for _ in range(wl.setups):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = perf_counter()
        inputs = wl.setup(seed, str(work))
        pre = workloads.preflight(str(work))
        setup_times.append(perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()

    wl.warmup(inputs)
    ops = wl.ops(inputs)
    rounds, times = [], []
    untraced = None
    if tracer is not None:
        outcomes, untraced = run_round(ops)
        rounds.append(outcomes)
        tracer.set_phase("rounds")
        tracer.install()
    start = perf_counter()
    try:
        while len(times) < MIN_ROUNDS or (
                perf_counter() - start + statistics.median(times) <= seconds):
            outcomes, spent = run_round(ops)
            rounds.append(outcomes)
            times.append(spent)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"inputs": inputs, "preflight": pre, "setup_times": setup_times,
            "rounds": rounds, "times": times, "untraced": untraced,
            "peak_rss_mb": peak_rss_mb}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dynlie" / "__init__.py").is_file():
        print(f"error: no dynlie sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    work = OUT / f"work-{os.getpid()}"
    try:
        run = measure(wl, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    t0 = perf_counter()
    problems = workloads.check_preflight(run["preflight"])
    problems += wl.check(run["inputs"], run["rounds"])
    check_s = perf_counter() - t0

    # Every round runs the same operations, so the result counts one round;
    # an operation counts as failed if it failed in any round.
    rounds = run["rounds"]
    attempted = len(rounds[0])
    failed = sum(any(not r[i].ok for r in rounds) for i in range(attempted))
    failures = {}
    for o in (o for r in rounds for o in r):
        if not o.ok:
            key = f"{o.stage}: {o.error}"
            entry = failures.setdefault(key, {
                "count": 0, "fault": workloads.KNOWN_FAULTS.get(
                    (o.stage, o.error), "new"), "ops": [], "message": o.message})
            entry["count"] += 1
            if o.op not in entry["ops"]:
                entry["ops"].append(o.op)

    times = run["times"]
    work_per_round = wl.work(run["inputs"])
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(run["setup_times"]),
                        "unit": "s"},
            "round_s": {"value": statistics.median(times), "unit": "s"},
            "work_per_s": {"value": statistics.median(
                work_per_round / t for t in times), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    else:
        metrics = tracing.layer_metrics(tracer, wl.setups, len(times))
        traced = statistics.median(times)
        metrics["trace.overhead_share"] = {
            "value": traced / run["untraced"] - 1.0, "unit": "ratio"}
        metrics["trace.round_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_round_s"] = {"value": run["untraced"],
                                             "unit": "s"}
        spans = tracer.spans("rounds") / len(times)
        metrics["trace.spans_per_round"] = {"value": spans, "unit": "count"}
        metrics["trace.computed_overhead_s"] = {
            "value": spans * tracing.wrapper_cost(), "unit": "s"}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json.gz"
        tracer.write(trace_path)

    import scipy  # only now, so that scipy stays out of peak_rss_mb
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "blas": blas_info(np),
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
        "unit_of_work": wl.unit_of_work, "work_per_round": work_per_round,
        "setup_times": run["setup_times"], "round_times": times,
        "failed_per_round": [sum(not o.ok for o in r) for r in rounds],
        "untraced_round": run["untraced"], "check_s": check_s,
        "failures": failures, "problems": problems[:50],
        "problem_count": len(problems),
    }
    if tracer is not None:
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["untraced_functions"] = sorted(tracer.missing)
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
