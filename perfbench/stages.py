"""Per-stage reference table: the pipeline stages of ``analyze_system`` and a
100-segment ``propagate``, traced, for a few systems of the ladder.

Run from the repository root:

    python3 perfbench/stages.py

Prints a markdown table of median seconds over three repeats, after one
warm-up call per system.  A stage's figure is the time of its top-level call
inside ``analyze_system``; a failed analysis shows the stages it reached.
"""

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
STAGES = ("closure.generate_closure", "levi.levi_decompose",
          "cartan.cartan_subalgebra", "primary.primary_decompose",
          "ideals.simple_decompose")


def stage_times(tracer, label):
    """Seconds of each top-level stage, of analyze_system and of propagate."""
    phase = tracer.phases.index(label)
    out = dict.fromkeys(STAGES + ("dynamics.analyze_system",
                                  "dynamics.propagate"), 0.0)
    for i in range(len(tracer.start)):
        if tracer.phase_of[i] != phase:
            continue
        name = tracer.names[tracer.name_id[i]]
        p = tracer.parent[i]
        top = p < 0 or (name in STAGES and tracer.names[tracer.name_id[p]]
                        == "dynamics.analyze_system")
        if name in out and top:
            out[name] += tracer.end[i] - tracer.start[i]
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads
    from dynlie import ControlSchedule, dynamics

    systems = [("two-spin", workloads.two_spin()),
               ("Ising chain k=4", workloads.ising(4, "x")),
               ("dense u(6) draw 2", workloads.dense(6, 2)),
               ("dense u(6) draw 0 (F1)", workloads.dense(6, 0))]
    tracer = tracing.Tracer()
    print("| system | d | closure | levi | cartan | primary | ideals "
          "| `analyze_system` | untraced | `propagate`, 100 segments |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, terms in systems:
        system = workloads.to_system(terms)
        segs = workloads.schedule(np.random.default_rng(0), len(terms) - 1,
                                  100)
        sched = ControlSchedule(tuple(segs))
        rows, untraced, dim = [], [], "-"
        for rep in range(REPEATS + 1):
            t0 = perf_counter()
            try:
                analysis = dynamics.analyze_system(system)
            except Exception:  # a failed analysis still shows its stages
                analysis = None
            untraced.append(perf_counter() - t0)
            label = f"{name} #{rep}"
            tracer.set_phase(label)
            tracer.install()
            try:
                try:
                    analysis = dynamics.analyze_system(system)
                    dim = analysis.closure.dim
                    dynamics.propagate(analysis.decomposition, system, sched)
                except Exception:
                    pass
            finally:
                tracer.uninstall()
            if rep:  # the first pass warms up
                rows.append(stage_times(tracer, label))
        med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        cells = [f"{med[k]:.4f}" for k in STAGES]
        prop = med["dynamics.propagate"]
        print(f"| {name} | {dim} | " + " | ".join(cells)
              + f" | {med['dynamics.analyze_system']:.4f}"
              + f" | {statistics.median(untraced[1:]):.4f}"
              + f" | {f'{prop:.4f}' if prop else 'n/a'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
