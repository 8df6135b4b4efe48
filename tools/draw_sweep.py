"""Run ``analyze_system`` over a fixed set of random draws, one JSON line each.

The draws are the benchmark's generators (``perfbench/workloads.py``, only
imported): two-qubit Pauli-string systems ``default_rng([11, 0..1499])`` and
dense u(3)-u(6) systems draws 0-74.  Each line holds the draw, whether its
Hamiltonian terms are real (``real_terms``: every imaginary part at most
``TOL_FRAME`` times its term's norm; ``propagate`` runs in real arithmetic
only then), and either the closure dimension, verdict, simple-ideal
dimensions, radical line count and splitting coefficients and frequencies,
or the failing stage and error class.

Each analyzed draw is also propagated over a fixed short schedule.  The line
records the block sizes of the terms' invariant frame (``propagate`` adds
the terms' pieces on the components, which lie in the algebra the terms
generate and so leave the blocks as they are), the distance of the total
from a product of scipy exponentials of the full generators, and the
problems ``perfbench/checks.py`` ``check_propagation`` finds (total against
that product and against the factors, unitary and commuting factors); a draw
with any problem is a propagation mismatch.

Run from the repository root:

    python3 tools/draw_sweep.py > sweep.jsonl
    python3 tools/draw_sweep.py --compare before.jsonl after.jsonl

``--compare`` prints how two sweeps differ: failures on either side, draws
where both succeed but the structure differs, draws where only the
splitting element differs, propagation mismatches on either side, and how
many draws on each side have real terms (sweeps written before the key was
recorded count as not recorded).  It exits 1 when the after sweep has more
failures than the before sweep, when the structure differs on any draw, or
when a draw mismatches in propagation after but not before; else 0.
"""

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAULI_DRAWS = range(1500)
DENSE_SIZES = (3, 4, 5, 6)
DENSE_DRAWS = range(75)
STRUCTURE = ("closure_dim", "verdict", "ideal_dims", "radical_lines")
SCHEDULE_DURATIONS = (0.3, 0.7, 0.45, 0.9, 0.2)


def draws():
    """(name, Hamiltonian terms [H0, H1, ...]) for every draw of the sweep."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    for i in PAULI_DRAWS:
        rng = np.random.default_rng([workloads.PAULI_KEY, i])
        yield f"pauli {i}", workloads.pauli_strings(rng)
    for n in DENSE_SIZES:
        for d in DENSE_DRAWS:
            yield f"u({n}) {d}", workloads.dense(n, d)


def schedule(controls):
    """The fixed short schedule for a system with ``controls`` controls."""
    import numpy as np
    us = np.random.default_rng(controls).uniform(
        -2.0, 2.0, (len(SCHEDULE_DURATIONS), controls))
    return list(zip(SCHEDULE_DURATIONS, us))


def propagation(analysis, terms):
    """Frame blocks, distance from the expm product, and check problems."""
    import numpy as np
    import checks
    from dynlie import ControlSchedule, propagate
    from dynlie.linalg import invariant_frame
    system = analysis.system
    segs = schedule(system.n_controls)
    blocks = invariant_frame(
        -1j * np.stack((system.drift,) + system.controls))[1]
    reference = checks.expm_product(terms, segs)
    try:
        result = propagate(analysis.decomposition, system,
                           ControlSchedule(tuple(segs)))
    except Exception as err:  # an escaped error is a mismatch, not a crash
        return {"blocks": list(blocks), "propagation_error": None,
                "propagation_problems": [f"{type(err).__name__}: {err}"]}
    return {"blocks": list(blocks),
            "propagation_error": float(np.linalg.norm(
                result.total - reference)),
            "propagation_problems": checks.check_propagation(
                result.total, result.factors, reference)}


def real_terms(terms):
    """Whether every term is real up to ``TOL_FRAME`` of its norm."""
    import numpy as np
    from dynlie.linalg import TOL_FRAME
    return all(np.linalg.norm(np.imag(h)) <= TOL_FRAME * np.linalg.norm(h)
               for h in terms)


def record(name, terms):
    from dynlie import StageFailure, analyze_system, control_system
    line = {"draw": name, "real_terms": real_terms(terms)}
    try:
        analysis = analyze_system(control_system(terms[0], terms[1:]))
    except StageFailure as err:
        line.update(stage=err.stage, error=type(err.error).__name__,
                    message=str(err.error))
        return line
    except Exception as err:  # an escaped error is a finding, not a crash
        where = traceback.extract_tb(err.__traceback__)[-1]
        line.update(stage=f"{Path(where.filename).stem}.{where.name}",
                    error=type(err).__name__, message=str(err))
        return line
    ideals = analysis.ideals.ideals if analysis.ideals is not None else ()
    split = analysis.primary.splitting if analysis.primary else None
    line.update(
        closure_dim=analysis.closure.dim, verdict=analysis.verdict,
        ideal_dims=[b.dim for b in ideals],
        radical_lines=len(analysis.levi.radical_lines),
        coefficients=None if split is None else split.coeffs.tolist(),
        frequencies=None if split is None else split.frequencies.tolist())
    line.update(propagation(analysis, terms))
    return line


def same_floats(x, y, rel=1e-9):
    """Equal up to rounding: None on both sides, or equal lengths and
    every pair within ``rel`` relative."""
    if x is None or y is None:
        return x is y
    return len(x) == len(y) and all(math.isclose(p, q, rel_tol=rel)
                                    for p, q in zip(x, y))


def compare(before_path, after_path):
    """Print how two sweeps differ; True when the after sweep is no worse
    (see the module docstring)."""
    def load(path):
        with open(path) as fh:
            return {d["draw"]: d for d in map(json.loads, fh)}
    before, after = load(before_path), load(after_path)
    both = structure = splitting = 0
    for name in before.keys() & after.keys():
        b, a = before[name], after[name]
        if "error" in b or "error" in a:
            continue
        both += 1
        if any(b[k] != a[k] for k in STRUCTURE):
            structure += 1
            print(f"structure differs on {name}: {b} -> {a}")
        elif (b["coefficients"] != a["coefficients"]
              or not same_floats(b["frequencies"], a["frequencies"])):
            splitting += 1
    failures, mismatches = {}, {}
    for label, sweep in (("before", before), ("after", after)):
        failed = [d for d in sweep.values() if "error" in d]
        failures[label] = len(failed)
        print(f"{label}: {len(sweep)} draws, {len(failed)} failed")
        for d in failed:
            print(f"  {d['draw']}: {d['stage']} {d['error']}: {d['message']}")
        checked = [d for d in sweep.values() if "propagation_problems" in d]
        mismatched = [d for d in checked if d["propagation_problems"]]
        mismatches[label] = {d["draw"] for d in mismatched}
        print(f"{label}: {len(checked)} draws propagated, "
              f"{len(mismatched)} propagation mismatches")
        for d in mismatched:
            print(f"  {d['draw']}: {'; '.join(d['propagation_problems'])}")
        real = [d.get("real_terms") for d in sweep.values()]
        print(f"{label}: real terms on {real.count(True)} draws, complex on "
              f"{real.count(False)}, not recorded on {real.count(None)}")
    print(f"both succeed on {both} draws: structure differs on {structure}, "
          f"only the splitting element on {splitting}")
    new = mismatches["after"] - mismatches["before"]
    print(f"new propagation mismatches: {len(new)}")
    return (failures["after"] <= failures["before"] and not structure
            and not new)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two sweep files instead of sweeping")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    count = failed = mismatched = 0
    for name, terms in draws():
        line = record(name, terms)
        print(json.dumps(line), flush=True)
        count += 1
        failed += "error" in line
        mismatched += bool(line.get("propagation_problems"))
    print(f"{count} draws, {failed} failed, {mismatched} propagation "
          f"mismatches", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
