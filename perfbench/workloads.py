"""The three workloads: inputs, one round of operations, and output checks.

A workload's ``setup`` makes its inputs (from ``--seed`` or from fixed draws,
see README.md); a run sets up ``setups`` times, a few seconds' worth, and
reports the median.  ``ops`` lists the operations of one round as callables
that each return an :class:`Outcome`, and ``check`` compares the outcomes of
all measured rounds with :mod:`checks`.  Every round runs the same
operations, so the share of failed operations does not depend on the run
length.

:mod:`checks` imports scipy, which dynlie does not use.  It is imported only
inside the check functions, which run after ``peak_rss_mb`` has been read.
"""

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

import dynlie
from dynlie import cli, dynamics, fileio
from dynlie import ControlSchedule, StageFailure, control_system, pauli

DENSE_KEY = 7        # generator keys of the fixed random draws
PAULI_KEY = 11
SCHEDULE_KEY = 13
PACKAGE_DIR = os.path.dirname(os.path.abspath(dynlie.__file__))

# Faults in the program that fire on fixed inputs, by (stage, error class).
# README.md describes each.
KNOWN_FAULTS = {
    ("ideals", "DecompositionError"): "F1",
    ("ideals", "exit 3"): "F1",
    ("dynamics.propagate", "ValueError"): "F2",
    ("fileio.dumps_report", "RoundTripMismatch"): "F3",
}


@dataclass
class Outcome:
    op: str
    value: object = None
    stage: str = None
    error: str = None
    message: str = None

    @property
    def ok(self):
        return self.error is None


def failed(op, exc):
    """Outcome of an operation that raised ``exc``.

    The stage is the pipeline stage a StageFailure names, else the first
    dynlie function below the CLI on the traceback.
    """
    if isinstance(exc, StageFailure):
        return Outcome(op, stage=exc.stage, error=type(exc.error).__name__,
                       message=str(exc.error))
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if os.path.dirname(os.path.abspath(f.filename)) == PACKAGE_DIR]
    inner = [f for f in frames if os.path.basename(f.filename) != "cli.py"]
    where = inner[0] if inner else (frames[-1] if frames else None)
    stage = (f"{os.path.basename(where.filename)[:-3]}.{where.name}"
             if where else "outside dynlie")
    return Outcome(op, stage=stage, error=type(exc).__name__, message=str(exc))


# ---------------------------------------------------------------------------
# systems, as lists of Hamiltonian terms [H0, H1, ...]

def herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def dense(n, draw, controls=1):
    """Dense random drift and controls on n levels, fixed by ``draw``."""
    rng = np.random.default_rng([DENSE_KEY, n, draw])
    return [herm(rng, n) for _ in range(1 + controls)]


def site(axis, i, k):
    ops = [np.eye(2, dtype=complex)] * k
    ops[i] = pauli(axis)
    return reduce(np.kron, ops)


def ising(k, drives):
    """ZZ chain of k spins with one global drive per axis in ``drives``."""
    drift = sum(site("z", i, k) @ site("z", i + 1, k) for i in range(k - 1))
    return [drift] + [sum(site(a, i, k) for i in range(k)) for a in drives]


def two_spin():
    eye = np.eye(2)
    return [np.kron(pauli("x"), eye), np.kron(pauli("z"), pauli("z")),
            np.kron(pauli("y"), pauli("y"))]


def three_qubit():
    """su(2) on the first spin plus two radical lines (sz on spins 2, 3)."""
    drift = site("z", 0, 3) + 0.7 * site("z", 1, 3) + 0.3 * site("z", 2, 3)
    return [drift, site("x", 0, 3) + 0.6 * site("z", 2, 3)]


_ONE_SPIN = {"i": np.eye(2), "x": pauli("x"), "y": pauli("y"), "z": pauli("z")}
PAULI_2Q = [np.kron(_ONE_SPIN[a], _ONE_SPIN[b])
            for a in "ixyz" for b in "ixyz" if a + b != "ii"]


def pauli_strings(rng):
    """Two-qubit Hamiltonians, each a sum of 1-3 random Pauli strings."""
    def term():
        picks = rng.choice(len(PAULI_2Q), size=int(rng.integers(1, 4)),
                           replace=False)
        coefs = rng.uniform(0.3, 1.5, size=len(picks)) * rng.choice(
            [-1.0, 1.0], size=len(picks))
        return sum(c * PAULI_2Q[p] for c, p in zip(coefs, picks))
    return [term() for _ in range(1 + int(rng.integers(1, 3)))]


def to_system(terms):
    return control_system(terms[0], terms[1:])


def schedule(rng, controls, segments):
    return [(float(rng.uniform(0.05, 1.0)), rng.uniform(-2.0, 2.0, controls))
            for _ in range(segments)]


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def spec_doc(terms):
    def mat(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return {"dim": terms[0].shape[0], "drift": mat(terms[0]),
            "controls": [mat(h) for h in terms[1:]],
            "labels": [f"u{k + 1}" for k in range(len(terms) - 1)]}


def schedule_doc(segs):
    return {"segments": [{"duration": d, "u": [float(x) for x in u]}
                         for d, u in segs]}


def guarded(op, fn, *args):
    """Outcome of ``fn(*args)``: its value, or the stage and class it failed
    with."""
    try:
        return Outcome(op, value=fn(*args))
    except Exception as exc:  # counted, reported by stage and class
        return failed(op, exc)


# Operations look dynamics.analyze_system and dynamics.propagate up when they
# run, not when they are built, so that the tracer's wrappers see the calls.

def _analyze(system):
    return dynamics.analyze_system(system)


def _propagate(decomp, system, sched):
    return dynamics.propagate(decomp, system, sched)


def cli_call(op, argv):
    """``dynlie`` CLI in-process; the Outcome's value is its standard output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit:
        return Outcome(op, stage="cli.arguments", error="SystemExit",
                       message=err.getvalue().strip()[-200:])
    except Exception as exc:  # the CLI should turn every fault into a code
        return failed(op, exc)
    if code != 0:
        msg = err.getvalue().strip()
        stage = msg.split("stage '")[1].split("'")[0] if "stage '" in msg \
            else "cli"
        return Outcome(op, stage=stage, error=f"exit {code}",
                       message=msg[-200:])
    return Outcome(op, value=out.getvalue())


def roundtrip(text):
    return fileio.dumps_report(fileio.loads_report(text))


# ---------------------------------------------------------------------------
# preflight: every set-up runs the CLI and the library once on two-spin

PREFLIGHT_SCHEDULE = [(0.5, (1.0, 0.0)), (1.0, (0.2, -0.7)),
                      (0.3, (-1.5, 0.4)), (0.8, (0.6, 1.1))]


def preflight(work):
    """Run ``decompose`` and ``simulate`` on the bundled two-spin model and
    analyze it through the library, so every layer runs before measuring.
    Returns the outputs; :func:`check_preflight` checks them."""
    spec = os.path.join(work, "preflight-spec.json")
    sched = os.path.join(work, "preflight-schedule.json")
    write_json(spec, {"model": "two-spin"})
    write_json(sched, schedule_doc(PREFLIGHT_SCHEDULE))
    dec = cli_call("preflight decompose", ["decompose", spec])
    sim = cli_call("preflight simulate", ["simulate", spec, sched])
    lib = guarded("preflight analyze_system", _analyze, to_system(two_spin()))
    return {"report": dec.value, "prop_report": sim.value,
            "outcomes": [dec, sim, lib], "analysis": lib.value}


def check_preflight(pre):
    """Problems with the preflight outputs, and the self-check's verdict."""
    import checks
    bad = [f"{o.op} failed: {o.error} in {o.stage}"
           for o in pre["outcomes"] if not o.ok]
    if bad:
        return bad
    terms = two_spin()
    o = checks.oracle(terms)
    st = checks.structure_of(pre["analysis"])
    reference = checks.expm_product(terms, PREFLIGHT_SCHEDULE)
    final_time = sum(d for d, _ in PREFLIGHT_SCHEDULE)
    p = checks.check_structure(o, st)
    p += checks.check_structure_report(o, pre["report"])
    p += checks.check_propagation_report(o, pre["prop_report"], reference,
                                         final_time)
    for text in (pre["report"], pre["prop_report"]):
        p += checks.listed(checks.roundtrip_problem(text, roundtrip))
    doc = json.loads(pre["prop_report"])
    prop = (checks.pairs(doc["total"]),
            tuple(checks.pairs(f["matrix"]) for f in doc["factors"]),
            reference, final_time)
    missed = checks.self_check(o, st, prop, pre["report"], pre["prop_report"],
                               roundtrip)
    return [f"preflight: {x}" for x in p] + [
        f"self-check: a check did not flag '{name}'" for name in missed]


# ---------------------------------------------------------------------------
# workloads

class AnalyzeLadder:
    """``analyze_system`` once per system over a fixed ladder."""

    name = "analyze-ladder"
    unit_of_work = "systems analyzed"
    setups = 40

    @staticmethod
    def ladder():
        systems = [("two-spin", two_spin())]
        systems += [(f"ising-x k={k}", ising(k, "x")) for k in (2, 3, 4)]
        systems += [(f"ising-xz k={k}", ising(k, "xz")) for k in (2, 3)]
        systems += [(f"dense u({n}) draw 0", dense(n, 0)) for n in (3, 4, 5, 6)]
        return systems

    def setup(self, seed, work):
        systems = self.ladder()
        order = np.random.default_rng(seed).permutation(len(systems))
        return [(systems[i][0], systems[i][1], to_system(systems[i][1]))
                for i in order]

    # The two systems that take nearly all of a pass; a first pass over the
    # rest warms every stage, and a whole first pass measured no slower than
    # later ones.
    LARGE = ("ising-xz k=3", "dense u(6) draw 0")

    def warmup(self, inputs):
        for name, _, system in inputs:
            if name not in self.LARGE:
                guarded(name, _analyze, system)

    def ops(self, inputs):
        return [partial(guarded, name, _analyze, system)
                for name, _, system in inputs]

    def work(self, inputs):
        return len(inputs)

    def check(self, inputs, rounds):
        import checks
        oracles = {name: checks.oracle(terms) for name, terms, _ in inputs}
        problems = []
        for outcomes in rounds:
            for out in outcomes:
                if out.ok:
                    problems += [f"{out.op}: {p}" for p in checks.check_structure(
                        oracles[out.op], checks.structure_of(out.value))]
        return problems


class ScanSmall:
    """``dynlie decompose`` and ``dynlie simulate`` on many small systems."""

    name = "scan-small"
    unit_of_work = "systems (decompose plus simulate)"
    setups = 20
    PAULI_SYSTEMS = 80
    DENSE_U2 = 12
    DENSE_U3 = tuple(range(11)) + (793,)    # draw 793 is one F2 fires on
    SEGMENTS = 8

    def table(self):
        """The scan's systems and schedules: fixed draws, see README.md."""
        systems = []
        for i in range(self.PAULI_SYSTEMS):
            rng = np.random.default_rng([PAULI_KEY, i])
            systems.append((f"pauli #{i}", pauli_strings(rng)))
        for d in range(self.DENSE_U2):
            systems.append((f"dense u(2) draw {d}",
                            dense(2, d, controls=1 + d % 2)))
        systems += [(f"dense u(3) draw {d}", dense(3, d))
                    for d in self.DENSE_U3]
        table = []
        for i, (name, terms) in enumerate(systems):
            rng = np.random.default_rng([SCHEDULE_KEY, i])
            table.append((name, terms,
                          schedule(rng, len(terms) - 1, self.SEGMENTS)))
        return table

    def setup(self, seed, work):
        table = self.table()
        order = np.random.default_rng(seed).permutation(len(table))
        inputs = []
        for i in order:
            name, terms, segs = table[i]
            spec = os.path.join(work, f"spec-{i}.json")
            sched = os.path.join(work, f"schedule-{i}.json")
            write_json(spec, spec_doc(terms))
            write_json(sched, schedule_doc(segs))
            inputs.append((name, terms, segs, spec, sched))
        return inputs

    def warmup(self, inputs):
        for _, _, _, spec, sched in inputs[:: max(1, len(inputs) // 10)]:
            cli_call("warm-up", ["decompose", spec])
            cli_call("warm-up", ["simulate", spec, sched])

    def ops(self, inputs):
        return [partial(cli_call, f"{name} {argv[0]}", argv)
                for name, _, _, spec, sched in inputs
                for argv in (["decompose", spec], ["simulate", spec, sched])]

    def work(self, inputs):
        return len(inputs)

    def check(self, inputs, rounds):
        """Checks every report.  A report whose round trip only turns "-0"
        into "0" (F3) marks its operation failed instead."""
        import checks
        problems = []
        for i, (name, terms, segs, _, _) in enumerate(inputs):
            o = checks.oracle(terms)
            reference = checks.expm_product(terms, segs)
            final_time = sum(d for d, _ in segs)
            for outcomes in rounds:
                dec, sim = outcomes[2 * i], outcomes[2 * i + 1]
                if dec.ok:
                    problems += [f"{dec.op}: {p}" for p in
                                 checks.check_structure_report(o, dec.value)]
                if sim.ok:
                    problems += [f"{sim.op}: {p}" for p in
                                 checks.check_propagation_report(
                                     o, sim.value, reference, final_time)]
                for out in (dec, sim):
                    if not out.ok:
                        continue
                    rt = checks.roundtrip_problem(out.value, roundtrip)
                    if rt == checks.NEGATIVE_ZERO:
                        out.stage = "fileio.dumps_report"
                        out.error = "RoundTripMismatch"
                        out.message = "-0 in the report reads back as 0"
                    elif rt:
                        problems.append(f"{out.op}: {rt}")
        return problems


class PropagateLong:
    """``propagate`` over long schedules on decompositions built at set-up."""

    name = "propagate-long"
    unit_of_work = "segments"
    setups = 8
    SEGMENTS = 10_000

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        inputs = []
        for name, terms in (("two-spin", two_spin()),
                            ("ising-x k=4", ising(4, "x")),
                            ("three-qubit su(2)+2 lines", three_qubit())):
            system = to_system(terms)
            decomp = dynamics.analyze_system(system).decomposition
            segs = schedule(rng, len(terms) - 1, self.SEGMENTS)
            inputs.append((name, terms, segs, system, decomp,
                           ControlSchedule(tuple(segs))))
        return inputs

    def warmup(self, inputs):
        for _, _, segs, system, decomp, _ in inputs:
            dynamics.propagate(decomp, system,
                               ControlSchedule(tuple(segs[:100])))

    def ops(self, inputs):
        return [partial(guarded, name, _propagate, decomp, system, sched)
                for name, _, _, system, decomp, sched in inputs]

    def work(self, inputs):
        return sum(len(segs) for _, _, segs, _, _, _ in inputs)

    def check(self, inputs, rounds):
        import checks
        problems = []
        for i, (name, terms, segs, _, _, _) in enumerate(inputs):
            reference = checks.expm_product(terms, segs)
            for outcomes in rounds:
                out = outcomes[i]
                if out.ok:
                    total, factors = out.value.total, out.value.factors
                    problems += [f"{name}: {p}" for p in
                                 checks.check_propagation(total, factors,
                                                          reference)]
        return problems


WORKLOADS = {w.name: w for w in (AnalyzeLadder, ScanSmall, PropagateLong)}
