"""Spans and counters around dynlie's module functions, installed from outside.

The package imports functions by name (``from .linalg import extend_basis``),
so a wrapper has to replace the name in every ``dynlie`` module that holds the
original object.  :meth:`Tracer.install` does that and :meth:`Tracer.uninstall`
puts every original back.  Spans are kept in flat arrays (name, start, end,
parent) and written out once, when the run ends.
"""

import array
import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _extend_basis_counts(counts, args, kwargs, result):
    counts["linalg.extend_basis_candidates"] += len(
        _arg(args, kwargs, 1, "candidates"))
    counts["linalg.extend_basis_accepted"] += (
        result.dim - _arg(args, kwargs, 0, "basis").dim)


def _nullspace_counts(counts, args, kwargs, result):
    counts["linalg.nullspace_cells"] += int(np.size(_arg(args, kwargs, 0, "mat")))


def _simple_decompose_counts(counts, args, kwargs, result):
    counts["ideals.distinct_ideals"] += len(result.ideals)


# (module, function, span name, counter hook run on success).  Every span
# name also gets a "<span>_calls" counter, success or not.
TARGETS = (
    ("linalg", "extend_basis", "linalg.extend_basis", _extend_basis_counts),
    ("linalg", "nullspace", "linalg.nullspace", _nullspace_counts),
    ("linalg", "expm_skew", "linalg.expm_skew", None),
    ("adjoint", "_brackets_and_coords", "adjoint.bracket_tensor", None),
    ("adjoint", "adjoint_matrix", "adjoint.adjoint_matrix", None),
    ("adjoint", "is_semisimple", "adjoint.is_semisimple", None),
    ("adjoint", "killing_gram", "adjoint.killing_gram", None),
    ("closure", "generate_closure", "closure.generate_closure", None),
    ("levi", "levi_decompose", "levi.levi_decompose", None),
    ("levi", "center", "levi.center", None),
    ("levi", "derived_algebra", "levi.derived_algebra", None),
    ("cartan", "cartan_subalgebra", "cartan.cartan_subalgebra", None),
    ("cartan", "centralizer", "cartan.centralizer", None),
    ("primary", "primary_decompose", "primary.primary_decompose", None),
    ("primary", "_split_spectrum", "primary.split_spectrum", None),
    ("ideals", "simple_decompose", "ideals.simple_decompose",
     _simple_decompose_counts),
    ("ideals", "minimal_ideal", "ideals.minimal_ideal", None),
    ("ideals", "recognize_su2", "ideals.recognize_su2", None),
    ("dynamics", "analyze_system", "dynamics.analyze_system", None),
    ("dynamics", "structure_residuals", "dynamics.structure_residuals", None),
    ("dynamics", "propagate", "dynamics.propagate", None),
    ("dynamics", "project_generator", "dynamics.project_generator", None),
    ("fileio", "load_system_spec", "fileio.load_system_spec", None),
    ("fileio", "load_schedule", "fileio.load_schedule", None),
    ("fileio", "build_structure_report", "fileio.build_structure_report", None),
    ("fileio", "build_propagation_report", "fileio.build_propagation_report",
     None),
    ("fileio", "dumps_report", "fileio.dumps_report", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("closure", "linalg", "adjoint", "levi", "cartan", "primary",
          "ideals", "dynamics", "fileio", "cli")


class Tracer:
    """Records a span per call of every function in :data:`TARGETS`.

    :meth:`set_phase` labels the spans and counters recorded from then on,
    so a run can keep its set-up apart from its measured rounds.
    """

    def __init__(self):
        self.names = [span for _, _, span, _ in TARGETS]
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.phase_of = array.array("H")
        self.phases = []
        self.counts = {}
        self._phase = 0
        self._stack = []
        self._patches = []
        self.missing = set()

    def set_phase(self, label):
        if label not in self.phases:
            self.phases.append(label)
            self.counts[label] = Counter()
        self._phase = self.phases.index(label)

    def _wrap(self, fn, span_id, hook):
        calls_key = self.names[span_id] + "_calls"
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(span_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.phase_of.append(tracer._phase)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            counts = tracer.counts[tracer.phases[tracer._phase]]
            counts[calls_key] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace each target in every loaded ``dynlie`` module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dynlie" or name.startswith("dynlie.")]
        for span_id, (mod, fn_name, span, hook) in enumerate(TARGETS):
            original = getattr(sys.modules.get("dynlie." + mod), fn_name, None)
            if original is None:  # renamed or removed: its metrics read 0
                self.missing.add(span)
                continue
            wrapper = self._wrap(original, span_id, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def totals(self, label):
        """Inclusive and self seconds per span name for one phase.

        Inclusive time counts only the outermost span of a name, so a
        function reached twice on one stack is not counted twice.  Self time
        is a span's duration minus the part its child spans cover.
        """
        phase = self.phases.index(label)
        n = len(self.start)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        dur, child, parent = dur.tolist(), child.tolist(), self.parent
        inclusive = Counter()
        self_time = Counter()
        name_id = self.name_id
        phase_of = self.phase_of
        for i in range(n):
            if phase_of[i] != phase:
                continue
            name = self.names[name_id[i]]
            self_time[name] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name_id[p] != name_id[i]:
                p = parent[p]
            if p < 0:
                inclusive[name] += dur[i]
        return inclusive, self_time

    def spans(self, label):
        phase = self.phases.index(label)
        return sum(1 for p in self.phase_of if p == phase)

    def write(self, path):
        """Write every span as columns of a gzip'd JSON document."""
        doc = {
            "names": self.names,
            "phases": self.phases,
            "name": list(self.name_id),
            "phase": list(self.phase_of),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def wrapper_cost(calls=20000):
    """Seconds a wrapper adds to one call, measured on a function that does
    nothing (median of five batches)."""
    tracer = Tracer()
    tracer.set_phase("cost")

    def noop():
        return None

    traced = tracer._wrap(noop, 0, None)
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return sorted(costs)[2]


def layer_metrics(tracer, setups, rounds):
    """Per-layer metrics: one set-up plus one measured round.

    Set-up figures are averaged over the run's ``setups`` set-ups and round
    figures over its ``rounds`` traced rounds, then added, so counts repeat
    exactly from run to run whatever the number of rounds.
    """
    inc = Counter()
    self_s = Counter()
    counts = Counter()
    for label, times in (("setup", setups), ("rounds", rounds)):
        i, s = tracer.totals(label)
        for k, v in i.items():
            inc[k] += v / times
        for k, v in s.items():
            self_s[k] += v / times
        for k, v in tracer.counts[label].items():
            counts[k] += v / times

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("linalg.extend_basis_s", inc["linalg.extend_basis"], "s")
    put("linalg.extend_basis_calls", counts["linalg.extend_basis_calls"],
        "count")
    put("linalg.extend_basis_candidates",
        counts["linalg.extend_basis_candidates"], "count")
    put("linalg.extend_basis_accept_ratio",
        ratio(counts["linalg.extend_basis_accepted"],
              counts["linalg.extend_basis_candidates"]), "ratio")
    put("linalg.nullspace_s", inc["linalg.nullspace"], "s")
    put("linalg.nullspace_calls", counts["linalg.nullspace_calls"], "count")
    put("linalg.nullspace_cells", counts["linalg.nullspace_cells"], "count")
    put("linalg.expm_skew_s", inc["linalg.expm_skew"], "s")
    put("linalg.expm_skew_calls", counts["linalg.expm_skew_calls"], "count")
    put("adjoint.bracket_tensor_s", inc["adjoint.bracket_tensor"], "s")
    put("adjoint.bracket_tensor_calls", counts["adjoint.bracket_tensor_calls"],
        "count")
    put("adjoint.adjoint_matrix_s", inc["adjoint.adjoint_matrix"], "s")
    put("adjoint.adjoint_matrix_calls", counts["adjoint.adjoint_matrix_calls"],
        "count")
    put("adjoint.is_semisimple_calls", counts["adjoint.is_semisimple_calls"],
        "count")
    put("adjoint.killing_gram_s", inc["adjoint.killing_gram"], "s")
    put("closure.generate_closure_s", inc["closure.generate_closure"], "s")
    put("levi.levi_decompose_s", inc["levi.levi_decompose"], "s")
    put("levi.center_s", inc["levi.center"], "s")
    put("levi.derived_algebra_s", inc["levi.derived_algebra"], "s")
    put("cartan.cartan_subalgebra_s", inc["cartan.cartan_subalgebra"], "s")
    put("cartan.centralizer_calls", counts["cartan.centralizer_calls"], "count")
    put("primary.primary_decompose_s", inc["primary.primary_decompose"], "s")
    put("primary.split_candidates", counts["primary.split_spectrum_calls"],
        "count")
    put("ideals.simple_decompose_s", inc["ideals.simple_decompose"], "s")
    put("ideals.minimal_ideal_s", inc["ideals.minimal_ideal"], "s")
    put("ideals.minimal_ideal_calls", counts["ideals.minimal_ideal_calls"],
        "count")
    put("ideals.useful_ratio",
        ratio(counts["ideals.distinct_ideals"],
              counts["ideals.minimal_ideal_calls"]), "ratio")
    put("ideals.recognize_su2_s", inc["ideals.recognize_su2"], "s")
    put("dynamics.analyze_system_s", inc["dynamics.analyze_system"], "s")
    put("dynamics.assembly_s", self_s["dynamics.analyze_system"], "s")
    put("dynamics.structure_residuals_s", inc["dynamics.structure_residuals"],
        "s")
    put("dynamics.propagate_s", inc["dynamics.propagate"], "s")
    put("dynamics.propagate_self_s", self_s["dynamics.propagate"], "s")
    put("dynamics.project_generator_s", inc["dynamics.project_generator"], "s")
    put("dynamics.project_generator_calls",
        counts["dynamics.project_generator_calls"], "count")
    put("fileio.load_s",
        inc["fileio.load_system_spec"] + inc["fileio.load_schedule"], "s")
    put("fileio.build_report_s",
        inc["fileio.build_structure_report"]
        + inc["fileio.build_propagation_report"], "s")
    put("fileio.dumps_report_s", inc["fileio.dumps_report"], "s")
    put("cli.main_self_s", self_s["cli.main"], "s")
    for layer in LAYERS:
        if layer == "cli":
            continue  # cli.main is the layer's only span: cli.main_self_s
        put(f"{layer}.self_s",
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    return m
