"""File formats: system specs, schedules, and canonical reports.

Reports are structured text (a JSON subset) chosen over binary for
inspectability and golden-file diffs.  Serialization is canonical: keys
appear in fixed builder order, floats are printed with 17 significant
digits, complex entries as [re, im] pairs.  Parsing with
:func:`loads_report` and re-serializing therefore reproduces the exact
bytes.
"""

import json

import numpy as np

from .dynamics import ControlSchedule, structure_residuals
from .linalg import TOL_RESIDUAL, hermitian_part
from .models import MODELS, ControlSystem

STRUCTURE_FORMAT = "dynlie-structure-report"
PROPAGATION_FORMAT = "dynlie-propagation-report"


class SpecError(ValueError):
    """Malformed spec, schedule, or flag input (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# canonical serialization

def _fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain NaN or infinities")
    # Adding 0.0 turns -0.0 into 0.0: "-0" would read back as the
    # integer 0 and print as "0", so the bytes would not round-trip.
    return format(x + 0.0, ".17g")


def _emit(obj, indent):
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # A one-line element reads the same at any indent.
        items = [_emit(v, indent + 1) for v in obj]
        inline = "[" + ", ".join(items) + "]"
        if len(inline) <= 100 and "\n" not in inline:
            return inline
        parts = [f"{pad}  {v}" for v in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(doc):
    """Canonical text form of a report document (dicts and lists)."""
    return _emit(doc, 0) + "\n"


def loads_report(text):
    """Inverse of :func:`dumps_report` (plain JSON parsing)."""
    return json.loads(text)


def matrix_to_pairs(mat):
    """Complex matrix -> nested lists of [re, im] pairs."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def pairs_to_matrix(obj, what="matrix"):
    """Nested [re, im] lists -> complex ndarray, with shape validation."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as err:
        raise SpecError(f"{what}: entries must be [re, im] pairs") from err
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise SpecError(
            f"{what}: expected a square matrix of [re, im] pairs, "
            f"got shape {arr.shape}")
    # np.asarray also reads booleans and numeric strings as numbers.
    for row in obj:
        for pair in row:
            for value in pair:
                _number(value, f"{what}: entry")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


# ---------------------------------------------------------------------------
# input formats

def _number(value, what):
    """A JSON number, not a bool, as a float; else SpecError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:  # an integer too large for a float
        raise SpecError(f"{what} is out of range") from err


def load_system_spec(path):
    """Read a control-system spec file.

    Two shapes are accepted: {"model": "two-spin"} for a bundled model,
    or explicit {"dim", "drift", "controls", "labels"} with matrices as
    nested [re, im] pairs.  Hamiltonians are validated as Hermitian at
    1e-8 and symmetrized.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read spec file: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"spec file is not valid JSON: {err}") from err
    return system_from_doc(doc)


def system_from_doc(doc):
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    if "model" in doc:
        name = doc["model"]
        if not isinstance(name, str) or name not in MODELS:
            known = ", ".join(sorted(MODELS))
            raise SpecError(f"unknown model {name!r} (known: {known})")
        return MODELS[name]()
    for key in ("dim", "drift", "controls"):
        if key not in doc:
            raise SpecError(f"spec is missing the {key!r} field")
    dim = _number(doc["dim"], "dim")
    if not dim.is_integer():
        raise SpecError(f"dim must be an integer, got {doc['dim']!r}")
    drift = pairs_to_matrix(doc["drift"], "drift")
    if not isinstance(doc["controls"], list):
        raise SpecError(f"controls must be a list, got {doc['controls']!r}")
    controls = [pairs_to_matrix(c, f"control {k}")
                for k, c in enumerate(doc["controls"])]
    labels = doc.get("labels")
    if labels is None:
        labels = [f"u{k + 1}" for k in range(len(controls))]
    if not (isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)):
        raise SpecError(f"labels must be a list of strings, got {labels!r}")
    if len(labels) != len(controls):
        raise SpecError(
            f"{len(labels)} labels given for {len(controls)} controls")
    mats = [("drift", drift)] + list(zip(labels, controls))
    try:
        # Spec files are held to 1e-8; the symmetrized result then meets
        # ControlSystem's tighter 1e-10 exactly, and ControlSystem checks
        # the shapes against dim.
        drift, *controls = [hermitian_part(m, 1e-8, str(name))
                            for name, m in mats]
        return ControlSystem(dim=int(dim), drift=drift,
                             controls=tuple(controls), labels=tuple(labels))
    except ValueError as err:
        raise SpecError(str(err)) from err


def load_schedule(path, n_controls):
    """Read a schedule file: {"segments": [{"duration", "u"}, ...]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read schedule file: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"schedule file is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or type(doc.get("segments")) is not list:
        raise SpecError("schedule must be an object with a 'segments' list")
    segments = []
    for k, seg in enumerate(doc["segments"]):
        if not isinstance(seg, dict) or "duration" not in seg or "u" not in seg:
            raise SpecError(f"segment {k} needs 'duration' and 'u' fields")
        if not isinstance(seg["u"], list):
            raise SpecError(f"segment {k}: 'u' must be a list of numbers")
        dur = _number(seg["duration"], f"segment {k}: duration")
        u = [_number(v, f"segment {k}: control value") for v in seg["u"]]
        if len(u) != n_controls:
            raise SpecError(
                f"segment {k}: {len(u)} control values for {n_controls} "
                f"controls")
        segments.append((dur, u))
    try:
        return ControlSchedule(segments=tuple(segments))
    except ValueError as err:
        raise SpecError(str(err)) from err


# ---------------------------------------------------------------------------
# report builders

def build_structure_report(analysis):
    """Structure report document with canonical key order."""
    levi = analysis.levi
    residuals = structure_residuals(analysis)
    status = ("ok" if all(v <= TOL_RESIDUAL for v in residuals.values())
              else "degraded")
    doc = {
        "format": STRUCTURE_FORMAT,
        "version": 1,
        "status": status,
        "system": {
            "dim": analysis.system.dim,
            "labels": list(analysis.system.labels),
        },
        "algebra_dim": analysis.closure.dim,
        "closure_depth": analysis.closure.depth_reached,
        "controllability": analysis.verdict,
        "radical_dim": levi.radical.dim,
        "radical_line_count": len(levi.radical_lines),
        "semisimple_dim": levi.semisimple.dim,
        "cartan_dim": (analysis.cartan.cartan.dim
                       if analysis.cartan is not None else 0),
    }
    if analysis.primary is not None:
        doc["splitting"] = {
            "coefficients": [float(c)
                             for c in analysis.primary.splitting.coeffs],
            "frequencies": [float(f)
                            for f in analysis.primary.splitting.frequencies],
        }
    else:
        doc["splitting"] = None
    # Simple ideals come first among the components, in the ideals' order.
    su2 = analysis.ideals.su2 if analysis.ideals is not None else ()
    doc["components"] = [
        {"kind": kind, "dim": basis.dim, "su2": i < len(su2) and su2[i]}
        for i, (kind, basis) in enumerate(analysis.decomposition.components)
    ]
    doc["residuals"] = {k: float(v) for k, v in sorted(residuals.items())}
    return doc


def build_propagation_report(decomp, result):
    """Propagation report: total, factors, and the certification numbers."""
    n = result.total.shape[0]
    eye = np.eye(n)
    unit = max(
        [float(np.linalg.norm(f.conj().T @ f - eye)) for f in result.factors]
        + [float(np.linalg.norm(result.total.conj().T @ result.total - eye))]
    )
    doc = {
        "format": PROPAGATION_FORMAT,
        "version": 1,
        "final_time": float(result.times),
        "factorization_error": float(result.factorization_error),
        "commutation_residual": float(result.commutation_residual),
        "unitarity_residual": unit,
        "total": matrix_to_pairs(result.total),
        "factors": [
            {"kind": kind, "dim": basis.dim, "matrix": matrix_to_pairs(f)}
            for (kind, basis), f in zip(decomp.components, result.factors)
        ],
    }
    return doc
