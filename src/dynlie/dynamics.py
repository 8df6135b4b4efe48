"""End-to-end decomposition pipeline and decoupled propagation.

Once the dynamical Lie algebra is split into commuting pieces (simple
ideals plus one-dimensional radical lines), the generator of any control
value projects onto the pieces, and the full propagator factors into a
commuting product of per-piece propagators.  For piecewise-constant
schedules each factor is an exact product of matrix exponentials, so the
factorization error stays at numerical noise.

Propagation is batched: H(u) is affine in u, so a chunk of segments
gets all its generators from one matmul against the drift and control
terms, and their coordinates from one projection.  Each simple ideal,
and the unfactored reference, then costs one stacked eigendecomposition
per chunk; a radical line commutes with everything and costs one
eigendecomposition for the whole schedule.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .cartan import CartanResult, cartan_subalgebra
from .closure import ClosureResult, generate_closure, is_controllable
from .errors import (
    DecompositionError,
    LieAlgebraError,
    NotInSpanError,
    StageFailure,
)
from .ideals import IdealSet, recognize_su2, simple_decompose
from .levi import LeviResult, levi_decompose
from .linalg import (
    LieBasis,
    TOL_EIG,
    TOL_RANK,
    _unvec,
    _vec,
    bracket_residual,
    expm_skew,
    from_coords,
    span_coords,
)
from .primary import PrimaryResult, primary_decompose

KIND_SIMPLE = "simple"
KIND_RADICAL = "radical-line"

# Segments per stacked exponential in ``propagate``.  Larger chunks run no
# faster and hold proportionally larger (CHUNK, n, n) stacks in memory.
CHUNK = 64


@dataclass(frozen=True)
class ComponentDecomposition:
    """The algebra as an ordered orthogonal sum of commuting pieces.

    ``components`` holds (kind, basis) pairs, simple ideals first and
    radical lines last; ``adapted`` is the concatenated basis of the
    whole algebra in that order.
    """

    full: LieBasis
    components: tuple
    adapted: LieBasis


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control schedule: (duration, u) segments.

    Durations must be positive and finite, control values finite.
    """

    segments: tuple

    def __post_init__(self):
        cleaned = []
        for seg in self.segments:
            dur, u = seg
            dur = float(dur)
            if not 0.0 < dur < math.inf:
                raise ValueError(
                    f"segment durations must be positive and finite, got {dur}")
            cleaned.append((dur, np.asarray(u, dtype=float)))
        # One vectorized test: a check per segment would cost more than
        # building the schedule.
        if cleaned and not np.isfinite(
                np.concatenate([u for _, u in cleaned], axis=None)).all():
            raise ValueError("control values must be finite")
        object.__setattr__(self, "segments", tuple(cleaned))

    @property
    def total_time(self):
        return sum((d for d, _ in self.segments), 0.0)


@dataclass(frozen=True)
class SystemAnalysis:
    """Every intermediate of the decomposition pipeline, for reporting."""

    system: object
    closure: ClosureResult
    verdict: str
    levi: LeviResult
    cartan: CartanResult
    primary: PrimaryResult
    ideals: IdealSet
    decomposition: ComponentDecomposition


@dataclass(frozen=True)
class PropagationResult:
    """Total propagator, commuting per-component factors, and residuals."""

    total: np.ndarray
    factors: tuple
    times: float
    factorization_error: float
    commutation_residual: float


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageFailure:
        raise
    except LieAlgebraError as err:
        raise StageFailure(name, err) from err


def analyze_system(system, tol=TOL_RANK, eig_tol=TOL_EIG, pivots=None,
                   splitting_coeffs=None):
    """Run the full pipeline: closure, Levi split, Cartan subalgebra,
    primary decomposition, simple ideals, component assembly.

    ``pivots`` and ``splitting_coeffs`` thread through to the Cartan and
    splitting searches so a specific construction can be reproduced.
    Numerical failures surface as StageFailure naming the stage.
    """
    gens = [1j * system.drift] + [1j * c for c in system.controls]
    closure = _stage("closure", generate_closure, gens, tol)
    verdict = is_controllable(closure)
    levi = _stage("levi", levi_decompose, closure.basis, tol)
    cartan = None
    primary = None
    ideal_set = None
    simple_bases = ()
    if levi.semisimple.dim > 0:
        cartan = _stage("cartan", cartan_subalgebra, levi.semisimple,
                        pivots=pivots, tol=tol)
        coeffs = None if splitting_coeffs is None else [splitting_coeffs]
        primary = _stage("primary", primary_decompose, levi.semisimple,
                         cartan.cartan, tol=tol, eig_tol=eig_tol, coeffs=coeffs)
        ideal_set = _stage("ideals", simple_decompose, levi.semisimple,
                           primary, tol)
        simple_bases = ideal_set.ideals
    n = closure.basis.n
    pieces = ([(KIND_SIMPLE, b) for b in simple_bases]
              + [(KIND_RADICAL, line) for line in levi.radical_lines])
    mats = (np.concatenate([b.mats for _, b in pieces]) if pieces
            else np.zeros((0, n, n), dtype=complex))
    mats.flags.writeable = False
    try:
        adapted = LieBasis(n, mats)
    except ValueError as err:
        raise StageFailure("assembly", DecompositionError(
            f"components are not mutually orthogonal: {err}")) from err
    if adapted.dim != closure.basis.dim:
        raise StageFailure("assembly", NotInSpanError(
            "adapted basis does not span the full algebra"))
    # The components, and the ideals reported with them, are slices of
    # the adapted basis, so the analysis holds their matrices once.
    ends = np.cumsum([b.dim for _, b in pieces])
    components = tuple((kind, LieBasis(n, mats[end - b.dim : end]))
                       for end, (kind, b) in zip(ends, pieces))
    if ideal_set is not None:
        ideal_set = replace(ideal_set, ideals=tuple(
            b for _, b in components[:len(simple_bases)]))
    decomposition = ComponentDecomposition(full=closure.basis,
                                           components=components,
                                           adapted=adapted)
    return SystemAnalysis(system=system, closure=closure, verdict=verdict,
                          levi=levi, cartan=cartan, primary=primary,
                          ideals=ideal_set, decomposition=decomposition)


def _term_vecs(system):
    """The generator's terms -i H0, -i H1, ... as real row vectors.

    H(u) is affine in u, so the generator of the control row [1, u] has
    that row times them as its vector.
    """
    return _vec(-1j * np.stack((system.drift,) + system.controls))


def _control_rows(system, us):
    """Rows [1, u] for the control vectors ``us``, one value per control."""
    rows = np.ones((len(us), system.n_controls + 1))
    for row, u in zip(rows, us):
        u = np.asarray(u, dtype=float)
        if u.shape != (system.n_controls,):
            raise ValueError(f"expected {system.n_controls} control values, "
                             f"got shape {u.shape}")
        row[1:] = u
    return rows


def _generator_coords(decomp, term_vecs, rows, tol):
    """Generator vectors and adapted coordinates of the control ``rows``.

    Raises NotInSpanError when some generator g leaves the algebra, i.e.
    its residual exceeds ``tol * max(1, ||g||_F)``.
    """
    gvecs = rows @ term_vecs
    coords, resid = span_coords(decomp.adapted, _unvec(gvecs, decomp.full.n))
    if np.any(resid > tol * np.maximum(1.0, np.linalg.norm(gvecs, axis=1))):
        raise NotInSpanError(
            "generator leaves the dynamical algebra; controls inconsistent "
            "with the decomposition")
    return gvecs, coords


def _component_slices(decomp):
    """Column range of each component in the adapted coordinates."""
    ends = np.cumsum([basis.dim for _, basis in decomp.components])
    return [slice(end - basis.dim, end)
            for end, (_, basis) in zip(ends, decomp.components)]


def _ordered_product(stack):
    """stack[-1] @ ... @ stack[0], by pairwise halving."""
    while len(stack) > 1:
        even = len(stack) - len(stack) % 2
        stack = np.concatenate([stack[1:even:2] @ stack[0:even:2],
                                stack[even:]])
    return stack[0]


def project_generator(decomp, system, u, tol=TOL_RANK):
    """Pieces of -i H(u) along each component, in component order.

    The sum of the pieces reconstructs the generator (that is exactly the
    orthogonal projection onto the adapted basis, which must contain it).
    """
    _, coords = _generator_coords(decomp, _term_vecs(system),
                                  _control_rows(system, [u]), tol)
    return [_unvec(coords[0, cols] @ basis.vecs, system.dim)
            for cols, (_, basis) in zip(_component_slices(decomp),
                                        decomp.components)]


def propagate(decomp, system, schedule, tol=TOL_RANK):
    """Propagate the system as a commuting product of component factors.

    Every segment contributes exact exponentials exp(dur * piece) per
    component (later segments multiply from the left) and the same for
    the unfactored generator.  Factors are reported in component order;
    the factorization error compares the total against the product taken
    radical lines first, then simple ideals.

    Cost model: segments run in chunks of ``CHUNK``.  Per chunk, one
    matmul gives every segment's generator and one projection their
    coordinates, and each simple ideal and the unfactored reference take
    one stacked ``expm_skew`` (one batched ``eigh``) and a pairwise
    product.  A radical line commutes with
    everything, so its coordinate is summed over the whole schedule and
    exponentiated once: one ``eigh`` per line in total.
    """
    n = system.dim
    comps = decomp.components
    k = len(comps)
    cols = _component_slices(decomp)
    simple = [c for c, (kind, _) in enumerate(comps) if kind == KIND_SIMPLE]
    lines = [c for c, (kind, _) in enumerate(comps) if kind == KIND_RADICAL]
    line_cols = [cols[c].start for c in lines]
    terms = _term_vecs(system)
    durs = np.array([dur for dur, _ in schedule.segments])
    rows = _control_rows(system, [u for _, u in schedule.segments])
    factors = [np.eye(n, dtype=complex) for _ in comps]
    total = np.eye(n, dtype=complex)
    angles = np.zeros(len(lines))
    for start in range(0, len(durs), CHUNK):
        chunk = slice(start, start + CHUNK)
        gvecs, coords = _generator_coords(decomp, terms, rows[chunk], tol)
        for c in simple:
            pieces = _unvec(coords[:, cols[c]] @ comps[c][1].vecs, n)
            factors[c] = (_ordered_product(expm_skew(pieces, durs[chunk]))
                          @ factors[c])
        angles += durs[chunk] @ coords[:, line_cols]
        total = (_ordered_product(expm_skew(_unvec(gvecs, n), durs[chunk]))
                 @ total)
    # Skipped for an empty schedule, whose factors stay exact identities.
    if lines and len(durs):
        line_mats = np.stack([comps[c][1].mats[0] for c in lines])
        for c, f in zip(lines, expm_skew(line_mats, angles)):
            factors[c] = f
    ordered = [f for (kind, _), f in zip(comps, factors)
               if kind == KIND_RADICAL]
    ordered += [f for (kind, _), f in zip(comps, factors)
                if kind == KIND_SIMPLE]
    product = np.eye(n, dtype=complex)
    for f in ordered:
        product = product @ f
    fact_err = float(np.linalg.norm(total - product))
    worst_comm = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            worst_comm = max(worst_comm, float(np.linalg.norm(
                factors[i] @ factors[j] - factors[j] @ factors[i])))
    return PropagationResult(total=total, factors=tuple(factors),
                             times=schedule.total_time,
                             factorization_error=fact_err,
                             commutation_residual=worst_comm)


def structure_residuals(analysis):
    """Numerical residuals behind each structural claim, for reporting.

    Residuals a stage checks or measures are read from its result (Levi,
    splitting element, primary and ideals); only ``radical_abelian``,
    ``cartan_abelian`` and ``adapted_reconstruction`` are computed.
    """
    res = {}
    levi = analysis.levi
    basis = analysis.closure.basis
    res["radical_commutes_with_algebra"] = levi.commutation_residual
    res["radical_abelian"] = bracket_residual(levi.radical, levi.radical)
    if analysis.cartan is not None:
        cart = analysis.cartan.cartan
        res["cartan_abelian"] = bracket_residual(cart, cart)
    if analysis.primary is not None:
        res["component_invariance"] = analysis.primary.invariance_residual
        res["splitting_real_parts"] = analysis.primary.splitting.real_part
    if analysis.ideals is not None:
        res["ideals_commute"] = analysis.ideals.commutation_residual
    adapted = analysis.decomposition.adapted
    coords, _ = span_coords(adapted, basis.mats)
    res["adapted_reconstruction"] = float(np.linalg.norm(
        from_coords(adapted, coords) - basis.mats, axis=(1, 2)).max(initial=0.0))
    return res


def su2_flags(analysis, tol=TOL_RANK):
    """recognize_su2 verdict per simple component of the decomposition."""
    flags = []
    for kind, basis in analysis.decomposition.components:
        if kind != KIND_SIMPLE:
            flags.append(False)
            continue
        flags.append(recognize_su2(basis, tol) is not None)
    return flags
