"""End-to-end decomposition pipeline and decoupled propagation.

Once the dynamical Lie algebra is split into commuting pieces (simple
ideals plus one-dimensional radical lines), the generator of any control
value projects onto the pieces, and the full propagator factors into a
commuting product of per-piece propagators.  For piecewise-constant
schedules each factor is an exact product of matrix exponentials, so the
factorization error stays at numerical noise.

Propagation runs in the frame of the terms' invariant subspaces: one
unitary in which the drift, every control term and so the whole algebra
are block diagonal (``linalg.invariant_frame``).  It is batched: H(u) is
affine in u, so a chunk of segments gets its generators, for the
membership check, from one matmul against the terms, their coordinates
from one projection, and every diagonal block of the reference
generator and of each simple ideal's piece from one more matmul.  The
blocks of each size cost one stacked exponential per chunk (an
eigendecomposition, or a closed form for sizes 1 and 2), an ideal
skipping the blocks it acts on as zero; a radical line commutes with
everything and costs one exponential for the whole schedule.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import _brackets_and_coords, restrict
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
    TOL_FRAME,
    _unvec,
    _vec,
    expm_skew,
    from_coords,
    invariant_frame,
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

    Durations must be positive and finite, control values finite.  The
    segments are kept as given; ``durations`` holds the durations as one
    read-only array and ``controls`` the control vectors stacked, one row
    per segment, or None when their lengths differ.
    """

    segments: tuple
    durations: np.ndarray = field(init=False, repr=False, compare=False)
    controls: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        durs = np.array([dur for dur, _ in segs], dtype=float)
        bad = ~((durs > 0.0) & (durs < math.inf))
        if bad.any():
            raise ValueError("segment durations must be positive and finite, "
                             f"got {durs[bad.argmax()]}")
        try:
            us = np.array([u for _, u in segs], dtype=float)
        except ValueError:  # control vectors of different lengths
            us = None
            values = np.concatenate(
                [np.asarray(u, dtype=float) for _, u in segs], axis=None)
        else:
            us.flags.writeable = False
            values = us
        if not np.isfinite(values).all():
            raise ValueError("control values must be finite")
        durs.flags.writeable = False
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "durations", durs)
        object.__setattr__(self, "controls", us)

    @property
    def total_time(self):
        return sum(self.durations.tolist(), 0.0)


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

    The closure basis's structure constants are built once, with the one
    bracket-closure check, and not kept: the later stages are linear
    algebra on them, the semisimple stages on their restriction to the
    semisimple part.  ``pivots`` and ``splitting_coeffs`` thread through
    to the Cartan and splitting searches so a specific construction can
    be reproduced.  Numerical failures surface as StageFailure naming the
    stage.
    """
    gens = [1j * system.drift] + [1j * h for h in system.controls]
    closure = _stage("closure", generate_closure, gens, tol)
    verdict = is_controllable(closure)
    basis = closure.basis
    c = _stage("closure", _brackets_and_coords, basis, tol)
    levi = _stage("levi", levi_decompose, basis, c, tol)
    cartan = primary = ideal_set = None
    simple_bases = ()
    semi = levi.semisimple
    if semi.dim > 0:
        # From here on c holds the constants of the semisimple part.
        c = restrict(c, span_coords(basis, semi.mats)[0])
        cartan = _stage("cartan", cartan_subalgebra, semi, c, pivots=pivots,
                        tol=tol)
        coeffs = None if splitting_coeffs is None else [splitting_coeffs]
        primary = _stage("primary", primary_decompose, semi, c, cartan.cartan,
                         tol=tol, eig_tol=eig_tol, coeffs=coeffs)
        ideal_set = _stage("ideals", simple_decompose, semi, c, primary, tol)
        simple_bases = ideal_set.ideals
    n = basis.n
    mats = np.concatenate([b.mats for b in simple_bases] + [levi.radical.mats])
    mats.flags.writeable = False
    try:
        adapted = LieBasis(n, mats)
    except ValueError as err:
        raise StageFailure("assembly", DecompositionError(
            f"components are not mutually orthogonal: {err}")) from err
    if adapted.dim != basis.dim:
        raise StageFailure("assembly", NotInSpanError(
            "adapted basis does not span the full algebra"))
    # The components, and the ideals and Levi parts reported with them,
    # are slices of the adapted basis, so the analysis holds their
    # matrices once: the semisimple part is reported in the ideals' basis.
    ends = np.cumsum([b.dim for b in simple_bases])
    ideals = tuple(LieBasis(n, mats[end - b.dim : end])
                   for end, b in zip(ends, simple_bases))
    s = semi.dim
    levi = replace(levi, semisimple=LieBasis(n, mats[:s]),
                   radical=LieBasis(n, mats[s:]), radical_lines=tuple(
                       LieBasis(n, mats[i : i + 1]) for i in range(s, len(mats))))
    if ideal_set is not None:
        ideal_set = replace(ideal_set, ideals=ideals)
    components = tuple([(KIND_SIMPLE, b) for b in ideals]
                       + [(KIND_RADICAL, b) for b in levi.radical_lines])
    decomposition = ComponentDecomposition(full=basis, components=components,
                                           adapted=adapted)
    return SystemAnalysis(system=system, closure=closure, verdict=verdict,
                          levi=levi, cartan=cartan, primary=primary,
                          ideals=ideal_set, decomposition=decomposition)


def _terms(system):
    """The generator's terms -i H0, -i H1, ... as one stack.

    H(u) is affine in u, so the generator of the control row [1, u] is
    that row times them.
    """
    return -1j * np.array((system.drift,) + system.controls)


def _control_rows(system, schedule):
    """Rows [1, u] of the schedule's segments, one value per control."""
    m = system.n_controls
    us = schedule.controls
    if us is None or us.shape[1:] != (m,):
        for _, u in schedule.segments:
            if np.shape(u) != (m,):
                raise ValueError(f"expected {m} control values, "
                                 f"got shape {np.shape(u)}")
    rows = np.ones((len(schedule.segments), m + 1))
    rows[:, 1:] = us.reshape(len(rows), m)
    return rows


def _generator_coords(decomp, term_vecs, rows, tol):
    """Adapted coordinates of the generators of the control ``rows``.

    Raises NotInSpanError when some generator g leaves the algebra, i.e.
    its residual exceeds ``tol * max(1, ||g||_F)``.
    """
    gvecs = rows @ term_vecs
    coords, resid = span_coords(decomp.adapted, _unvec(gvecs, decomp.full.n))
    if np.any(resid > tol * np.maximum(1.0, np.linalg.norm(gvecs, axis=1))):
        raise NotInSpanError(
            "generator leaves the dynamical algebra; controls inconsistent "
            "with the decomposition")
    return coords


def _component_slices(decomp):
    """Column range of each component in the adapted coordinates."""
    slices, end = [], 0
    for _, basis in decomp.components:
        slices.append(slice(end, end + basis.dim))
        end += basis.dim
    return slices


def _ordered_product(stack):
    """stack[-1] @ ... @ stack[0], by pairwise halving."""
    while len(stack) > 1:
        odd = len(stack) % 2
        halved = stack[1::2] @ stack[0 : len(stack) - odd : 2]
        stack = np.concatenate([halved, stack[-1:]]) if odd else halved
    return stack[0]


def _block_operator(frame, sizes, owners, width):
    """The map from a chunk's inputs to the diagonal blocks it exponentiates.

    ``owners`` lists (input columns, matrices): the owner's generator is
    the input row on those columns times its matrices.  Every block an
    owner does not act on as zero (each of its matrices is there at most
    ``TOL_FRAME`` times its own norm) is one (size, owner, start) pair.
    Returns the pairs ordered by size, and a (``width``, sum 2 size^2)
    real matrix whose columns give each pair's block, vectorized.
    """
    starts = [0, *itertools.accumulate(sizes[:-1])]
    first = [0, *itertools.accumulate(len(mats) for _, mats in owners)]
    rotated = frame.conj().T @ np.concatenate([m for _, m in owners]) @ frame
    sq = np.abs(rotated) ** 2
    on_block = np.add.reduceat(np.add.reduceat(sq, starts, axis=1), starts,
                               axis=2).diagonal(axis1=1, axis2=2)
    acting = np.logical_or.reduceat(
        on_block > TOL_FRAME ** 2 * sq.sum(axis=(1, 2))[:, None], first[:-1],
        axis=0)
    pairs = sorted((sizes[b], o, starts[b]) for o, b in zip(*np.nonzero(acting)))
    op = np.zeros((width, sum(size * size for size, _, _ in pairs)),
                  dtype=complex)
    at = 0
    for size, o, s in pairs:
        op[owners[o][0], at : at + size * size] = rotated[
            first[o] : first[o + 1], s : s + size, s : s + size].reshape(
                -1, size * size)
        at += size * size
    # Interleaved real and imaginary parts, the layout of _vec.
    return pairs, op.view(float)


def propagate(decomp, system, schedule, tol=TOL_RANK):
    """Propagate the system as a commuting product of component factors.

    Every segment contributes exact exponentials exp(dur * piece) per
    component (later segments multiply from the left) and the same for
    the unfactored generator.  Factors are reported in component order;
    the factorization error compares the total against the product taken
    radical lines first, then simple ideals.

    The exponentials are taken in the frame of ``invariant_frame``, where
    the drift and every control term, and with them the whole algebra,
    are block diagonal: each generator and each ideal's piece is a
    stack of diagonal blocks, and an ideal skips the blocks it acts on as
    zero.  Factors are rotated back to n x n once, at the end.

    Cost model: one frame per call, an ``eigh`` of one n x n combination
    of the terms and, only where its spectrum repeats, a solve for a
    commutant element over the repeated clusters.  The frame is skipped
    (the identity, one block) where it cannot pay: for n <= 2, which the
    closed form covers, and for an algebra of dimension n^2 - 1 or more,
    which is su(n) or u(n) and so splits nothing.  Segments then run in
    chunks of ``CHUNK``.  Per chunk, one matmul gives every segment's
    generator and one projection their coordinates (the membership
    check), one matmul maps [1, u | coordinates] to every diagonal block
    of the reference total and of each simple ideal, and the blocks of
    each size take one stacked ``expm_skew`` and a pairwise product: one
    batched ``eigh`` for sizes of 3 and more, elementwise array
    operations in closed form for sizes 1 and 2.  A radical line commutes
    with everything, so its coordinate is summed over the whole schedule
    and exponentiated once: one ``expm_skew`` for all lines in total.
    """
    n = system.dim
    comps = decomp.components
    k = len(comps)
    cols = _component_slices(decomp)
    simple = [c for c, (kind, _) in enumerate(comps) if kind == KIND_SIMPLE]
    lines = [c for c, (kind, _) in enumerate(comps) if kind == KIND_RADICAL]
    line_cols = [cols[c].start for c in lines]
    terms = _terms(system)
    term_vecs = _vec(terms)
    durs = schedule.durations
    rows = _control_rows(system, schedule)
    # A chunk's inputs are [1, u | adapted coordinates]: the reference
    # total takes the generator from the terms, each ideal its piece from
    # its own coordinates.
    width = len(terms) + decomp.adapted.dim
    owners = [(slice(0, len(terms)), terms)] + [
        (slice(len(terms) + cols[c].start, len(terms) + cols[c].stop),
         comps[c][1].mats) for c in simple]
    if n <= 2 or decomp.full.dim >= n * n - 1:
        frame, sizes = np.eye(n), (n,)
    else:
        frame, sizes = invariant_frame(terms)
    pairs, to_blocks = _block_operator(frame, sizes, owners, width)
    groups = [(size, sum(1 for p in pairs if p[0] == size))
              for size in sorted({p[0] for p in pairs})]
    running = [None] * len(groups)
    angles = np.zeros(len(lines))
    for start in range(0, len(durs), CHUNK):
        chunk = slice(start, start + CHUNK)
        coords = _generator_coords(decomp, term_vecs, rows[chunk], tol)
        blocks = np.concatenate([rows[chunk], coords], axis=1) @ to_blocks
        at = 0
        for g, (size, count) in enumerate(groups):
            stack = _unvec(blocks[:, at : at + count * 2 * size * size]
                           .reshape(-1, count, 2 * size * size), size)
            step = _ordered_product(expm_skew(stack, durs[chunk, None]))
            running[g] = step if start == 0 else step @ running[g]
            at += count * 2 * size * size
        angles += durs[chunk] @ coords[:, line_cols]
    eye = np.eye(n, dtype=complex)
    factors = [eye.copy() for _ in comps]
    total = eye
    # Skipped for an empty schedule, whose factors stay exact identities.
    if len(durs):
        diagonal = eye[None].repeat(len(owners), axis=0)
        blocks = (block for stack in running for block in stack)
        for (size, o, s), block in zip(pairs, blocks):
            diagonal[o, s : s + size, s : s + size] = block
        back = frame @ diagonal @ frame.conj().T
        total = back[0]
        for c, f in zip(simple, back[1:]):
            factors[c] = f
        if lines:
            line_mats = np.stack([comps[c][1].mats[0] for c in lines])
            for c, f in zip(lines, expm_skew(line_mats, angles)):
                factors[c] = f
    ordered = [f for (kind, _), f in zip(comps, factors)
               if kind == KIND_RADICAL]
    ordered += [f for (kind, _), f in zip(comps, factors)
                if kind == KIND_SIMPLE]
    product = eye
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

    Every residual but one is read from the stage that measured it (Levi,
    Cartan, splitting element, primary and ideals); only
    ``adapted_reconstruction`` is computed here.
    """
    levi = analysis.levi
    res = {"radical_commutes_with_algebra": levi.commutation_residual,
           "radical_abelian": levi.abelian_residual}
    if analysis.cartan is not None:
        res["cartan_abelian"] = analysis.cartan.abelian_residual
    if analysis.primary is not None:
        res["component_invariance"] = analysis.primary.invariance_residual
        res["splitting_real_parts"] = analysis.primary.splitting.real_part
    if analysis.ideals is not None:
        res["ideals_commute"] = analysis.ideals.commutation_residual
    basis = analysis.closure.basis
    adapted = analysis.decomposition.adapted
    coords, _ = span_coords(adapted, basis.mats)
    res["adapted_reconstruction"] = float(np.linalg.norm(
        from_coords(adapted, coords) - basis.mats, axis=(1, 2)).max(initial=0.0))
    return res


def su2_flags(analysis, tol=TOL_RANK):
    """recognize_su2 verdict per simple component of the decomposition."""
    return [kind == KIND_SIMPLE and recognize_su2(basis, tol) is not None
            for kind, basis in analysis.decomposition.components]
