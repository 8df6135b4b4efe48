"""End-to-end decomposition pipeline and decoupled propagation.

Once the dynamical Lie algebra is split into commuting pieces (simple
ideals plus one-dimensional radical lines), the generator of any control
value projects onto the pieces, and the full propagator factors into a
commuting product of per-piece propagators.  For piecewise-constant
schedules each factor is an exact product of matrix exponentials, so the
factorization error stays at numerical noise.

An analysis holds one matrix stack, the closure basis; every later basis
is orthonormal coordinate rows over it.  :func:`propagate` exponentiates
the diagonal blocks of the total and of each piece in one frame of
invariant subspaces, in real arithmetic for a real Hamiltonian (NMR and
Ising-type models), in one workspace per call.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import restrict
from .cartan import CartanResult, cartan_subalgebra
from .closure import ClosureResult, generate_closure, is_controllable
from .errors import (
    DecompositionError,
    LieAlgebraError,
    NotInSpanError,
    StageFailure,
)
from .ideals import IdealSet, simple_decompose
from .levi import LeviResult, levi_decompose
from .linalg import (
    LieBasis,
    TOL_EIG,
    TOL_RANK,
    TOL_FRAME,
    _complex_form,
    _cos_sin,
    _expm_skew,
    _generic,
    _generic_intertwiner,
    _sq_norms,
    _unvec,
    _vec,
    invariant_frame,
    skew_hermitian,
)
from .primary import PrimaryResult, primary_decompose

KIND_SIMPLE = "simple"
KIND_RADICAL = "radical-line"

# Bytes of one chunk's workspace in ``propagate``: a chunk's block
# coordinates and every temporary of its exponentials (:func:`_scratch`).
# The segments per chunk follow from the call's blocks: Ising-x k=4 (blocks
# 4, 4, 6, 6; 1,072 floats per segment) gets 128, two-spin (four 2 x 2
# blocks; 224 floats) 612, and larger blocks fewer, at least one.  On the
# three 10^4-segment benchmark schedules (2-core VM, one BLAS thread) half
# this budget ran a round 15% slower and twice it 8% faster, but twice it
# puts each of the three calls past 2.5 MB of traced memory (2.7-3.3 MB).
CHUNK_BYTES = 128 * 1072 * 8


@dataclass(frozen=True)
class ComponentDecomposition:
    """The algebra as an ordered orthogonal sum of commuting pieces.

    ``components`` holds (kind, basis) pairs, simple ideals first and
    radical lines last; ``adapted`` is the concatenated basis of the
    whole algebra in that order, each a basis of rows over ``full``.
    ``reconstruction`` is the largest row norm of A^T A - I, A its rows.
    """

    full: LieBasis
    components: tuple
    adapted: LieBasis
    reconstruction: float


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control schedule: (duration, u) segments.

    Durations must be positive and finite, control values finite, and
    every control vector of one length.  The segments are kept as given;
    ``durations`` holds the durations as one read-only array, ``controls``
    the control vectors stacked, one row per segment, and ``total_time``
    the durations' sum, taken left to right.
    """

    segments: tuple
    durations: np.ndarray = field(init=False, repr=False, compare=False)
    controls: np.ndarray = field(init=False, repr=False, compare=False)
    total_time: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segs = tuple(self.segments)
        durs = np.array([dur for dur, _ in segs], dtype=float)
        bad = ~((durs > 0.0) & (durs < math.inf))
        if bad.any():
            raise ValueError("segment durations must be positive and finite, "
                             f"got {durs[bad.argmax()]}")
        try:
            us = np.array([u for _, u in segs], dtype=float)
        except ValueError as err:  # ragged, or not numbers
            raise ValueError("control vectors must be numbers, all of one "
                             "length") from err
        if not np.isfinite(us).all():
            raise ValueError("control values must be finite")
        durs.flags.writeable = us.flags.writeable = False
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "durations", durs)
        object.__setattr__(self, "controls", us)
        # A sequential sum, so its bits do not depend on the Python version.
        object.__setattr__(self, "total_time", float(
            np.add.accumulate(durs)[-1] if len(durs) else 0.0))


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

    The closure basis's structure constants come from the closure's last
    pass, with the one bracket-closure check, and are not kept: the later
    stages are linear algebra on them, the semisimple stages on their
    restriction to the semisimple part.  ``pivots`` and
    ``splitting_coeffs`` thread through to the Cartan and splitting
    searches so a specific construction can be reproduced.  Numerical
    failures surface as StageFailure naming the stage.
    """
    gens = [1j * system.drift] + [1j * h for h in system.controls]
    closure, c = _stage("closure", generate_closure, gens, tol)
    verdict = is_controllable(closure)
    basis = closure.basis
    levi = _stage("levi", levi_decompose, basis, c, tol)
    cartan = primary = ideal_set = None
    simple_bases = ()
    semi = levi.semisimple
    if semi.dim > 0:
        # From here on c holds the constants of the semisimple part.
        c = restrict(c, semi.rows)
        cartan = _stage("cartan", cartan_subalgebra, semi, c, pivots=pivots,
                        tol=tol)
        coeffs = None if splitting_coeffs is None else [splitting_coeffs]
        primary = _stage("primary", primary_decompose, semi, c, cartan.cartan,
                         tol=tol, eig_tol=eig_tol, coeffs=coeffs)
        ideal_set = _stage("ideals", simple_decompose, semi, c, primary, tol)
        simple_bases = ideal_set.ideals
    # The adapted rows A over the closure basis: ideals, which cover the
    # semisimple part, then radical lines, its complement.  A is square, so
    # A^T A - I measures its orthonormality and each element's rebuild.
    rows = np.concatenate([_stage("assembly", basis.coords, b, tol)
                           for b in simple_bases] + [levi.radical.rows])
    defect = rows.T @ rows - np.eye(basis.dim)
    worst = np.abs(defect).max(initial=0.0)
    if worst > 1e-9:
        raise StageFailure("assembly", DecompositionError(
            f"components are not an orthonormal basis of the algebra, "
            f"defect {worst:.3e}"))
    # The components, ideals and Levi parts all share the adapted rows: the
    # semisimple part is reported in the ideals' basis.
    adapted = basis.span(rows)
    semi, radical = adapted.parts([semi.dim, len(rows) - semi.dim])
    ideals = semi.parts([b.dim for b in simple_bases])
    lines = radical.parts([1] * radical.dim)
    levi = replace(levi, semisimple=semi, radical=radical, radical_lines=lines)
    if ideal_set is not None:
        ideal_set = replace(ideal_set, ideals=ideals)
    components = tuple([(KIND_SIMPLE, b) for b in ideals]
                       + [(KIND_RADICAL, b) for b in lines])
    decomposition = ComponentDecomposition(
        full=basis, components=components, adapted=adapted,
        reconstruction=float(np.linalg.norm(defect, axis=1).max(initial=0.0)))
    return SystemAnalysis(system=system, closure=closure, verdict=verdict,
                          levi=levi, cartan=cartan, primary=primary,
                          ideals=ideal_set, decomposition=decomposition)


def _control_rows(system, schedule):
    """Rows [1, u] of the schedule's segments, one value per control."""
    m = system.n_controls
    us = schedule.controls
    if len(us) and us.shape[1:] != (m,):
        raise ValueError(f"expected {m} control values, "
                         f"got shape {us.shape[1:]}")
    rows = np.ones((len(us), m + 1))
    rows[:, 1:] = us.reshape(len(rows), m)
    return rows


def _ordered_product(stack, spare):
    """stack[-1] @ ... @ stack[0], by pairwise halving into the flat array
    ``spare``, at least as large as the stack, and back into ``stack`` in
    turn; the product is a view of one of them."""
    buffers = itertools.cycle((spare[: stack.size].reshape(stack.shape),
                               stack))
    while len(stack) > 1:
        half = len(stack) // 2
        dest = next(buffers)[: len(stack) - half]
        np.matmul(stack[1::2], stack[0 : 2 * half : 2], out=dest[:half])
        dest[half:] = stack[2 * half :]
        stack = dest
    return stack[0]


def _equivalent_blocks(rotated, sizes, starts, acting, sq_norms):
    """Per owner, the blocks a fixed unitary maps from an earlier block.

    ``rotated``, ``sizes`` and ``starts`` are as in :func:`_block_operator`
    and ``acting`` marks the (owner, block) pairs the owner acts on;
    ``sq_norms`` holds the squared Frobenius norm of each (owner, matrix).
    Two blocks of one owner, of equal size 2 or more, are candidates when
    one fixed generic combination of the owner's matrices has equal
    spectra on them, or opposite ones for complex-conjugate blocks, to
    ``TOL_EIG`` times the largest eigenvalue.  A block B is paired with
    the first candidate A before it that has no candidate before it
    itself.  Q is the unitary polar factor of a generic X with
    B_k X = X A_k, or X conj(A_k), for every matrix k of the owner
    (``linalg._generic_intertwiner``), which intertwines whenever an
    invertible X does; the pair is kept only when Q is unitary to
    ``TOL_FRAME`` and B_k = Q A_k Q^H, or Q conj(A_k) Q^H, to
    ``TOL_FRAME`` times that matrix's norm.  Returns {(o, b): (r, Q,
    conj)} for block b of owner o transported from its block r.
    """
    found = {}
    for z in {z for z in sizes if z >= 2 and sizes.count(z) > 1}:
        same = np.array([size == z for size in sizes])
        owner, blocks = np.nonzero(acting[:, same])
        if len(set(owner.tolist())) == len(owner):
            continue
        blocks = np.flatnonzero(same)[blocks]
        mats = np.stack([rotated[o, :, starts[b] : starts[b] + z,
                                 starts[b] : starts[b] + z]
                         for o, b in zip(owner, blocks)])
        lam = np.linalg.eigvalsh(1j * np.einsum(
            "k,pkij->pij", _generic(mats.shape[1]), mats))
        tol = TOL_EIG * max(1.0, np.abs(lam).max())
        direct = np.abs(lam[:, None] - lam).max(axis=-1) <= tol
        conj = np.abs(lam[:, None] + lam[:, ::-1]).max(axis=-1) <= tol
        match = np.tril(direct | conj, -1) & (owner[:, None] == owner)
        first = match.argmax(axis=1)
        later = np.flatnonzero(match.any(axis=1))
        for j in later[~match[first[later]].any(axis=1)]:
            r = first[j]
            flip = not direct[j, r]
            a = mats[r].conj() if flip else mats[r]
            # Both Hermitian, so real together for a real Hamiltonian.
            h = 1j * np.stack([a, mats[j]])
            u, _, vh = np.linalg.svd(_generic_intertwiner(
                *(h if h.imag.any() else h.real), (0, z)))
            q = u @ vh
            resid = np.sqrt(_sq_norms(mats[j] - q @ a @ q.conj().T))
            if (np.abs(q.conj().T @ q - np.eye(z)).max() <= TOL_FRAME
                    and (resid <= TOL_FRAME
                         * np.sqrt(sq_norms[owner[j]])).all()):
                found[int(owner[j]), int(blocks[j])] = (int(blocks[r]), q,
                                                        flip)
    return found


def _block_operator(rotated, sizes, once):
    """The map from a control row to the diagonal blocks of every owner.

    ``rotated`` is a (k, m + 1, n, n) stack in the frame of blocks
    ``sizes``: owner o's generator for the row [1, u] is the row times
    rotated[o].  Every block an owner does not act on as zero (each of
    its matrices is there at most ``TOL_FRAME`` times its own norm) and
    does not transport from an earlier block (:func:`_equivalent_blocks`)
    is one slot (once, size, o, start), ``once`` for the owners ``once``
    marks and for 1 x 1 blocks, which commute.  Returns the slots sorted,
    so the ``once`` slots come last and each part runs by ascending size,
    a real matrix of m + 1 rows whose columns give each slot's block,
    vectorized by ``linalg._vec``, in that order, and the transported
    blocks as (o, start, start of the block it comes from, Q, conj).
    """
    starts = [0, *itertools.accumulate(sizes[:-1])]
    sq = rotated.real ** 2 + rotated.imag ** 2
    on_block = np.add.reduceat(np.add.reduceat(sq, starts, axis=-1), starts,
                               axis=-2).diagonal(axis1=-2, axis2=-1)
    sq_norms = sq.sum(axis=(-2, -1))
    acting = (on_block > TOL_FRAME ** 2 * sq_norms[..., None]).any(axis=1)
    copies = _equivalent_blocks(rotated, sizes, starts, acting, sq_norms)
    slots = sorted((once[o] or sizes[b] == 1, sizes[b], o, starts[b])
                   for o, b in zip(*np.nonzero(acting))
                   if (o, b) not in copies)
    return slots, np.concatenate(
        [np.zeros((rotated.shape[1], 0))]
        + [_vec(rotated[o, :, s : s + z, s : s + z]) for _, z, o, s in slots],
        axis=1), [(o, starts[b], starts[r], q, conj)
                  for (o, b), (r, q, conj) in copies.items()]


def _scratch(rows, slots):
    """Floats :func:`_exponentials` needs for ``rows`` rows of ``slots``: 12
    per block entry of a run, for its real forms 4, the cos/sin input 1
    and ``linalg._cos_sin``'s scratch 7, which the halving fits in too."""
    return max((12 * rows * len(list(run)) * z * z for z, run in
                itertools.groupby(s[1] for s in slots)), default=0)


def _exponentials(blocks, slots, t, work):
    """Per run of ``slots`` of equal size, the stacked products over the
    rows of ``blocks`` of exp(t[row] * block), later rows on the left, in
    the real form of ``linalg._complex_form``.  Row i of ``blocks`` holds
    one vectorized block per slot, as :func:`_block_operator` lays them
    out.  A run of size 3 or more whose real part is exactly zero takes
    ``linalg._cos_sin``, any other ``linalg._expm_skew``.  ``work`` holds
    :func:`_scratch` floats for the rows of ``blocks``; each run slices
    its views of it once, in order: the real forms, 4 floats per block
    entry, the cos/sin input, 1, and the kernels' and product's rest."""
    out, at, rows = [], 0, len(blocks)
    for size, run in itertools.groupby(s[1] for s in slots):
        width = len(list(run)) * 2 * size * size
        mats = blocks[:, at : at + width].view(complex).reshape(
            rows, -1, size, size)
        at += width
        entries = mats.size
        form = work[: 4 * entries].reshape(mats.shape[:2]
                                           + (2 * size, 2 * size))
        x, rest = work[4 * entries : 5 * entries], work[5 * entries :]
        if size >= 3 and not mats.real.any():
            # h = i * block = -block.imag is real symmetric, and
            # exp(-i t h) = C - i S has the real form [[C, S], [-S, C]].
            _cos_sin(np.multiply(-t[:, None, None, None], mats.imag,
                                 out=x.reshape(mats.shape)), form, rest)
        else:
            _expm_skew(mats, t[:, None], form)
        out.append(_ordered_product(form, rest).copy())
    return out


def propagate(decomp, system, schedule, tol=TOL_RANK):
    """Propagate the system as a commuting product of component factors.

    Every segment contributes exact exponentials exp(dur * piece) per
    component (later segments multiply from the left) and the same for
    the unfactored generator.  Factors are reported in component order;
    the factorization error compares the total against the product taken
    radical lines first, then simple ideals.

    H(u) is affine in u, so propagation is one linear map of the control
    rows [1, u].  The terms' coordinates in the adapted basis are
    (terms V^T) A^T, for the closure basis V (``decomp.full``) and the
    adapted rows A over it; their piece on component c is those on c
    times A_c, times V.  Each segment's part outside the algebra must be
    at most ``tol * max(1, ||g||_F)`` for its generator g, else
    NotInSpanError.  A ValueError names the first segment whose duration
    times |row| @ (the terms' norms) is not finite, or the rows'
    duration-weighted sum.

    The exponentials are taken in the frame of ``invariant_frame`` of
    every owner's matrices, once pieces at most ``TOL_FRAME`` times their
    term's norm are zero, so that round-off cannot steer the frame, and,
    for a real Hamiltonian, the real parts too, so that it is orthogonal.
    One real matrix maps a row to the diagonal blocks of every owner
    (:func:`_block_operator`) but the blocks it acts on as zero and those
    it transports: B_k = Q A_k Q^H, or Q conj(A_k) Q^H, for a checked
    unitary Q and every matrix k of the owner (:func:`_equivalent_blocks`)
    gives B's product from A's.  Segments run in chunks, each run of
    blocks of one size taking one stacked exponential and pairwise product
    (:func:`_exponentials`); radical lines and 1 x 1 blocks commute, so
    theirs are exponentiated once, from the duration-weighted sum of the
    rows.  One workspace per call holds a chunk's block coordinates and
    all temporaries of its exponentials: chunks allocate nothing of their
    size, so none faults in pages the allocator gave back.  A chunk holds
    as many segments as keep that workspace within ``CHUNK_BYTES``, at
    least one, so its length follows from the call's blocks: small blocks
    share each chunk's fixed numpy overhead among more segments, and
    large ones keep the working set bounded.  Blocks return to complex,
    and factors to n x n, at the end.
    """
    n = system.dim
    comps = decomp.components
    full = decomp.full
    basis = full.vecs
    terms = _vec(-1j * np.array((system.drift,) + system.controls))
    rows = _control_rows(system, schedule)
    durs = schedule.durations
    # t * ||g||_F for each segment's generator g is at most this bound.
    with np.errstate(over="ignore"):
        bound = durs * (np.abs(rows) @ np.linalg.norm(terms, axis=-1))
        weighted = durs @ rows
    if not np.isfinite(bound).all():
        raise ValueError(f"segment {np.argmin(np.isfinite(bound))}: its "
                         "duration times its generator's norm is not finite")
    if not np.isfinite(weighted).all():
        raise ValueError("the duration-weighted sum of the control rows is "
                         "not finite")
    adapted = full.coords(decomp.adapted)
    coords = (terms @ basis.T) @ adapted.T
    outside = terms - (coords @ adapted) @ basis
    # A row's part outside the algebra is the row times the terms' parts
    # outside it, so its norm is at most |row| @ their norms.  Where that
    # bound exceeds tol, outside^T = q r makes the part's norm that of the
    # row times r^T, and the generator's norm adds the row's coordinates.
    loose = rows[np.abs(rows) @ np.linalg.norm(outside, axis=-1) > tol]
    if len(loose):
        r = np.linalg.qr(outside.T, mode="r")
        sq = (loose @ np.concatenate([coords, r.T], axis=1)) ** 2
        if np.any(sq[:, len(adapted) :].sum(axis=1)
                  > tol * tol * np.maximum(1.0, sq.sum(axis=1))):
            raise NotInSpanError(
                "generator leaves the dynamical algebra; controls "
                "inconsistent with the decomposition")
    # Owner 0 is the reference total, owner 1 + c the c-th component.
    ends = itertools.accumulate(b.dim for _, b in comps)
    vecs = np.stack([terms] + [
        (coords[:, end - b.dim : end] @ full.coords(b)) @ basis
        for end, (_, b) in zip(ends, comps)])
    # A piece at round-off of its term's norm is exactly zero, so that
    # round-off cannot steer the frame.
    sq = vecs ** 2
    norms = sq.sum(axis=-1)
    zero = norms <= TOL_FRAME ** 2 * norms[0]
    vecs[zero] = sq[zero] = 0.0
    owners = _unvec(vecs, n)
    once = [False] + [kind == KIND_RADICAL for kind, _ in comps]
    # A real Hamiltonian: every matrix's real part is round-off.
    if (sq[..., ::2].sum(axis=-1) <= TOL_FRAME ** 2 * norms).all():
        owners = 1j * owners.imag
    frame, sizes = invariant_frame(owners.reshape(-1, n, n))
    rotated = skew_hermitian(frame.conj().T @ owners @ frame)
    slots, to_blocks, copies = _block_operator(rotated, sizes, once)
    per_segment = [slot for slot in slots if not slot[0]]
    cut = sum(2 * z * z for _, z, _, _ in per_segment)
    ops, line_op = to_blocks[:, :cut], to_blocks[:, cut:]
    summed = slots[len(per_segment) :]
    # As many segments per chunk as keep its workspace within CHUNK_BYTES,
    # at least one; a call with no per-segment block takes one chunk.
    row_bytes = 8 * (cut + _scratch(1, per_segment))
    chunk = max(1, min(len(durs), CHUNK_BYTES // max(row_bytes, 1)))
    space = np.empty(chunk * cut + max(_scratch(chunk, per_segment),
                                       _scratch(1, summed)))
    head = space[: chunk * cut].reshape(chunk, cut)
    work = space[chunk * cut :]
    running = []
    for start in range(0, len(durs), chunk):
        part = rows[start : start + chunk]
        coords = np.matmul(part, ops, out=head[: len(part)])
        steps = _exponentials(coords, per_segment,
                              durs[start : start + chunk], work)
        running = ([step @ prev for step, prev in zip(steps, running)]
                   if start else steps)
    back = np.eye(n, dtype=complex)[None].repeat(len(owners), axis=0)
    # Skipped for an empty schedule, whose factors stay exact identities.
    if len(durs):
        lines = _exponentials(weighted[None] @ line_op, summed, np.ones(1),
                              work)
        blocks = (block for stack in running + lines
                  for block in _complex_form(stack))
        for (_, z, o, s), block in zip(slots, blocks):
            back[o, s : s + z, s : s + z] = block
        for o, s, r, q, conj in copies:
            z = len(q)
            u = back[o, r : r + z, r : r + z]
            back[o, s : s + z, s : s + z] = (
                q @ (u.conj() if conj else u) @ q.conj().T)
        back = frame @ back @ frame.conj().T
    total, factors = back[0], tuple(back[1:])
    product = np.eye(n, dtype=complex)
    for kind in (KIND_RADICAL, KIND_SIMPLE):
        for (k, _), f in zip(comps, factors):
            if k == kind:
                product = product @ f
    fact_err = float(np.linalg.norm(total - product))
    worst_comm = max((float(np.linalg.norm(a @ b - b @ a))
                      for i, a in enumerate(factors) for b in factors[i + 1 :]),
                     default=0.0)
    return PropagationResult(total=total, factors=factors,
                             times=schedule.total_time,
                             factorization_error=fact_err,
                             commutation_residual=worst_comm)


def structure_residuals(analysis):
    """Numerical residuals behind each structural claim, for reporting.

    Every residual is read from the stage that measured it: Levi, Cartan,
    splitting element, primary, ideals and the assembly, whose
    reconstruction is ``adapted_reconstruction``.
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
    res["adapted_reconstruction"] = analysis.decomposition.reconstruction
    return res
