"""End-to-end decomposition pipeline and decoupled propagation.

Once the dynamical Lie algebra is split into commuting pieces (simple
ideals plus one-dimensional radical lines), the generator of any control
value projects onto the pieces, and the full propagator factors into a
commuting product of per-piece propagators.  For piecewise-constant
schedules each factor is an exact product of matrix exponentials, so the
factorization error stays at numerical noise.

H(u) is affine in u, so propagation is one linear map of the control row
[1, u].  The drift and control terms are projected onto the adapted
basis once per call; the reference total and every piece then own the
terms, or the terms' parts on that piece, and a row combines them into
the owner's generator.  Membership is checked the same way: a segment's
part outside the algebra is its row times the terms' parts outside it.
The exponentials run in the frame of the invariant subspaces of every
owner's matrices (``linalg.invariant_frame``), where everything is block
diagonal, and one real matrix maps a row to every diagonal block of
every owner.  A chunk of segments costs one matmul and, per block size,
one stacked exponential (a closed form for sizes 1 and 2, else a series
in real matrix products or an eigendecomposition) and one pairwise
product, on the real form [[Re, -Im], [Im, Re]] of each block; a radical
line commutes with everything, so its blocks are exponentiated once,
from the duration-weighted sum of the rows.
Two blocks of one owner that carry the same representation, or complex-
conjugate ones, are related by a fixed unitary Q (the 4 and 4-bar of
su(4) in an Ising chain of four spins, say), and only the first is
exponentiated: the other's product is Q U Q^H, or Q conj(U) Q^H, from
the first's product U.  For a real Hamiltonian (NMR and Ising-type
models) all of this runs in real arithmetic, with an orthogonal frame and
the exponential of a block h from real products for cos(t h) and sin(t h).
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
    _intertwiner,
    _real_form,
    _unvec,
    _vec,
    from_coords,
    invariant_frame,
    skew_hermitian,
    span_coords,
)
from .primary import PrimaryResult, primary_decompose

KIND_SIMPLE = "simple"
KIND_RADICAL = "radical-line"

# Segments per stacked exponential in ``propagate``.  A chunk holds
# (CHUNK, count, z, z) stacks per block size z.  On the three 10^4-segment
# benchmark schedules (2-core VM, one BLAS thread) 128 ran about 7% faster
# than 64 and 256 another 3%, for twice the memory again.
CHUNK = 128


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


def _ordered_product(stack):
    """stack[-1] @ ... @ stack[0], by pairwise halving."""
    while len(stack) > 1:
        odd = len(stack) % 2
        halved = stack[1::2] @ stack[0 : len(stack) - odd : 2]
        stack = np.concatenate([halved, stack[-1:]]) if odd else halved
    return stack[0]


def _equivalent_blocks(rotated, sizes, starts, acting, sq_norms):
    """Per owner, the blocks a fixed unitary maps from an earlier block.

    ``rotated``, ``sizes`` and ``starts`` are as in :func:`_block_operator`
    and ``acting`` marks the (owner, block) pairs the owner acts on;
    ``sq_norms`` holds the squared Frobenius norm of each (owner, matrix).
    Two blocks of one owner, of equal size 2 or more, are candidates when
    one fixed generic combination of the owner's matrices has equal
    spectra on them, or opposite ones for complex-conjugate blocks, to
    ``TOL_EIG`` times the largest eigenvalue.  A block is paired with the
    first candidate before it that has no candidate before it itself,
    and the pair is kept only when ``linalg._intertwiner`` finds a
    unitary Q with B_k = Q A_k Q^H, or Q conj(A_k) Q^H, for every matrix
    k of the owner, to ``TOL_FRAME`` times that matrix's norm.  Returns
    {(o, b): (r, Q, conj)} for block b of owner o transported from its
    block r.
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
        lam, vecs = np.linalg.eigh(1j * np.einsum(
            "k,pkij->pij", _generic(mats.shape[1]), mats))
        tol = TOL_EIG * max(1.0, np.abs(lam).max())
        direct = np.abs(lam[:, None] - lam).max(axis=-1) <= tol
        conj = np.abs(lam[:, None] + lam[:, ::-1]).max(axis=-1) <= tol
        match = np.tril(direct | conj, -1) & (owner[:, None] == owner)
        first = match.argmax(axis=1)
        later = np.flatnonzero(match.any(axis=1))
        later = later[~match[first[later]].any(axis=1)]
        if not len(later):
            continue
        reps = first[later]
        flip = ~direct[later, reps]
        a = np.where(flip[:, None, None, None], mats[reps].conj(), mats[reps])
        va = np.where(flip[:, None, None], vecs[reps].conj()[..., ::-1],
                      vecs[reps])
        q, ok = _intertwiner(a, mats[later], va, vecs[later],
                             TOL_FRAME * np.sqrt(sq_norms[owner[later]]))
        for j, r, qj, cj in zip(later[ok], reps[ok], q[ok], flip[ok]):
            found[int(owner[j]), int(blocks[j])] = (int(blocks[r]), qj,
                                                    bool(cj))
    return found


def _block_operator(rotated, sizes, once, real):
    """The map from a control row to the diagonal blocks of every owner.

    ``rotated`` is a (k, m + 1, n, n) stack in the frame of blocks
    ``sizes``: owner o's generator for the row [1, u] is the row times
    rotated[o].  Every block an owner does not act on as zero (each of
    its matrices is there at most ``TOL_FRAME`` times its own norm) and
    does not transport from an earlier block (:func:`_equivalent_blocks`)
    is one slot (once[o], size, flat, o, start).  A ``flat`` slot, of
    size 3 or more when the matrices are ``real`` (i times real
    symmetric), is vectorized as h = i * block, the others as
    _vec(block).  Returns the slots sorted, so those of the owners
    ``once`` marks come last and each part runs by ascending size, a real
    matrix of m + 1 rows whose columns give each slot's block,
    vectorized, in that order, and the transported blocks as
    (o, start, start of the block it comes from, Q, conj).
    """
    starts = [0, *itertools.accumulate(sizes[:-1])]
    sq = rotated.real ** 2 + rotated.imag ** 2
    on_block = np.add.reduceat(np.add.reduceat(sq, starts, axis=-1), starts,
                               axis=-2).diagonal(axis1=-2, axis2=-1)
    sq_norms = sq.sum(axis=(-2, -1))
    acting = (on_block > TOL_FRAME ** 2 * sq_norms[..., None]).any(axis=1)
    copies = _equivalent_blocks(rotated, sizes, starts, acting, sq_norms)
    slots = sorted((once[o], sizes[b], real and sizes[b] >= 3, o, starts[b])
                   for o, b in zip(*np.nonzero(acting))
                   if (o, b) not in copies)
    columns = []
    for _, z, flat, o, s in slots:
        block = rotated[o, :, s : s + z, s : s + z]
        columns.append(-block.imag.reshape(-1, z * z) if flat
                       else _vec(block))
    return slots, np.concatenate(
        [np.zeros((rotated.shape[1], 0))] + columns, axis=1), [
        (o, starts[b], starts[r], q, conj)
        for (o, b), (r, q, conj) in copies.items()]


def _exponentials(blocks, slots, t):
    """Per run of ``slots`` of equal size and layout, the stacked products
    over the rows of ``blocks`` of exp(t[row] * block), later rows on the
    left, each in the real form of ``linalg._real_form``.  Row i of
    ``blocks`` holds one vectorized block per slot, in the layout of
    :func:`_block_operator`."""
    out, at = [], 0
    for (size, flat), run in itertools.groupby(s[1:3] for s in slots):
        count = len(list(run))
        width = size * size if flat else 2 * size * size
        part = blocks[:, at : at + count * width].reshape(-1, count, width)
        if flat:
            # exp(-i t h) = C - i S, whose real form is [[C, S], [-S, C]].
            cosine, sine = _cos_sin(t[:, None, None, None]
                                    * part.reshape(-1, count, size, size))
            form = _real_form(cosine, -sine)
        else:
            e = _expm_skew(_unvec(part, size), t[:, None])
            form = _real_form(e.real, e.imag)
        out.append(_ordered_product(form))
        at += count * width
    return out


def propagate(decomp, system, schedule, tol=TOL_RANK):
    """Propagate the system as a commuting product of component factors.

    Every segment contributes exact exponentials exp(dur * piece) per
    component (later segments multiply from the left) and the same for
    the unfactored generator.  Factors are reported in component order;
    the factorization error compares the total against the product taken
    radical lines first, then simple ideals.

    H(u) is affine in u, so propagation is one linear map of the control
    rows [1, u]: the terms are projected onto the adapted basis once, and
    the reference total, each simple ideal and each radical line owns an
    (m + 1)-stack of matrices, the terms or their pieces on it, that a
    row combines into the owner's generator.  Before any exponential,
    each segment's part outside the algebra, its row times the terms'
    parts outside it, is checked against ``tol * max(1, ||g||_F)`` for its
    generator g, else NotInSpanError.

    The exponentials are taken in the frame of ``invariant_frame`` of
    every owner's matrices, the terms and their pieces (which split more
    coarsely than the terms for a decomposition of a larger algebra than
    they generate).  The frame costs an ``eigh`` of one n x n generic
    combination and, only where its spectrum repeats, a solve for a
    commutant element over the repeated clusters; it is skipped (one
    block, nothing rotated in or back) for n <= 2, which the closed form
    covers, and for an algebra of dimension n^2 - 1 or more, which is
    su(n) or u(n) and so splits nothing.  A piece whose norm is at most
    ``TOL_FRAME`` times its term's is set to exactly zero first, so that
    round-off, which a change of basis moves, cannot steer the frame and
    the order of its blocks.  When every owner's matrix is i times a real
    symmetric one to ``TOL_FRAME`` of its norm (a real Hamiltonian),
    decided once per call, the real parts are zeroed and the frame is
    orthogonal.  The rotated matrices are checked and projected to
    exactly skew-Hermitian once, by ``skew_hermitian``.  One real matrix
    maps a row to every diagonal block of every owner, an owner skipping
    the blocks it acts on as zero and the blocks it transports.  Block B
    of an owner is transported from an earlier block A of that owner when
    a fixed unitary Q gives B_k = Q A_k Q^H for every matrix k of the
    owner, or B_k = Q conj(A_k) Q^H where B carries the complex-conjugate
    representation (:func:`_equivalent_blocks`, which accepts Q only
    after checking it).  Conjugation by Q and complex conjugation are
    homomorphisms, so B's product is Q U Q^H, or Q conj(U) Q^H, from A's
    product U, set once at the end.  No block is shared between owners:
    the reference total is exponentiated from the terms alone.  Segments
    run in chunks of ``CHUNK``: one matmul gives the chunk's blocks of the
    total and of each simple ideal, and the blocks of each size take one
    stacked exponential (the closed form for sizes 1 and 2; on the real
    path ``linalg._cos_sin``, real matrix products up to an angle of 16,
    a real ``eigh`` beyond; else a batched complex ``eigh``) and a
    pairwise product.  Every product is held in the real 2z x 2z form
    [[Re, -Im], [Im, Re]] of its z x z block (``linalg._real_form``), a
    homomorphism under which each product is one real matmul.  A radical
    line commutes with everything, so its blocks come from the
    duration-weighted sum of the rows and are exponentiated once, through
    the same code.  The blocks return to complex once, and the factors
    are rotated back to n x n once, at the end.
    """
    n = system.dim
    comps = decomp.components
    adapted = decomp.adapted
    terms = _terms(system)
    rows = _control_rows(system, schedule)
    durs = schedule.durations
    coords, outside = span_coords(adapted, terms)
    # A row's part outside the algebra is the row times the terms' parts
    # outside it, so its norm is at most |row| @ outside.  Where that bound
    # exceeds tol, outside^T = q r makes the part's norm that of the row
    # times r^T, and the generator's norm adds the row's coordinates.
    loose = rows[np.abs(rows) @ outside > tol]
    if len(loose):
        r = np.linalg.qr((_vec(terms) - coords @ adapted.vecs).T, mode="r")
        sq = (loose @ np.concatenate([coords, r.T], axis=1)) ** 2
        if np.any(sq[:, adapted.dim :].sum(axis=1)
                  > tol * tol * np.maximum(1.0, sq.sum(axis=1))):
            raise NotInSpanError(
                "generator leaves the dynamical algebra; controls "
                "inconsistent with the decomposition")
    # Owner 0 is the reference total, owner 1 + c the c-th component.
    ends = itertools.accumulate(b.dim for _, b in comps)
    vecs = np.stack([_vec(terms)] + [
        coords[:, end - b.dim : end] @ b.vecs
        for end, (_, b) in zip(ends, comps)])
    # A piece at round-off of its term's norm is exactly zero, so that
    # round-off cannot steer the frame.
    sq = vecs ** 2
    norms = sq.sum(axis=-1)
    zero = norms <= TOL_FRAME ** 2 * norms[0]
    vecs[zero] = sq[zero] = 0.0
    owners = _unvec(vecs, n)
    once = [False] + [kind == KIND_RADICAL for kind, _ in comps]
    # Real arithmetic when every matrix's real part is round-off.
    real = bool((sq[..., ::2].sum(axis=-1) <= TOL_FRAME ** 2 * norms).all())
    if real:
        owners = 1j * owners.imag
    if n <= 2 or decomp.full.dim >= n * n - 1:
        frame, sizes = None, (n,)
        rotated = skew_hermitian(owners)
    else:
        frame, sizes = invariant_frame(owners.reshape(-1, n, n))
        rotated = skew_hermitian(frame.conj().T @ owners @ frame)
    slots, to_blocks, copies = _block_operator(rotated, sizes, once, real)
    per_segment = [slot for slot in slots if not slot[0]]
    cut = sum(z * z if flat else 2 * z * z for _, z, flat, _, _ in per_segment)
    ops, line_op = to_blocks[:, :cut], to_blocks[:, cut:]
    running = []
    for start in range(0, len(durs), CHUNK):
        chunk = slice(start, start + CHUNK)
        steps = _exponentials(rows[chunk] @ ops, per_segment, durs[chunk])
        running = ([step @ prev for step, prev in zip(steps, running)]
                   if start else steps)
    back = np.eye(n, dtype=complex)[None].repeat(len(owners), axis=0)
    # Skipped for an empty schedule, whose factors stay exact identities.
    if len(durs):
        lines = _exponentials((durs @ rows)[None] @ line_op,
                              slots[len(per_segment) :], np.ones(1))
        blocks = (block for stack in running + lines
                  for block in _complex_form(stack))
        for (_, z, _, o, s), block in zip(slots, blocks):
            back[o, s : s + z, s : s + z] = block
        for o, s, r, q, conj in copies:
            z = len(q)
            u = back[o, r : r + z, r : r + z]
            back[o, s : s + z, s : s + z] = (
                q @ (u.conj() if conj else u) @ q.conj().T)
        if frame is not None:
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
