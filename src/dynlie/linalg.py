"""Real-linear kernel for skew-Hermitian matrix spaces.

Skew-Hermitian n x n matrices form a real vector space (u(n) when taken
all together), and the Hilbert-Schmidt pairing Re tr(A^H B) makes it
Euclidean.  Everything downstream -- closures, centralizers, nullspace
splits -- reduces to orthonormal bases of subspaces of that space, so
this module owns the basis bookkeeping: Gram-Schmidt extension with a
re-orthogonalization pass, the all-pairs bracket taken in row blocks of
bounded size, the span projection behind every membership test and
coordinate map, the exponential of a skew-Hermitian matrix, and the
unitary frame in which a set of matrices is block diagonal.

A matrix is vectorized as its row-major entries with the real and
imaginary part of each entry interleaved.  That is numpy's own memory
layout of a complex array, so vectorizing is a zero-copy view and a
LieBasis keeps a single array, its matrix stack or its coordinate rows.

Tolerance conventions: rank/membership decisions are relative at
``TOL_RANK``, skew-Hermiticity is enforced at ``TOL_HERM``, and both are
always scaled by max(1, norm) so tiny matrices are not over-trusted.
``TOL_EIG`` is the relative gap between the eigenvalue clusters of the
splitting test and the frame.  ``TOL_FRAME`` is the round-off level,
relative to each matrix's norm, below which an entry of a rotated matrix
counts as zero.  ``TOL_RESIDUAL`` is the absolute bound of :func:`_gate`,
the structure stages' one residual check.
"""

import functools
import itertools
import math

import numpy as np

from .errors import DecompositionError, NotInSpanError

TOL_HERM = 1e-10
TOL_RANK = 1e-8
TOL_EIG = 1e-6
TOL_FRAME = 1e-12
TOL_RESIDUAL = 1e-8
# Bytes of complex brackets that one block of :func:`bracket_blocks` holds.
BRACKET_BLOCK_BYTES = 256 * 1024


def hermitian_part(mat, tol=TOL_HERM, what="matrix", skew=False):
    """Validate ``mat`` as Hermitian and return its exact Hermitian part.

    Round-off up to ``tol * max(1, ||mat||_F)`` is forgiven and projected
    away via (M + M^H)/2, or (M - M^H)/2 with ``skew``; anything further
    off raises ValueError, as do non-square shapes, non-finite entries and
    an overflowing squared norm.  A stack (..., n, n) is tested matrix by
    matrix, each against its own norm; the error names the first to fail.
    """
    a = _hermitian_checked(mat, tol, what, skew)
    adj = a.conj().swapaxes(-1, -2)
    return (a - adj if skew else a + adj) / 2.0


def _hermitian_checked(mat, tol, what, skew):
    """``mat`` as a complex array, once it passes :func:`hermitian_part`'s
    test, which holds one temporary of its size (the defect M^H -+ M)."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    sq = _sq_norms(a)
    if not np.isfinite(sq).all():
        raise ValueError(f"{what} has non-finite entries" if not np.isfinite(
            a).all() else f"{what} is too large: its squared norm overflows")
    off = np.conjugate(a.swapaxes(-1, -2), order="C")
    off = (np.add if skew else np.subtract)(a, off, out=off)
    defect = np.sqrt(_sq_norms(off))
    over = defect > tol * np.maximum(1.0, np.sqrt(sq))
    if over.any():
        idx = np.unravel_index(np.argmax(over), over.shape)
        where = f"{what} {list(map(int, idx))}" if idx else what
        raise ValueError(f"{where} is not {'skew-' if skew else ''}Hermitian "
                         f"at tolerance {tol:g}: defect {defect[idx]:.3e}")
    return a


def _vec(mats):
    """Real vectorization of complex matrices, (..., n, n) -> (..., 2n^2).

    Entries run in row-major order with the real and imaginary part of
    each entry side by side, which is how numpy stores a complex array:
    for a C-contiguous complex128 input the result is a zero-copy view.
    Isometric for the Hilbert-Schmidt pairing: Re tr(A^H B) equals the
    ordinary dot product of the vectorizations.
    """
    m = np.ascontiguousarray(mats, dtype=complex)
    return m.view(float).reshape(m.shape[:-2] + (2 * m.shape[-2] * m.shape[-1],))


def _sq_norms(mats):
    """Squared Frobenius norm of each matrix of a complex stack (..., n, n),
    in one pass over its :func:`_vec` view."""
    v = _vec(mats)
    return np.einsum("...i,...i->...", v, v)


def _unvec(vecs, n):
    """Inverse of :func:`_vec` for vectors of length 2*n*n, again a view
    for a C-contiguous float64 input."""
    v = np.ascontiguousarray(vecs, dtype=float)
    return v.view(complex).reshape(v.shape[:-1] + (n, n))


def _complex_form(r):
    """The complex stack (..., n, n) that the real stack ``r`` (..., 2n, 2n)
    holds in the real form [[Re, -Im], [Im, Re]], a homomorphism."""
    n = r.shape[-1] // 2
    return r[..., :n, :n] + 1j * r[..., n:, :n]


class LieBasis:
    """Ordered, HS-orthonormal basis of a real subspace of u(n).

    Immutable.  A basis holds its d elements as a (d, n, n) complex
    ``stack`` (``rows`` is None), or as orthonormal real coordinate
    ``rows`` (d, D) over such a stack: every basis a stage derives from
    its input basis (:meth:`span`), so an analysis keeps one stack.
    ``mats`` stacks the elements and ``vecs`` holds their real
    vectorizations (see :func:`_vec`); a basis of rows computes both on
    access and keeps neither.  A read-only contiguous complex stack (say a
    slice of another basis) is wrapped as it is; any other input is
    copied.
    """

    __slots__ = ("n", "stack", "rows")

    def __init__(self, n, mats=None):
        n = int(n)
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        m = np.asarray(np.zeros((0, n, n)) if mats is None else mats,
                       dtype=complex)
        if m.flags.writeable or not m.flags.c_contiguous:
            m = np.array(m, order="C")
        if m.ndim != 3 or m.shape[1:] != (n, n):
            raise ValueError(
                f"expected a stack of {n}x{n} matrices, got shape {m.shape}")
        m.flags.writeable = False
        if len(m):
            v = _vec(m)
            if not np.abs(v @ v.T - np.eye(len(m))).max() <= 1e-9:  # NaN
                raise ValueError("basis elements are not orthonormal")
        for name, value in zip(self.__slots__, (n, m, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("LieBasis is immutable")

    def span(self, rows):
        """The basis of the elements ``rows`` @ self, held as rows over this
        basis's stack; ``rows`` must be orthonormal, which is not checked."""
        rows = np.asarray(rows, dtype=float)
        rows = rows.view() if self.rows is None else rows @ self.rows
        rows.flags.writeable = False
        return self._over(rows)

    def parts(self, sizes):
        """Consecutive pieces of a basis of rows with ``sizes`` elements
        each, sharing its rows."""
        ends = itertools.accumulate(sizes)
        return tuple(self._over(self.rows[end - z : end])
                     for end, z in zip(ends, sizes))

    def _over(self, rows):
        out = object.__new__(LieBasis)
        for name, value in zip(self.__slots__, (self.n, self.stack, rows)):
            object.__setattr__(out, name, value)
        return out

    def coords(self, other, tol=TOL_RANK):
        """Coordinate rows of the elements of ``other``, each projected onto
        this span (over one stack, as a product of rows); NotInSpanError
        when an element's part outside the span exceeds
        ``tol * max(1, norm)``."""
        if other.stack is not self.stack:
            v, w = _vec(other.mats), self.vecs
        else:
            v = np.eye(other.dim) if other.rows is None else other.rows
            if self.rows is None:
                return v
            w = self.rows
        coords = v @ w.T
        resid = np.linalg.norm(v - coords @ w, axis=-1)
        if np.any(resid > tol * np.maximum(1.0, np.linalg.norm(v, axis=-1))):
            raise NotInSpanError(f"basis is not inside the span (tol={tol:g})")
        return coords

    @property
    def mats(self):
        return self[:]

    @property
    def vecs(self):
        v = _vec(self.stack)
        return v if self.rows is None else self.rows @ v

    @property
    def dim(self):
        return len(self.stack if self.rows is None else self.rows)

    def __len__(self):
        return self.dim

    def __getitem__(self, i):
        if self.rows is None:
            return self.stack[i]
        return np.tensordot(self.rows[i], self.stack, axes=1)

    def __iter__(self):
        return iter(self.mats)

    def __repr__(self):
        return f"LieBasis(n={self.n}, dim={self.dim})"


def extend_basis(basis, candidates, tol=TOL_RANK):
    """Grow ``basis`` by the candidates that stick out of its span.

    ``candidates`` is a (k, n, n) stack or a list of n x n matrices (not a
    generator), checked as skew-Hermitian but used as given, and vectorized
    once; an empty one adds nothing.  Modified Gram-Schmidt with one
    re-orthogonalization pass.  A candidate is accepted when its residual
    exceeds ``tol * max(1, ||candidate||_F)``; dependent candidates are
    dropped silently and acceptance order follows candidate order.  An
    accepted residual R is replaced by its exact skew part (R - R^H)/2, so
    noise amplified in a small residual cannot leave u(n).  Returns a new
    basis, or the input itself when it holds its own stack and no
    candidate sticks out; the input is never mutated.
    """
    n = basis.n
    cands = np.asarray(candidates, dtype=complex)
    if not cands.size:
        cands = cands.reshape(0, n, n)
    elif cands.ndim != 3 or cands.shape[1:] != (n, n):
        raise ValueError(
            f"candidates of shape {cands.shape} do not match ambient {(n, n)}")
    _hermitian_checked(cands, TOL_HERM, "candidate", skew=True)
    rows = list(basis.vecs)
    for v in _vec(cands):
        scale = max(1.0, math.sqrt(v @ v))
        w = v.copy()
        for _ in range(2):
            for r in rows:
                w -= (r @ w) * r
        if math.sqrt(w @ w) > tol * scale:
            m = _unvec(w, n)
            m = (m - m.conj().T) / 2.0
            m /= np.linalg.norm(m)
            rows.append(_vec(m))
    if len(rows) == basis.dim and basis.rows is None:
        return basis
    if not rows:
        return LieBasis(n)
    # Read-only, so the basis wraps the new stack instead of copying it.
    stack = np.empty((len(rows), n, n), dtype=complex)
    np.stack(rows, out=_vec(stack))
    stack.flags.writeable = False
    return LieBasis(n, stack)


def bracket_blocks(a, b):
    """The brackets [a_i, b_j] of two stacks, one row block of ``a`` at a
    time: yields (start, block), the block holding [a_i, b_j] for i from
    ``start`` on, shape (rows, len(b), n, n).  A block holds as many rows
    as fit in ``BRACKET_BLOCK_BYTES``, at least one, so an all-pairs pass
    holds one block and never the d^2 n^2 tensor of all its brackets."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1]
    rows = max(1, BRACKET_BLOCK_BYTES // (16 * n * n * max(1, len(b))))
    for start in range(0, len(a), rows):
        block = a[start : start + rows, None]
        out = block @ b
        out -= b @ block
        yield start, out


def span_coords(basis, mats):
    """Coordinates of ``mats`` (..., n, n) in ``basis``, and the norms of
    their parts orthogonal to its span."""
    v = _vec(mats)
    coords = v @ basis.vecs.T
    return coords, np.linalg.norm(v - coords @ basis.vecs, axis=-1)


def _significant(values, tol):
    """Which of ``values`` (singular values or eigenvalues) count as
    nonzero: those above ``tol * max(largest, 1)``.  The one rank rule of
    the package; the floor of 1 keeps a tiny spectrum from being trusted
    to relative round-off.  An empty spectrum has nothing significant."""
    return values > tol * max(values.max(initial=0.0), 1.0)


def _gate(residual, failure):
    """``residual`` as a float, once it is within ``TOL_RESIDUAL``; above
    it, DecompositionError saying ``failure`` and the residual."""
    if residual > TOL_RESIDUAL:
        raise DecompositionError(f"{failure}, residual {residual:.3e}")
    return float(residual)


def _cluster_bounds(values, gap):
    """Bounds b of the clusters of an ascending spectrum, cluster j being
    ``values[b[j]:b[j + 1]]``: a new one starts where a value exceeds the
    last by more than ``gap``.  The package's one clustering rule."""
    breaks = np.flatnonzero(values[1:] - values[:-1] > gap) + 1
    return np.concatenate([[0], breaks, [len(values)]])


def nullspace(mat, tol=TOL_RANK):
    """Orthonormal rows spanning the nullspace of a real matrix.

    SVD based; singular values that are not :func:`_significant` at
    ``tol`` count as zero.  A matrix with no rows has everything in its
    nullspace.
    """
    m = np.atleast_2d(np.asarray(mat, dtype=float))
    cols = m.shape[1]
    if m.shape[0] == 0 or cols == 0:
        return np.eye(cols)
    # Full V is needed only for wide matrices; the full U of a tall one
    # (center's d^2 x d system) would be d^2 x d^2.
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < cols)
    svals = np.zeros(cols)
    svals[: s.size] = s
    return vh[~_significant(svals, tol)]


def _expm_skew(a, t, out):
    """exp(t*a) for an exactly skew-Hermitian stack ``a``, unchecked, in
    the real form (see :func:`_complex_form`) written into ``out``."""
    n = a.shape[-1]
    if n == 2:
        return _expm_skew2(a, t, out)
    if n == 1:
        e = np.exp(t[..., None, None] * a)
    else:
        w, v = np.linalg.eigh(1j * a)
        phases = np.exp(-1j * t[..., None] * w)
        e = (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    out[...] = np.block([[e.real, -e.imag], [e.imag, e.real]])


# Largest angle |t| * ||h||_inf that :func:`_cos_sin` takes through the
# series.  Each squaring doubles the error it inherits; at angles near 1e3
# ten squarings lose unitarity to a few 1e-13, so larger angles keep the
# eigendecomposition.
_SERIES_ANGLE = 16.0
# Taylor coefficients of cos(x) and sin(x) / x in y = x^2 through y^8,
# (-1)^k / (2k)! and (-1)^k / (2k + 1)!, in Paterson-Stockmeyer blocks:
# _TAYLOR[j, 0, i] multiplies y^(3j + i) in cos, _TAYLOR[j, 1, i] in sinc.
_TAYLOR = np.array([[[(-1) ** k / math.factorial(2 * k + p)
                      for k in range(3 * j, 3 * j + 3)] for p in (0, 1)]
                    for j in range(3)])


def _cos_sin(x, out, work):
    """The real form [[cos(x), sin(x)], [-sin(x), cos(x)]] of exp(-i x),
    written into ``out``, for a stack of real symmetric matrices ``x``;
    ``work`` is flat float scratch of at least 7 ``x.size`` entries.

    A matrix whose infinity norm exceeds ``_SERIES_ANGLE`` takes one real
    ``eigh``, x = V diag(w) V^T, and cos(x) = (V cos(w)) V^T, sin(x)
    likewise.  The others take real matrix products only: x is scaled by
    2^-s to norm at most 1, the Taylor series of cos and sin run to
    degree 16 and 17 with Paterson-Stockmeyer in y = x^2, and s squarings
    cos <- cos^2 - sin^2, sin <- 2 sin cos undo the scaling (Moler & Van
    Loan, SIAM Rev. 45, 2003; Al-Mohy, Higham & Relton, SIAM J. Sci.
    Comput. 37, 2015).  At norm 1 the first omitted terms are 1.6e-16 and
    8e-18, so the result is orthogonal to round-off like eigh's."""
    z = x.shape[-1]
    # Row sums as one matrix-vector product: numpy's sum over a short last
    # axis is slower.
    rows = np.abs(x, out=work[: x.size].reshape(x.shape)).reshape(-1, z)
    rows = rows @ np.ones(z)
    angle = rows.reshape(x.shape[:-1]).max(axis=-1)
    big = angle > _SERIES_ANGLE
    if not big.any():
        return _cos_sin_series(x, angle, out, work)
    w, v = np.linalg.eigh(x[big])
    c, s = ((v * np.stack([np.cos(w), np.sin(w)])[..., None, :])
            @ np.swapaxes(v, -1, -2))
    out[big] = np.block([[c, s], [-s, c]])
    if not big.all():
        part = out[~big]
        _cos_sin_series(x[~big], angle[~big], part, work)
        out[~big] = part


def _cos_sin_series(x, angle, out, work):
    """:func:`_cos_sin` by the scaled series, for a stack ``x`` of infinity
    norms ``angle``.  The whole stack is scaled and squared back by the s
    of its largest angle.  Products go to views of ``work`` and, before
    the result, of ``out``."""
    z = x.shape[-1]
    x = x.reshape(-1, z, z)
    squarings = max(int(np.frexp(angle.max(initial=0.0))[1]), 0)
    xs, y3 = out.reshape((4,) + x.shape)[:2]
    scratch = work[: 7 * x.size].reshape((7,) + x.shape)
    powers, acc, term = scratch[:3], scratch[3:5], scratch[5:]
    np.multiply(x, math.ldexp(1.0, -squarings), out=xs)
    powers[0] = np.eye(z)
    y = np.matmul(xs, xs, out=powers[1])
    np.matmul(np.matmul(y, y, out=powers[2]), y, out=y3)
    # Horner in y3 over both series' blocks sum_i _TAYLOR[j, :, i] y^i.
    flat = powers.reshape(3, -1)
    np.matmul(_TAYLOR[2], flat, out=acc.reshape(2, -1))
    for j in (1, 0):
        np.matmul(y3, acc, out=term)
        np.matmul(_TAYLOR[j], flat, out=acc.reshape(2, -1))
        acc += term
    c, s = acc[0], np.matmul(xs, acc[1], out=powers[0])
    for _ in range(squarings):
        sc = np.matmul(s, c, out=term[0])
        np.subtract(np.matmul(c, c, out=powers[1]),
                    np.matmul(s, s, out=powers[2]), out=c)
        np.multiply(2.0, sc, out=s)
    form = out.reshape(-1, 2 * z, 2 * z)
    form[:, :z, :z] = form[:, z:, z:] = c
    form[:, :z, z:] = s
    np.negative(s, out=form[:, z:, :z])


def _expm_skew2(a, t, out):
    """Closed-form exp(t*a) for a stack of exactly skew-Hermitian 2 x 2
    matrices ``a``, ``t`` broadcast against the stack shape, each entry
    written straight into its places in the real form ``out``.

    In terms of a = -i h: a = i phi I + kappa with kappa = [[i d, b],
    [-b*, -i d]] and kappa^2 = -r^2 I, r = hypot(d, |b|), so exp(t*a) is
    exp(i t phi) (cos(t r) I + t sinc(t r) kappa).  The unit phase
    multiplies a unitary of entries at most 1, so the result stays
    unitary to round-off even where t*phi is large."""
    im = a.imag
    phi = (im[..., 0, 0] + im[..., 1, 1]) / 2
    d = (im[..., 0, 0] - im[..., 1, 1]) / 2
    tr = t * np.hypot(d, np.abs(a[..., 0, 1]))
    # sin(y) / y is exactly 1 at y = 1e-20, so sinc(0) = 1 needs no branch.
    y = np.where(tr == 0, 1e-20, tr)
    phase = np.exp(1j * (t * phi))
    c = phase * np.cos(tr)
    s = phase * (t * np.sin(y) / y)
    ids = 1j * d * s
    for i, j, e in ((0, 0, c + ids), (0, 1, s * a[..., 0, 1]),
                    (1, 0, s * a[..., 1, 0]), (1, 1, c - ids)):
        out[..., i, j] = out[..., 2 + i, 2 + j] = e.real
        np.negative(e.imag, out=out[..., i, 2 + j])
        out[..., 2 + i, j] = e.imag


@functools.lru_cache(maxsize=64)
def _generic(count):
    """``count`` fixed coefficients frac(k sqrt 2) + 1/2, k = 1, 2, ...: no
    rational relation among them, so a combination they weight is generic.
    Read-only, since the array is cached."""
    c = np.sqrt(2.0) * np.arange(1, count + 1) % 1.0 + 0.5
    c.flags.writeable = False
    return c


def _generic_intertwiner(a, b, bounds):
    """A generic element X of {X : b_i X = X a_i for every i}, for Hermitian
    stacks ``a`` and ``b`` (k, n, n), that is block diagonal over the index
    ranges ``bounds[j]:bounds[j + 1]``; real when both stacks are real.
    With b = a that set is the commutant of ``a``.

    On that block-diagonal space the set is the kernel of the positive
    operator X -> sum_i b_i (b_i X - X a_i) - (b_i X - X a_i) a_i, whose
    entry between the unknowns (p', q') and (p, q) of X is
    t[p', p] d(q', q) - 2 sum_i b_i[p', p] a_i[q, q'] + d(p', p) s[q, q']
    with s = sum_i a_i^2 and t = sum_i b_i^2: a matrix of the size of the
    unknowns, not of n^2.  Eigenvalues that are not :func:`_significant`
    at ``TOL_RANK`` count as zero; an element that only nearly commutes
    can split subspaces the terms couple weakly, which the support test
    in :func:`invariant_frame` then merges again.
    """
    ps, qs = np.concatenate([
        np.stack(np.meshgrid(np.arange(s, e), np.arange(s, e),
                             indexing="ij")).reshape(2, -1)
        for s, e in zip(bounds[:-1], bounds[1:])], axis=1)
    p, p2 = ps[None, :], ps[:, None]
    q, q2 = qs[None, :], qs[:, None]
    s = (a @ a).sum(axis=0)
    t = (b @ b).sum(axis=0)
    op = (t[p2, p] * (q2 == q) + (p2 == p) * s[q, q2]
          - 2.0 * (b[:, p2, p] * a[:, q, q2]).sum(axis=0))
    lam, vecs = np.linalg.eigh(op)
    kernel = vecs[:, ~_significant(lam, TOL_RANK)]
    n = a.shape[-1]
    x = np.zeros((n, n), dtype=np.result_type(a, b))
    x[ps, qs] = kernel @ _generic(kernel.shape[1])
    return x


def _class_firsts(linked):
    """For a symmetric boolean relation (m, m), the first index of each
    element's class: the relation's transitive closure, by squaring until
    nothing changes, names each class by its first element."""
    reach = linked | np.eye(len(linked), dtype=bool)
    while True:
        grown = (reach.astype(float) @ reach) > 0
        if (grown == reach).all():
            return reach.argmax(axis=1)
        reach = grown


def invariant_frame(terms):
    """Unitary W and block sizes such that W^H T W is block diagonal for
    every matrix T of the skew-Hermitian stack ``terms`` (k, n, n).

    Everything commuting with the terms (their commutant) maps each
    invariant subspace of C^n into itself, and the eigenvectors of a
    generic Hermitian element of the commutant split C^n into irreducible
    invariant subspaces (Zeier & Schulte-Herbruggen, J. Math. Phys. 52,
    113510, 2011).  The commutant also commutes with the fixed generic
    combination G of the normalized terms, so it is block diagonal over
    G's eigenvalue clusters (:func:`_cluster_bounds`, gaps at
    ``TOL_EIG``): the element, X + X^H for X from
    :func:`_generic_intertwiner` of the terms with themselves, is solved
    for only in that form, and needed at all only where G has a repeated
    eigenvalue.  Each cluster is then rotated by the element's
    eigenvectors on it.

    The blocks are the connected components of the rotated terms'
    support, an entry counting when it exceeds ``TOL_FRAME`` times its
    term's norm, so an inexact split can only merge blocks, never drop a
    coupling.  Columns of W run block by block, blocks in order of their
    first index; an irreducible set gives one block of size n.

    When every i*T is exactly real (a real Hamiltonian), W is real
    orthogonal, float64; a real block that splits only over C stays one.
    """
    h = 1j * np.asarray(terms, dtype=complex)
    if not h.imag.any():
        h = h.real
    n = h.shape[-1]
    flat = h.reshape(len(h), n * n)
    norms = np.sqrt(_sq_norms(h))
    h /= np.where(norms > 0, norms, 1.0)[:, None, None]
    lam, w = np.linalg.eigh((_generic(len(h)) @ flat).reshape(n, n))
    bounds = _cluster_bounds(lam, TOL_EIG * max(1.0, -lam[0], lam[-1]))
    rotated = w.conj().T @ h @ w
    if len(bounds) <= n:  # a repeated eigenvalue
        c = _generic_intertwiner(rotated, rotated, bounds)
        c = c + c.conj().T
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s > 1:
                w[:, s:e] = w[:, s:e] @ np.linalg.eigh(c[s:e, s:e])[1]
        rotated = w.conj().T @ h @ w
    support = (np.abs(rotated) > TOL_FRAME).any(axis=0)
    labels = _class_firsts(support | support.T)
    sizes = np.bincount(labels)
    return w[:, np.argsort(labels, kind="stable")], tuple(
        sizes[sizes > 0].tolist())
