"""Adjoint representation, Killing form, and Cartan's semisimplicity test.

The adjoint matrix of x on an invariant subspace with orthonormal basis
{e_j} has entries <e_i, [x, e_j]>.  Because conjugation by unitaries
preserves the Hilbert-Schmidt pairing, ad_x is exactly antisymmetric in
such a basis whenever x is skew-Hermitian; its spectrum sits on the
imaginary axis.  The Killing form K(y, z) = tr(ad_y ad_z) is negative
definite precisely on the semisimple subalgebras we care about, which is
what :func:`is_semisimple` tests and :func:`killing_orthonormalize`
exploits.
"""

import numpy as np

from .errors import NotClosedError, NotInSpanError, NotSemisimpleError
from .linalg import (
    LieBasis,
    TOL_KILLING,
    TOL_RANK,
    _vec,
    brackets,
    span_coords,
)


def adjoint_matrix(basis, x, tol=TOL_RANK):
    """Real matrix of ad_x = [x, .] in the coordinates of ``basis``.

    Column j holds the coordinates of [x, e_j].  The span must be
    ad_x-invariant: any bracket leaving it (relative residual above
    ``tol``) raises NotInSpanError.  x itself need not be a member.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.n, basis.n):
        raise ValueError(
            f"element shape {x.shape} does not match ambient {(basis.n, basis.n)}")
    br = brackets(x[None], basis.mats)[0]
    coords, resid = span_coords(basis, br)
    scale = np.maximum(1.0, np.linalg.norm(br, axis=(1, 2)))
    worst = (resid / scale).max() if basis.dim else 0.0
    if worst > tol:
        raise NotInSpanError(
            f"[x, e_j] leaves the span, worst relative residual {worst:.3e}")
    return coords.T


def adjoint_in_span(mats, x, tol=TOL_RANK):
    """Adjoint matrix of x over an arbitrary (possibly non-orthonormal)
    linearly independent spanning set, via least squares.

    Used for bases carrying a non-HS metric, e.g. the output of
    :func:`killing_orthonormalize`.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3:
        raise ValueError("expected a stack of matrices")
    vecs = _vec(mats)
    bv = _vec(brackets([x], mats)[0])
    coefs, _, rank, _ = np.linalg.lstsq(vecs.T, bv.T, rcond=None)
    if rank < len(mats):
        raise ValueError("spanning set is not linearly independent")
    resid = bv - coefs.T @ vecs
    scale = np.maximum(1.0, np.linalg.norm(bv, axis=1))
    if (np.linalg.norm(resid, axis=1) / scale).max() > tol:
        raise NotInSpanError("[x, m_j] leaves the span of the given set")
    return coefs


def _brackets_and_coords(basis, tol=TOL_RANK):
    """All pairwise brackets [e_i, e_j] and their basis coordinates.

    Raises NotClosedError when some bracket leaves the span, so this
    doubles as the bracket-closure check used across the package.
    """
    br = brackets(basis.mats, basis.mats)
    coords, resid = span_coords(basis, br)
    scale = np.maximum(1.0, np.linalg.norm(br, axis=(2, 3)))
    worst = (resid / scale).max() if basis.dim else 0.0
    if worst > tol:
        raise NotClosedError(
            f"basis is not bracket-closed, worst relative residual {worst:.3e}")
    return br, coords


def structure_tensor(basis, tol=TOL_RANK):
    """c[i, j, k] = <e_k, [e_i, e_j]> with a closure check on every bracket."""
    _, coords = _brackets_and_coords(basis, tol)
    return coords


def killing_gram(basis, tol=TOL_RANK):
    """Killing Gram matrix K[i, j] = tr(ad_{e_i} ad_{e_j}).

    Accepts a LieBasis (fast path through the structure tensor) or any
    stack/sequence of linearly independent matrices spanning a
    bracket-closed subspace (least-squares path).  The trace is basis
    independent, so both paths agree on a common span.
    """
    if isinstance(basis, LieBasis):
        c = structure_tensor(basis, tol)
        # ad_i[k, j] = c[i, j, k]
        return np.einsum("ijk,lkj->il", c, c)
    mats = np.asarray(basis, dtype=complex)
    ads = [adjoint_in_span(mats, x, tol) for x in mats]
    d = len(ads)
    gram = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            gram[i, j] = gram[j, i] = np.sum(ads[i] * ads[j].T)
    return gram


def is_semisimple(basis, tol=TOL_KILLING, rank_tol=TOL_RANK):
    """Cartan's criterion: the Killing form is nondegenerate.

    True when the smallest singular value of the Killing Gram exceeds
    ``tol * max(largest, 1)``.  The empty algebra reports False: there is
    nothing to decompose there.
    """
    d = basis.dim if isinstance(basis, LieBasis) else len(basis)
    if d == 0:
        return False
    gram = killing_gram(basis, rank_tol)
    s = np.linalg.svd(gram, compute_uv=False)
    return bool(s[-1] > tol * max(s[0], 1.0))


def killing_orthonormalize(basis, tol=TOL_KILLING, rank_tol=TOL_RANK):
    """Basis of the same span whose Killing Gram is minus the identity.

    Returns a (d, n, n) stack, not a LieBasis: the result is
    HS-orthogonal but carries per-ideal scale factors, so it is
    orthonormal with respect to -K instead of the HS pairing.  Computed
    as E (-K)^{-1/2} through the symmetric eigendecomposition of the
    Gram matrix, which leaves an already Killing-orthonormal basis
    untouched.  The same eigendecomposition decides semisimplicity: an
    input whose -K has an eigenvalue at or below ``tol * max(largest, 1)``
    (degenerate or indefinite Killing form, or an empty span) raises
    NotSemisimpleError.
    """
    gram = killing_gram(basis, rank_tol)
    w, q = np.linalg.eigh(-gram)
    if not w.size or w.min() <= tol * max(w.max(), 1.0):
        raise NotSemisimpleError(
            "Killing form is not negative definite; input is not semisimple")
    inv_sqrt = (q / np.sqrt(w)) @ q.T
    mats = basis.mats if isinstance(basis, LieBasis) else np.asarray(basis)
    return np.einsum("bi,ijk->bjk", inv_sqrt, mats)
