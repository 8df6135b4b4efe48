"""Primary decomposition of a compact semisimple algebra.

A splitting element X of a Cartan subalgebra A is one whose adjoint map
separates everything it can: ad_X has dim S - dim A + 1 distinct
eigenvalues, namely 0 on A and one conjugate pair +/- i a_j per
two-dimensional component V_j.  The Hilbert-Schmidt pairing is
ad-invariant, so ad_X is antisymmetric in an orthonormal basis, and one
``eigh`` of i ad_X gives the frequencies together with orthonormal
eigenvectors: V_j is spanned by the real and imaginary parts of the
eigenvector for a_j.  Each V_j is invariant under all of A, and every
Cartan element acts on it as a plain 2x2 rotation generator.  The
adjoint matrices are read from the structure constants of S.

The search for X has no randomized fallback: it walks the moment curve
over the Cartan basis (_coefficient_candidates).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint
from .errors import SplittingSearchError
from .linalg import LieBasis, TOL_EIG, TOL_RANK, _cluster_bounds, _gate


@dataclass(frozen=True)
class SplittingElement:
    """Element of the Cartan subalgebra with fully split adjoint spectrum."""

    coeffs: np.ndarray       # coordinates over the Cartan basis
    cartan: LieBasis         # that basis
    frequencies: np.ndarray  # distinct a_j > 0, strictly decreasing
    real_part: float         # ||symmetric part of ad_X||_2, bounds every |Re|

    @property
    def element(self):
        """The matrix itself, computed on access."""
        return np.einsum("j,jnm->nm", self.coeffs, self.cartan.mats)


@dataclass(frozen=True)
class PrimaryResult:
    cartan: LieBasis
    splitting: SplittingElement
    components: tuple  # ((frequency, LieBasis), ...) frequencies decreasing
    invariance_residual: float  # worst part of [a, v] outside v's component


def _coefficient_candidates(m, dim):
    """Deterministic splitting-coefficient candidates, m = dim A.

    The moment curve (1, t, ..., t^(m-1)), t = 1 .. (m-1) p^2 + 1, with
    p = (dim - m) // 2 root pairs.  Each of the p^2 functionals a_j,
    a_j -/+ a_k that must not vanish at X is a nonzero polynomial of
    degree below m in t, so it has at most m - 1 zeros on the curve, and
    one of these points splits a semisimple S.
    """
    for t in range(1, (m - 1) * ((dim - m) // 2) ** 2 + 2):
        yield float(t) ** np.arange(m)


def _split_spectrum(ad, target_distinct, cartan_dim):
    """Cluster the spectrum of ad and test the splitting condition.

    One ``eigh`` of i times the antisymmetric part of ad gives the real
    eigenvalues -/+ a and orthonormal eigenvectors.  When ad has exactly
    ``target_distinct`` eigenvalue clusters at gaps of ``TOL_EIG`` times
    its spectral radius (zero with multiplicity cartan_dim, the rest
    simple conjugate pairs), returns the decreasing array of distinct
    positive frequencies a_j and the coordinate rows of their planes,
    rows 2j and 2j + 1 for a_j; else None.  The plane of a_j is sqrt(2)
    (Re v, Im v) for its eigenvector v: v is orthogonal to its
    conjugate, the eigenvector for -a_j, so the two rows are orthonormal
    and span an ad-invariant plane.
    """
    w, v = np.linalg.eigh(0.5j * (ad - ad.T))
    radius = float(np.abs(w).max()) if w.size else 0.0
    if radius <= 0.0:
        return None
    gap = TOL_EIG * radius
    bounds = _cluster_bounds(w, gap)
    means = np.array([w[s:e].mean() for s, e in itertools.pairwise(bounds)])
    zero = np.flatnonzero(np.abs(means) <= gap)
    pos = np.flatnonzero(means > gap)[::-1]
    # With these counts every nonzero cluster is a single eigenvalue.
    if (len(means) != target_distinct or len(zero) != 1
            or np.diff(bounds)[zero[0]] != cartan_dim
            or len(pos) * 2 + cartan_dim != len(w)):
        return None
    vecs = v[:, bounds[pos]].T
    rows = math.sqrt(2.0) * np.stack([vecs.real, vecs.imag], axis=1)
    return means[pos], rows.reshape(-1, len(w))


def primary_decompose(semisimple, c, cartan, tol=TOL_RANK, coeffs=None):
    """Split S into the Cartan algebra plus 2-dimensional components.

    ``c`` holds the structure constants of ``semisimple``.  The first
    candidate X whose adjoint spectrum splits (see
    :func:`_split_spectrum`) gives the components, one eigenvector plane
    per frequency a_j, ordered by strictly decreasing a_j.  ``cartan``
    enters by its coordinates (:meth:`LieBasis.coords`).  The
    Cartan-invariance residual of the components (checked by
    ``linalg._gate``) is stored on the result.  ``coeffs``, one
    coefficient vector over the Cartan basis, replaces the search, which
    is how tests and the CLI pin a particular choice; if it does not
    split, SplittingSearchError.  Otherwise one point of the moment
    curve (_coefficient_candidates) splits a semisimple S, so the error
    means that S, not re-tested here, is not semisimple or that its
    spectrum is degenerate at ``TOL_EIG``.
    """
    if cartan.dim == 0:
        raise ValueError("Cartan subalgebra is empty")
    ads = adjoint(c, semisimple.coords(cartan, tol))
    target = semisimple.dim - cartan.dim + 1
    if coeffs is not None:
        candidates = [np.asarray(coeffs, dtype=float)]
        if candidates[0].shape != (cartan.dim,):
            raise ValueError(f"splitting coefficients need length {cartan.dim}")
    else:
        candidates = _coefficient_candidates(cartan.dim, semisimple.dim)
    for cand in candidates:
        ad = np.tensordot(cand, ads, axes=1)
        split = _split_spectrum(ad, target, cartan.dim)
        if split is not None:
            break
    else:
        raise SplittingSearchError(
            "primary decomposition failed: no candidate splits the "
            "adjoint spectrum")
    freqs, rows = split
    element = SplittingElement(
        coeffs=cand, cartan=cartan, frequencies=freqs,
        real_part=float(np.linalg.norm(ad + ad.T, 2)) / 2.0)
    # [a, v] for every Cartan element a and plane row v, less its part
    # inside v's plane.
    planes = rows.reshape(-1, 2, semisimple.dim)
    moved = np.einsum("aik,pjk->paji", ads, planes)
    inside = np.einsum("paji,pli,plk->pajk", moved, planes, planes)
    worst = _gate(np.linalg.norm(moved - inside, axis=-1).max(initial=0.0),
                  "components are not ad-invariant under the Cartan algebra")
    comps = semisimple.span(rows).parts([2] * len(freqs))
    return PrimaryResult(cartan=cartan, splitting=element,
                         components=tuple(zip(freqs.tolist(), comps)),
                         invariance_residual=worst)
