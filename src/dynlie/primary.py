"""Primary decomposition of a compact semisimple algebra.

A splitting element X of a Cartan subalgebra A is one whose adjoint map
separates everything it can: ad_X has dim S - dim A + 1 distinct
eigenvalues, namely 0 on A and one conjugate pair +/- i a_j per
two-dimensional component V_j.  The components are then real nullspaces
of ad_X^2 + a_j^2, each invariant under all of A, and every Cartan
element acts on V_j as a plain 2x2 rotation generator.

The search for X is deterministic: integer coefficient vectors over the
Cartan basis in lexicographic order (entries 1..2*dim S, gcd 1), then a
seeded randomized fallback, so repeated runs agree.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint_matrix
from .errors import DecompositionError, SplittingSearchError
from .linalg import (
    LieBasis,
    TOL_EIG,
    TOL_RANK,
    bracket_residual,
    coords_strict,
    from_coords,
    nullspace,
)

# The lexicographic integer sweep is astronomically large for Cartan
# dimension above ~4, so cap the number of candidates examined before
# moving on to the randomized fallback.  In practice the first handful
# of integer vectors already splits.
MAX_INTEGER_CANDIDATES = 20000
MAX_RANDOM_CANDIDATES = 1000


@dataclass(frozen=True)
class SplittingElement:
    """Element of the Cartan subalgebra with fully split adjoint spectrum."""

    coeffs: np.ndarray       # coordinates over the Cartan basis
    element: np.ndarray      # the matrix itself
    frequencies: np.ndarray  # distinct a_j > 0, strictly decreasing
    real_part: float         # largest |Re| over the spectrum of ad_X


@dataclass(frozen=True)
class PrimaryResult:
    cartan: LieBasis
    splitting: SplittingElement
    components: tuple  # ((frequency, LieBasis), ...) frequencies decreasing
    invariance_residual: float  # worst part of [a, v] outside v's component


def _coefficient_candidates(m, c_max, rng_seed=0):
    """Deterministic splitting-coefficient candidates.

    Integer vectors in {1..c_max}^m, lexicographic, filtered to gcd 1
    (capped), then uniform draws from [-1, 1]^m with a fixed seed.
    """
    count = 0
    for c in itertools.product(range(1, c_max + 1), repeat=m):
        if math.gcd(*c) == 1:
            yield np.array(c, dtype=float)
        count += 1
        if count >= MAX_INTEGER_CANDIDATES:
            break
    rng = np.random.default_rng(rng_seed)
    for _ in range(MAX_RANDOM_CANDIDATES):
        yield rng.uniform(-1.0, 1.0, size=m)


def _split_spectrum(ad, target_distinct, cartan_dim, eig_tol):
    """Cluster the spectrum of ad and test the splitting condition.

    Returns the decreasing array of distinct positive frequencies and
    the largest |Re| of the spectrum when ad has exactly
    ``target_distinct`` eigenvalue clusters (zero with multiplicity
    cartan_dim, the rest simple conjugate pairs), else None.
    """
    eigs = np.linalg.eigvals(ad)
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    if radius <= 0.0:
        return None
    real_part = float(np.abs(eigs.real).max())
    if real_part > 1e-8 * max(1.0, radius):
        return None
    gap = eig_tol * radius
    imag = np.sort(eigs.imag)
    clusters = []
    start = 0
    for i in range(1, len(imag) + 1):
        if i == len(imag) or imag[i] - imag[i - 1] > gap:
            block = imag[start:i]
            clusters.append((float(block.mean()), len(block)))
            start = i
    if len(clusters) != target_distinct:
        return None
    zero = [c for c in clusters if abs(c[0]) <= gap]
    if len(zero) != 1 or zero[0][1] != cartan_dim:
        return None
    freqs = sorted((c[0] for c in clusters if c[0] > gap), reverse=True)
    if len(freqs) * 2 + cartan_dim != ad.shape[0]:
        return None
    return np.array(freqs), real_part


def _splitting_candidates(semisimple, cartan, tol, eig_tol, coeffs=None):
    """Yield (coeffs, element, ad matrix, frequencies) for every candidate
    that satisfies the splitting condition, in deterministic order."""
    if cartan.dim == 0:
        raise ValueError("Cartan subalgebra is empty")
    for a in cartan.mats:
        coords_strict(semisimple, a, tol, what="Cartan element")
    ads = np.stack([adjoint_matrix(semisimple, a, tol) for a in cartan.mats])
    target = semisimple.dim - cartan.dim + 1
    if coeffs is not None:
        candidates = [np.asarray(c, dtype=float) for c in coeffs]
        for c in candidates:
            if c.shape != (cartan.dim,):
                raise ValueError(
                    f"splitting coefficients need length {cartan.dim}")
    else:
        candidates = _coefficient_candidates(cartan.dim, 2 * semisimple.dim)
    for c in candidates:
        ad = np.tensordot(c, ads, axes=1)
        split = _split_spectrum(ad, target, cartan.dim, eig_tol)
        if split is None:
            continue
        element = np.einsum("j,jnm->nm", c, cartan.mats)
        yield SplittingElement(coeffs=c, element=element, frequencies=split[0],
                               real_part=split[1]), ad


def primary_decompose(semisimple, cartan, tol=TOL_RANK, eig_tol=TOL_EIG,
                      coeffs=None):
    """Split S into the Cartan algebra plus 2-dimensional components.

    Components are the real nullspaces of ad_X^2 + a_j^2 for the
    splitting element X, ordered by strictly decreasing frequency a_j.
    A candidate whose eigenspaces come out with the wrong dimension is
    abandoned and the search moves to the next one.  The Cartan-invariance
    residual of the components (at 1e-8) is stored on the result.
    ``coeffs`` restricts the search to explicit coefficient vectors over
    the Cartan basis, which is how tests and the CLI pin a particular
    choice; if none of them splits, SplittingSearchError.  S is
    not re-tested for semisimplicity, which ``cartan_subalgebra`` checked;
    a non-semisimple S has no splitting element (SplittingSearchError).
    """
    failures = 0
    for element, ad in _splitting_candidates(semisimple, cartan, tol, eig_tol,
                                             coeffs):
        ad_sq = ad @ ad
        eye = np.eye(semisimple.dim)
        comps = []
        ok = True
        for a in element.frequencies:
            rows = nullspace(ad_sq + (a * a) * eye, tol)
            if rows.shape[0] != 2:
                ok = False
                break
            comps.append((float(a), LieBasis(semisimple.n,
                                             from_coords(semisimple, rows))))
        if not ok:
            failures += 1
            if failures > 25:
                break
            continue
        return PrimaryResult(cartan=cartan, splitting=element,
                             components=tuple(comps),
                             invariance_residual=_check_primary(
                                 semisimple, cartan, comps))
    raise SplittingSearchError(
        "primary decomposition failed: no candidate produced clean "
        "2-dimensional eigenspaces")


def _check_primary(semisimple, cartan, comps):
    """Cover and Cartan-invariance checks; returns the invariance residual."""
    total = cartan.dim + sum(v.dim for _, v in comps)
    if total != semisimple.dim:
        raise DecompositionError(
            f"primary components cover dim {total} of {semisimple.dim}")
    worst = max((bracket_residual(cartan, comp, comp) for _, comp in comps),
                default=0.0)
    if worst > 1e-8:
        raise DecompositionError(
            f"components are not ad-invariant under the Cartan algebra "
            f"(residual {worst:.3e})")
    return worst
