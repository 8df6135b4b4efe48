"""Levi split of a bracket-closed subalgebra of u(n).

For these algebras the radical is exactly the center and the semisimple
part is exactly the derived algebra, so L = [L, L] (+) center(L) as an
orthogonal direct sum.  The Hilbert-Schmidt pairing is ad-invariant,
<e_k, [e_i, e_j]> = <[e_j, e_k], e_i>, so the row space of the map
c -> ([x_c, e_j])_j is spanned by the brackets: it is [L, L], and its
kernel is the center.  One SVD of that map therefore makes the split as
a single rank decision, and the two parts are complementary rows of one
orthogonal matrix.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import _brackets_and_coords
from .errors import DecompositionError
from .linalg import LieBasis, TOL_RANK, bracket_residual, from_coords


@dataclass(frozen=True)
class LeviResult:
    """Orthogonal split L = semisimple (+) radical.

    ``radical_lines`` lists the one-dimensional pieces of the radical
    separately; each evolves independently of everything else.
    """

    radical: LieBasis
    semisimple: LieBasis
    radical_lines: tuple
    commutation_residual: float  # worst ||[r, e]||_F, r radical, e in L

    @property
    def dim(self):
        return self.radical.dim + self.semisimple.dim


def levi_decompose(basis, tol=TOL_RANK):
    """Split a bracket-closed algebra into center plus derived algebra.

    Takes one SVD of the ad map, rows indexed by (j, k) and holding
    <e_k, [e_i, e_j]>: right singular vectors with singular values at or
    below ``tol * max(sigma_max, 1)`` span the center, the others the
    derived algebra.  Every radical element must commute with the whole
    algebra (residual at 1e-8, stored on the result), else
    DecompositionError.
    """
    _, coords = _brackets_and_coords(basis, tol)
    d = basis.dim
    _, s, vh = np.linalg.svd(coords.reshape(d, d * d).T, full_matrices=False)
    semi_dim = int(np.count_nonzero(s > tol * max(s.max(initial=0.0), 1.0)))
    mats = from_coords(basis, vh)
    mats.flags.writeable = False
    semi = LieBasis(basis.n, mats[:semi_dim])
    rad = LieBasis(basis.n, mats[semi_dim:])
    worst = bracket_residual(rad, basis)
    if worst > 1e-8:
        raise DecompositionError(
            f"radical fails to commute with the algebra, residual {worst:.3e}")
    lines = tuple(LieBasis(basis.n, rad.mats[i : i + 1]) for i in range(rad.dim))
    return LeviResult(radical=rad, semisimple=semi, radical_lines=lines,
                      commutation_residual=worst)
