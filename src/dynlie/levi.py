"""Levi split of a bracket-closed subalgebra of u(n).

For these algebras the radical is exactly the center and the semisimple
part is exactly the derived algebra, so L = [L, L] (+) center(L) as an
orthogonal direct sum.  That makes the split a pair of rank decisions:
a nullspace for the center, a Gram-Schmidt sweep over pairwise brackets
for the derived algebra.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import _brackets_and_coords
from .errors import DecompositionError
from .linalg import (LieBasis, TOL_RANK, bracket_residual, empty_basis,
                     extend_basis, from_coords, nullspace)


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

    Both pieces come from one bracket tensor.  Verifies that they really
    decompose the input: dimensions must add up to dim L, the combined
    span must be all of L, and every radical element must commute with
    the whole algebra (residual at 1e-8, stored on the result).
    Inconsistent rank decisions raise DecompositionError.
    """
    brackets, coords = _brackets_and_coords(basis, tol)
    d = basis.dim
    # Center: sum_i c_i <e_k, [e_i, e_j]> = 0, rows indexed by (j, k).
    rad = LieBasis(basis.n, from_coords(
        basis, nullspace(coords.reshape(d, d * d).T, tol)))
    # Derived algebra: the brackets [e_i, e_j], i < j, in lexicographic order.
    semi = extend_basis(empty_basis(basis.n),
                        brackets[np.triu_indices(d, 1)], tol)
    if rad.dim + semi.dim != basis.dim:
        raise DecompositionError(
            f"center (dim {rad.dim}) and derived algebra (dim {semi.dim}) "
            f"do not split the algebra (dim {basis.dim})")
    combined = extend_basis(semi, rad.mats, tol)
    if combined.dim != basis.dim:
        raise DecompositionError(
            "center and derived algebra overlap; rank thresholds inconsistent")
    worst = bracket_residual(rad, basis)
    if worst > 1e-8:
        raise DecompositionError(
            f"radical fails to commute with the algebra, residual {worst:.3e}")
    lines = tuple(LieBasis(basis.n, rad.mats[i : i + 1]) for i in range(rad.dim))
    return LeviResult(radical=rad, semisimple=semi, radical_lines=lines,
                      commutation_residual=worst)
