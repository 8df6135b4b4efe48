"""Levi split of a bracket-closed subalgebra of u(n), in coordinates.

For these algebras the radical is exactly the center and the semisimple
part is exactly the derived algebra, so L = [L, L] (+) center(L) as an
orthogonal direct sum.  The Hilbert-Schmidt pairing is ad-invariant,
<e_k, [e_i, e_j]> = <[e_j, e_k], e_i>, so the row space of the map
x -> ([x, e_j])_j, which is the structure tensor c reshaped to (d, d^2),
is spanned by the brackets: it is [L, L], and its kernel is the center.
One SVD of that map therefore makes the split as a single rank decision,
and the two parts are complementary rows of one orthogonal matrix.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import LieBasis, TOL_RANK, _gate, _significant


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
    abelian_residual: float      # worst ||[r, s]||_F, r, s radical


def levi_split(c, tol=TOL_RANK):
    """The Levi split in the coordinates of the structure constants ``c``.

    Returns (rows, semisimple dim, commutation residual, abelian
    residual): ``rows`` is orthogonal, its first rows span the derived
    algebra and the others the center.  Right singular vectors of c as a
    (d, d^2) map whose singular values are not significant at ``tol``
    (``linalg._significant``) span the center.  Every radical element
    must commute with the whole algebra (``linalg._gate``), else
    DecompositionError.
    """
    d = len(c)
    _, s, vh = np.linalg.svd(c.reshape(d, d * d).T, full_matrices=False)
    semi_dim = int(np.count_nonzero(_significant(s, tol)))
    rad = vh[semi_dim:]
    ad_rad = np.tensordot(rad, c, axes=1)  # [p, j]: coordinates of [r_p, e_j]
    worst = _gate(np.linalg.norm(ad_rad, axis=-1).max(initial=0.0),
                  "radical fails to commute with the algebra")
    abelian = np.linalg.norm(rad @ ad_rad, axis=-1).max(initial=0.0)
    return vh, semi_dim, worst, float(abelian)


def levi_decompose(basis, c, tol=TOL_RANK):
    """Split a bracket-closed algebra into center plus derived algebra.

    ``c`` holds the structure constants of ``basis``; see
    :func:`levi_split`.  Both residuals are stored on the result.
    """
    rows, semi_dim, worst, abelian = levi_split(c, tol)
    semi, rad = basis.span(rows).parts([semi_dim, len(rows) - semi_dim])
    return LeviResult(radical=rad, semisimple=semi,
                      radical_lines=rad.parts([1] * rad.dim),
                      commutation_residual=worst, abelian_residual=abelian)
