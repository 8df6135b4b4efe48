"""Structure constants, adjoint matrices and the Killing form.

A bracket-closed subspace of u(n) with HS-orthonormal basis {e_i} is
known completely by its structure constants c[i, j, k] = <e_k, [e_i,
e_j]> (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch. 1).
Every stage after the closure works on real coordinate rows and this
one tensor, built once by :func:`_brackets_and_coords`, which is also
the package's one bracket-closure check.  The pairing is ad-invariant,
so ad_x is antisymmetric in these coordinates, and the Killing form
K(y, z) = tr(ad_y ad_z), one contraction of c with itself, is negative
definite precisely on the semisimple subalgebras.
"""

import numpy as np

from .errors import NotClosedError, NotSemisimpleError
from .linalg import (TOL_KILLING, TOL_RANK, _significant, bracket_blocks,
                     span_coords)


def _brackets_and_coords(basis, tol=TOL_RANK):
    """Structure constants c[i, j, k] = <e_k, [e_i, e_j]> of ``basis``.

    Takes the pairwise brackets one row block at a time
    (:func:`linalg.bracket_blocks`) and projects each block at once,
    filling its rows of c and the worst relative residual so far, so the
    pass holds one block of brackets besides c's d^3 floats.  Raises
    NotClosedError when some bracket leaves the span (relative residual
    above ``tol``): this is the bracket-closure check of the package.
    """
    d = basis.dim
    m = basis.mats
    coords = np.empty((d, d, d))
    worst = 0.0
    for start, br in bracket_blocks(m, m):
        rows, resid = span_coords(basis, br)
        coords[start : start + len(br)] = rows
        scale = np.maximum(1.0, np.linalg.norm(br, axis=(2, 3)))
        worst = max(worst, (resid / scale).max())
    if worst > tol:
        raise NotClosedError(
            f"basis is not bracket-closed, worst relative residual {worst:.3e}")
    return coords


def bracket_coords(c, a, b):
    """Coordinates of the brackets [a_p, b_q] of two stacks of coordinate
    rows, shape (len(a), len(b), d)."""
    k, d = a.shape
    return b @ (a @ c.reshape(d, d * d)).reshape(k, d, d)


def restrict(c, rows):
    """Structure constants of the subalgebra whose basis has the
    orthonormal coordinate ``rows``: R c R^T in every slot."""
    return bracket_coords(c, rows, rows) @ rows.T


def adjoint(c, x):
    """ad_x in coordinates: column j holds the coordinates of [x, e_j].

    ``x`` is a coordinate row, or a stack of them for a stack of
    matrices.
    """
    return np.swapaxes(np.tensordot(x, c, axes=1), -1, -2)


def killing_gram(c):
    """Killing Gram matrix K[i, j] = tr(ad_{e_i} ad_{e_j}), one
    contraction of the structure constants."""
    return np.tensordot(c, c, axes=([1, 2], [2, 1]))


def is_semisimple(c, tol=TOL_KILLING):
    """Cartan's criterion: the Killing form is nondegenerate.

    True when every singular value of the Killing Gram is significant at
    ``tol`` (``linalg._significant``).  The empty algebra reports False:
    there is nothing to decompose there.  The pipeline does not call it:
    the Levi split alone decides semisimplicity.  It stays as an
    independent check.
    """
    if len(c) == 0:
        return False
    s = np.linalg.svd(killing_gram(c), compute_uv=False)
    return bool(_significant(s, tol).all())


def killing_orthonormalize(c, tol=TOL_KILLING):
    """Coordinate rows of a basis of the same span whose Killing Gram is
    minus the identity.

    The rows are (-K)^{-1/2}, through the symmetric eigendecomposition of
    the Gram matrix, which leaves an already Killing-orthonormal basis
    untouched.  The basis is HS-orthogonal but carries per-ideal scale
    factors.  The same eigendecomposition decides semisimplicity: an
    input whose -K has an eigenvalue that is not significant at ``tol``
    (degenerate or indefinite Killing form, or an empty span) raises
    NotSemisimpleError.
    """
    w, q = np.linalg.eigh(-killing_gram(c))
    if not w.size or not _significant(w, tol).all():
        raise NotSemisimpleError(
            "Killing form is not negative definite; input is not semisimple")
    return (q / np.sqrt(w)) @ q.T
