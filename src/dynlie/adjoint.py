"""Structure constants and adjoint matrices.

A bracket-closed subspace of u(n) with HS-orthonormal basis {e_i} is
known completely by its structure constants c[i, j, k] = <e_k, [e_i,
e_j]> (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch. 1).
Every stage after the closure works on real coordinate rows and this
one tensor, projected by the closure's last pass, whose worst residual
is the package's one bracket-closure check.  The pairing is ad-invariant,
so ad_x is antisymmetric in these coordinates.
"""

import numpy as np

from .errors import NotClosedError
from .linalg import TOL_RANK, bracket_blocks, span_coords


def projected_brackets(basis, c):
    """The brackets of ``basis`` with itself, one row block at a time
    (:func:`linalg.bracket_blocks`): writes each block's coordinate rows
    into c (d, d, d) and yields the block with its worst relative
    residual, so a pass holds one block besides c's d^3 floats."""
    m = basis.mats
    for start, br in bracket_blocks(m, m):
        rows, resid = span_coords(basis, br)
        c[start : start + len(br)] = rows
        scale = np.maximum(1.0, np.linalg.norm(br, axis=(2, 3)))
        yield br, (resid / scale).max()


def closed(c, worst, tol):
    """``c``, or NotClosedError if its worst relative residual is > tol."""
    if worst > tol:
        raise NotClosedError(
            f"basis is not bracket-closed, worst relative residual {worst:.3e}")
    return c


def structure_constants(basis, tol=TOL_RANK):
    """Structure constants c[i, j, k] = <e_k, [e_i, e_j]> of ``basis``,
    from one pass of :func:`projected_brackets`, checked by :func:`closed`."""
    c = np.empty((basis.dim,) * 3)
    worst = max((w for _, w in projected_brackets(basis, c)), default=0.0)
    return closed(c, worst, tol)


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

