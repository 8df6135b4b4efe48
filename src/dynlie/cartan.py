"""Cartan subalgebra of a compact semisimple subalgebra of u(n).

The construction peels the algebra iteratively: pick a nonzero element
X, form its centralizer D, split D into derived part plus center, bank
the center into the growing Abelian algebra and recurse on the derived
part.  Each pass strictly shrinks the working algebra, so at most dim S
iterations run.  The result is Abelian, self-normalizing, and has even
codimension in S.

Everything runs on coordinate rows over the basis of S and on its
structure constants c: a centralizer is the nullspace of ad_X restricted
to the working rows, and its Levi split is :func:`levi.levi_split` on the
restricted constants R c R^T.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint, bracket_coords, is_semisimple, restrict
from .errors import NotInSpanError, NotSemisimpleError
from .levi import levi_split
from .linalg import LieBasis, TOL_RANK, nullspace, span_coords


def centralizer(c, rows, x, tol=TOL_RANK):
    """Orthonormal coordinate rows of {y in span(rows) : [y, x] = 0}.

    ``rows`` are orthonormal coordinate rows of a subalgebra and ``x`` the
    coordinates of a nonzero member.  The result starts with x/||x||, so
    the pivot is always its first element.
    """
    norm = np.linalg.norm(x)
    if not 0.0 < norm < np.inf:
        raise ValueError("centralizer pivot must be nonzero and finite")
    x = x / norm
    # ad[k, j] = <w_k, [x, w_j]> over the working rows w.
    ad = rows @ adjoint(c, x) @ rows.T
    kernel = nullspace(ad, tol) @ rows
    # An orthogonal change of the kernel's basis whose first row is x.
    q = np.linalg.qr((kernel @ x)[:, None], mode="complete")[0]
    out = q.T @ kernel
    out[0] = x
    return out


@dataclass(frozen=True)
class CartanResult:
    """Maximal Abelian self-normalizing subalgebra plus the audit trail."""

    cartan: LieBasis
    iterations: int
    pivot_rows: np.ndarray  # one per iteration, over cartan's stack
    abelian_residual: float  # worst ||[h, h']||_F over the basis

    @property
    def pivot_elements(self):
        """The pivots as matrices, computed on access."""
        return tuple(np.tensordot(self.pivot_rows, self.cartan.stack, axes=1))


def cartan_subalgebra(semisimple, c, pivots=None, tol=TOL_RANK):
    """Cartan subalgebra of a semisimple algebra by iterated centralizers.

    ``c`` holds the structure constants of ``semisimple``, whose Killing
    form must be nondegenerate (NotSemisimpleError otherwise).
    ``pivots`` optionally supplies explicit pivot elements, consumed in
    order before falling back to the default rule (first basis element
    of the current working algebra).  Explicit pivots must be nonzero
    (ValueError) and members of the working span at their turn, up to
    ``tol`` times their norm (NotInSpanError); this is how a caller
    reproduces a particular textbook choice exactly.
    """
    if not is_semisimple(c):
        raise NotSemisimpleError(
            "Cartan construction needs a semisimple algebra")
    queue = list(pivots) if pivots is not None else []
    centers = []
    current = np.eye(semisimple.dim)
    used = []
    while len(current):
        if len(used) > semisimple.dim:
            raise NotSemisimpleError(
                "Cartan iteration failed to terminate; input is likely "
                "not semisimple at the working tolerance")
        if queue:
            pivot = np.asarray(queue.pop(0), dtype=complex)
            # Its parts outside S and outside the working span of S.
            x, resid = span_coords(semisimple, pivot)
            resid = np.hypot(resid, np.linalg.norm(x - x @ current.T @ current))
            if resid > tol * np.linalg.norm(pivot):
                raise NotInSpanError(
                    f"Cartan pivot is not inside the working span (tol={tol:g})")
        else:
            x = current[0]
        used.append(x)
        dee = centralizer(c, current, x, tol)
        split, semi_dim = levi_split(restrict(c, dee), tol)[:2]
        centers.append(split[semi_dim:] @ dee)
        current = split[:semi_dim] @ dee
    # Each centralizer lies in the previous semisimple part, which is
    # orthogonal to every center banked so far.
    rows = np.concatenate(centers)
    worst = np.linalg.norm(bracket_coords(c, rows, rows), axis=-1).max()
    lift = np.eye(len(c)) if semisimple.rows is None else semisimple.rows
    return CartanResult(cartan=semisimple.span(rows), iterations=len(used),
                        pivot_rows=np.array(used) @ lift,
                        abelian_residual=float(worst))
