"""Cartan subalgebra of a compact semisimple subalgebra of u(n).

The construction peels the algebra iteratively: pick a nonzero element
X, form its centralizer D, split D into derived part plus center, bank
the center into the growing Abelian algebra and recurse on the derived
part.  Each pass strictly shrinks the working algebra, so at most dim S
iterations run.  The result is Abelian, self-normalizing, and has even
codimension in S.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import adjoint_matrix, is_semisimple
from .errors import NotSemisimpleError
from .levi import levi_decompose
from .linalg import (
    LieBasis,
    TOL_RANK,
    coords_strict,
    empty_basis,
    extend_basis,
    from_coords,
    nullspace,
)


def centralizer(ambient, x, tol=TOL_RANK):
    """Basis of {d in span(ambient) : [d, x] = 0}.

    x must be a nonzero member of the ambient span.  The result is
    seeded with x/||x|| so the pivot is always its first element.
    """
    x = np.asarray(x, dtype=complex)
    norm = np.linalg.norm(x)
    if norm <= tol:
        raise ValueError("centralizer pivot must be nonzero")
    coords_strict(ambient, x, tol, what="centralizer pivot")
    ad = adjoint_matrix(ambient, x, tol)
    rows = nullspace(ad, tol)
    seed = LieBasis(ambient.n, (x / norm)[None, :, :])
    return extend_basis(seed, from_coords(ambient, rows), tol)


def normalizer(ambient, sub, tol=TOL_RANK):
    """Basis of {s in span(ambient) : [s, sub] subset of span(sub)}.

    Linear condition: the component of [e_i, a_m] orthogonal to sub must
    vanish.  Stacked over all sub elements and solved by SVD.
    """
    if ambient.dim == 0:
        return ambient
    if sub.dim == 0:
        return ambient
    sub_coords = np.stack([coords_strict(ambient, a, tol, "subalgebra element")
                           for a in sub.mats])
    blocks = []
    for a in sub.mats:
        ad = adjoint_matrix(ambient, a, tol)  # columns: coords of [a, e_i]
        q = -ad.T                             # rows: coords of [e_i, a]
        q = q - q @ sub_coords.T @ sub_coords
        blocks.append(q.T)
    system = np.vstack(blocks)
    rows = nullspace(system, tol)
    if rows.shape[0] == 0:
        return empty_basis(ambient.n)
    return LieBasis(ambient.n, from_coords(ambient, rows))


@dataclass(frozen=True)
class CartanResult:
    """Maximal Abelian self-normalizing subalgebra plus the audit trail."""

    cartan: LieBasis
    iterations: int
    pivot_elements: tuple


def cartan_subalgebra(semisimple, pivots=None, tol=TOL_RANK):
    """Cartan subalgebra of a semisimple algebra by iterated centralizers.

    ``pivots`` optionally supplies explicit pivot elements, consumed in
    order before falling back to the default rule (first basis element
    of the current working algebra).  Explicit pivots must be members of
    the working span at their turn (``centralizer`` raises
    NotInSpanError otherwise); this is how a caller reproduces a
    particular textbook choice exactly.
    """
    if not is_semisimple(semisimple, rank_tol=tol):
        raise NotSemisimpleError(
            "Cartan construction needs a semisimple algebra")
    queue = list(pivots) if pivots is not None else []
    centers = []
    current = semisimple
    used = []
    iterations = 0
    while current.dim > 0:
        if iterations > semisimple.dim:
            raise NotSemisimpleError(
                "Cartan iteration failed to terminate; input is likely "
                "not semisimple at the working tolerance")
        x = (np.asarray(queue.pop(0), dtype=complex) if queue
             else current.mats[0])
        used.append(x)
        dee = centralizer(current, x, tol)
        split = levi_decompose(dee, tol)
        centers.append(split.radical.mats)
        current = split.semisimple
        iterations += 1
    # Each centralizer lies in the previous semisimple part, which is
    # orthogonal to every center banked so far.
    abelian = LieBasis(semisimple.n, np.concatenate(centers)
                       if centers else None)
    return CartanResult(cartan=abelian, iterations=iterations,
                        pivot_elements=tuple(used))
