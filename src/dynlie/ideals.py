"""Simple ideals of a compact semisimple algebra, and su(2) recognition.

Each primary component is the real root plane V_j of a pair of roots
+/- a_j.  Planes in different simple ideals commute.  Inside one ideal
the roots are chained by non-orthogonal pairs, and for non-orthogonal
roots b != +/- a one of a + b, a - b is again a root, so those planes do
not commute.  The simple ideals are therefore the connected classes of
the relation [V_j, V_l] != 0, each spanned by its planes plus their
brackets [x_j, y_j]: nonzero multiples of the coroots, which span the
ideal's part of the Cartan algebra (de Graaf, Lie Algebras: Theory and
Algorithms, ch. 4).  Three-dimensional factors are copies of su(2) and
can be put into a standard cyclic frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import killing_orthonormalize
from .errors import DecompositionError, NotSemisimpleError
from .linalg import (
    TOL_RANK,
    bracket_residual,
    commutator,
    empty_basis,
    extend_basis,
    hs_inner,
)


@dataclass(frozen=True)
class IdealSet:
    """Distinct simple ideals plus the component -> ideal index map."""

    ideals: tuple   # (LieBasis, ...)
    origin: tuple   # origin[j] = index of the ideal containing component j
    commutation_residual: float  # worst ||[x, y]||_F across distinct ideals
    invariance_residual: float   # worst part of [s, x] outside x's ideal


def simple_decompose(semisimple, primary, tol=TOL_RANK):
    """Simple-ideal decomposition of S from its primary components.

    Components are linked when their planes fail to commute (bracket
    residual above ``tol``); each connected class spans one ideal with
    the brackets [x_j, y_j] of its planes.  Ideals are ordered by their
    first component.  Verifies that the ideal dimensions add up to
    dim S, that distinct ideals commute, and that each ideal is
    genuinely ad-S-invariant; both residuals (at 1e-8) are stored on the
    result.
    """
    planes = [comp for _, comp in primary.components]
    origin = [None] * len(planes)
    ideals = []
    for first in range(len(planes)):
        if origin[first] is not None:
            continue
        origin[first] = len(ideals)
        members = [first]
        for j in members:  # the class grows while it is walked
            for l, plane in enumerate(planes):
                if (origin[l] is None
                        and bracket_residual(planes[j], plane) > tol):
                    origin[l] = origin[first]
                    members.append(l)
        members.sort()
        elements = [x for j in members for x in planes[j].mats]
        coroots = [commutator(*planes[j].mats) for j in members]
        ideals.append(extend_basis(empty_basis(semisimple.n),
                                   elements + coroots, tol))
    total = sum(i.dim for i in ideals)
    if total != semisimple.dim:
        raise DecompositionError(
            f"simple ideals cover dim {total} of {semisimple.dim}")
    worst_cross = max((bracket_residual(ideals[i], ideals[j])
                       for i in range(len(ideals))
                       for j in range(i + 1, len(ideals))), default=0.0)
    if worst_cross > 1e-8:
        raise DecompositionError(
            f"ideals fail to commute, residual {worst_cross:.3e}")
    worst_inv = max((bracket_residual(semisimple, ideal, ideal)
                     for ideal in ideals), default=0.0)
    if worst_inv > 1e-8:
        raise DecompositionError(
            f"an ideal is not ad-invariant, residual {worst_inv:.3e}")
    return IdealSet(ideals=tuple(ideals), origin=tuple(origin),
                    commutation_residual=worst_cross,
                    invariance_residual=worst_inv)


def recognize_su2(ideal, tol=TOL_RANK):
    """Standard cyclic frame (E1, E2, E3) of a 3-dimensional simple ideal.

    Killing-orthonormalizes, rescales by sqrt(2) and fixes orientation so
    that [E1, E2] = E3 cyclically (residuals at 1e-8).  Returns None when
    the input is not a copy of su(2).
    """
    if ideal.dim != 3:
        return None
    try:
        frame = math.sqrt(2.0) * killing_orthonormalize(ideal, rank_tol=tol)
    except NotSemisimpleError:
        return None
    e1, e2, e3 = frame
    if hs_inner(commutator(e1, e2), e3) < 0.0:
        e3 = -e3
    for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        if np.linalg.norm(commutator(a, b) - c) > 1e-8:
            return None
    return (e1, e2, e3)
