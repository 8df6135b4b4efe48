"""Simple ideals of a compact semisimple algebra, and su(2) recognition.

Each primary component generates the minimal ideal containing it; the
distinct ideals so obtained are the simple factors of S, pairwise
commuting and Killing-orthogonal.  Three-dimensional factors are copies
of su(2) and can be put into a standard cyclic frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import killing_orthonormalize
from .errors import DecompositionError, NotSemisimpleError
from .linalg import (
    TOL_KILLING,
    TOL_RANK,
    bracket_residual,
    commutator,
    coords_strict,
    empty_basis,
    extend_basis,
    hs_inner,
    member_coords,
)


def minimal_ideal(semisimple, seed, tol=TOL_RANK):
    """Smallest ideal of S containing the span of ``seed``.

    Iterates W <- W + [S, W] until the dimension stops growing; only the
    elements new in the previous sweep are bracketed again.  Seed
    elements must lie inside span(S).
    """
    for x in seed.mats:
        coords_strict(semisimple, x, tol, what="ideal seed element")
    w = extend_basis(empty_basis(semisimple.n), seed.mats, tol)
    new = list(w.mats)
    while new:
        candidates = [commutator(s, x) for x in new for s in semisimple.mats]
        before = w.dim
        w = extend_basis(w, candidates, tol)
        new = list(w.mats[before:])
    return w


@dataclass(frozen=True)
class IdealSet:
    """Distinct simple ideals plus the component -> ideal index map."""

    ideals: tuple   # (LieBasis, ...)
    origin: tuple   # origin[j] = ideal index generated by component j
    commutation_residual: float  # worst ||[x, y]||_F across distinct ideals
    invariance_residual: float   # worst part of [s, x] outside x's ideal


def simple_decompose(semisimple, primary, tol=TOL_RANK):
    """Simple-ideal decomposition of S from its primary components.

    A component already inside a known ideal belongs to it: minimal
    ideals of a semisimple algebra are simple, so any component inside
    one generates all of it.  Verifies that the ideal dimensions add up
    to dim S, that distinct ideals commute, and that each ideal is
    genuinely ad-S-invariant; both residuals (at 1e-8) are stored on the
    result.
    """
    ideals = []
    origin = []
    for _, comp in primary.components:
        for k, known in enumerate(ideals):
            if all(member_coords(known, x, tol) is not None for x in comp.mats):
                origin.append(k)
                break
        else:
            origin.append(len(ideals))
            ideals.append(minimal_ideal(semisimple, comp, tol))
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


def recognize_su2(ideal, tol=TOL_RANK, killing_tol=TOL_KILLING):
    """Standard cyclic frame (E1, E2, E3) of a 3-dimensional simple ideal.

    Killing-orthonormalizes, rescales by sqrt(2) and fixes orientation so
    that [E1, E2] = E3 cyclically (residuals at 1e-8).  Returns None when
    the input is not a copy of su(2).
    """
    if ideal.dim != 3:
        return None
    try:
        frame = math.sqrt(2.0) * killing_orthonormalize(ideal, killing_tol, tol)
    except NotSemisimpleError:
        return None
    e1, e2, e3 = frame
    if hs_inner(commutator(e1, e2), e3) < 0.0:
        e3 = -e3
    for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        if np.linalg.norm(commutator(a, b) - c) > 1e-8:
            return None
    return (e1, e2, e3)
