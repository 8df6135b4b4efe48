"""Simple ideals of a compact semisimple algebra, and su(2) recognition.

Each primary component is the real root plane V_j of a pair of roots
+/- a_j.  Planes in different simple ideals commute.  Inside one ideal
the roots are chained by non-orthogonal pairs, and for non-orthogonal
roots b != +/- a one of a + b, a - b is again a root, so those planes do
not commute.  The simple ideals are therefore the connected classes of
the relation [V_j, V_l] != 0, each spanned by its planes plus their
brackets [x_j, y_j]: nonzero multiples of the coroots, which span the
ideal's part of the Cartan algebra (de Graaf, Lie Algebras: Theory and
Algorithms, ch. 4).  All of it is read from the structure constants of
S: the plane brackets, the coroots and both residuals are contractions
of c with coordinate rows.  Three-dimensional factors are copies of
su(2) and can be put into a standard cyclic frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import (bracket_coords, killing_orthonormalize,
                      structure_constants)
from .errors import DecompositionError, NotSemisimpleError
from .linalg import TOL_RANK, _class_firsts, _gate, _significant


@dataclass(frozen=True)
class IdealSet:
    """Distinct simple ideals plus the component -> ideal index map."""

    ideals: tuple   # (LieBasis, ...)
    origin: tuple   # origin[j] = index of the ideal containing component j
    commutation_residual: float  # worst ||[x, y]||_F across distinct ideals
    invariance_residual: float   # worst part of [s, x] outside x's ideal
    su2: tuple      # su2[i]: ideal i is 3-dimensional, so a copy of su(2)


def simple_decompose(semisimple, c, primary, tol=TOL_RANK):
    """Simple-ideal decomposition of S from its primary components.

    ``c`` holds the structure constants of ``semisimple``.  Components
    are linked when their planes fail to commute (a bracket norm above
    ``tol``); each connected class spans one ideal with the brackets
    [x_j, y_j] of its planes, cut to their rank at ``tol`` by
    ``linalg._significant``.  Ideals are ordered by their first
    component.  Verifies that the ideal dimensions add up to dim S, that
    distinct ideals commute, and that each ideal is genuinely
    ad-S-invariant (``linalg._gate``); both residuals are stored on the
    result.  Each ideal's su(2) flag is read from its dimension:
    every 3-dimensional compact simple algebra is su(2).
    """
    s = semisimple.dim
    planes = np.concatenate([semisimple.coords(comp, tol)
                             for _, comp in primary.components])
    pair = bracket_coords(c, planes, planes)
    m = len(planes) // 2
    norms = np.linalg.norm(pair, axis=-1).reshape(m, 2, m, 2).max(axis=(1, 3))
    firsts, origin = np.unique(_class_firsts((norms > tol) | (norms.T > tol)),
                               return_inverse=True)
    rows = []
    for i in range(len(firsts)):
        members = np.flatnonzero(origin == i)
        coroots = np.array([pair[2 * j, 2 * j + 1] for j in members])
        _, sv, vh = np.linalg.svd(coroots, full_matrices=False)
        rank = int(np.count_nonzero(_significant(sv, tol)))
        rows.append(np.concatenate(
            [planes[2 * j : 2 * j + 2] for j in members] + [vh[:rank]]))
    total = sum(len(r) for r in rows)
    if total != s:
        raise DecompositionError(
            f"simple ideals cover dim {total} of {s}")
    worst_cross = _gate(max(
        (np.linalg.norm(bracket_coords(c, a, b), axis=-1).max()
         for i, a in enumerate(rows) for b in rows[i + 1:]), default=0.0),
        "ideals fail to commute")
    # (r @ c)[j, q] holds the coordinates of [e_j, x_q] for the basis
    # element e_j of S and the ideal row x_q; its part outside the ideal
    # must vanish.
    worst_inv = _gate(max(
        (np.linalg.norm(r @ c @ (np.eye(s) - r.T @ r), axis=-1).max()
         for r in rows), default=0.0), "an ideal is not ad-invariant")
    ideals = semisimple.span(np.concatenate(rows)).parts(
        [len(r) for r in rows])
    return IdealSet(ideals=ideals, origin=tuple(origin.tolist()),
                    commutation_residual=worst_cross,
                    invariance_residual=worst_inv,
                    su2=tuple(len(r) == 3 for r in rows))


def _su2_frame(c, tol):
    """Coordinate rows of the standard cyclic frame (E1, E2, E3) of the
    3-dimensional algebra with structure constants ``c``, or None when it
    is not a copy of su(2).

    Killing-orthonormalizes, rescales by sqrt(2) and fixes orientation so
    that [E1, E2] = E3 cyclically, with residuals at ``tol``.
    """
    try:
        frame = math.sqrt(2.0) * killing_orthonormalize(c)
    except NotSemisimpleError:
        return None
    br = bracket_coords(c, frame, frame)
    if br[0, 1] @ frame[2] < 0.0:
        frame[2] = -frame[2]
        br = bracket_coords(c, frame, frame)
    if max(np.linalg.norm(br[i, (i + 1) % 3] - frame[(i + 2) % 3])
           for i in range(3)) > tol:
        return None
    return frame


def recognize_su2(ideal, tol=TOL_RANK):
    """Standard cyclic frame (E1, E2, E3), [E1, E2] = E3 cyclically, of a
    3-dimensional simple ideal, or None when it is not a copy of su(2);
    its structure constants and the frame are checked at ``tol``."""
    if ideal.dim != 3:
        return None
    frame = _su2_frame(structure_constants(ideal, tol), tol)
    return None if frame is None else tuple(np.tensordot(frame, ideal.mats, 1))
