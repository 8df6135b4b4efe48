"""Bracket closure of a generating set and the controllability verdict.

The dynamical Lie algebra of a control system is the smallest real Lie
algebra containing i times its Hamiltonian terms.  Nested brackets of
generators are enough to span it, so the schedule only brackets each new
layer of basis elements against the original generators; depth counts
productive layers, and it stops once the span is all of u(n) or su(n).
A final all-pairs sweep guards the schedule against borderline rank
rejections and guarantees the returned basis really is a subalgebra;
its last pass gives the structure constants and the closure check.
Both take their brackets in row blocks of bounded size, so a closure
never holds all d^2 brackets of its basis at once.
"""

from dataclasses import dataclass

import numpy as np

from .adjoint import closed, projected_brackets
from .linalg import (LieBasis, TOL_RANK, bracket_blocks, extend_basis,
                     hermitian_part)

CONTROLLABLE_U = "controllable-U"
CONTROLLABLE_SU = "controllable-SU"
UNCONTROLLABLE = "uncontrollable"


@dataclass(frozen=True)
class ClosureResult:
    """Closed algebra basis plus bookkeeping about how it was reached.

    ``depth_reached`` is the last bracket depth that produced a new
    direction (0 when the generators alone already span the algebra);
    ``generators_used`` counts the nonzero generators that entered the
    bracketing schedule.
    """

    basis: LieBasis
    depth_reached: int
    generators_used: int

    @property
    def dim(self):
        return self.basis.dim


def generate_closure(generators, tol=TOL_RANK):
    """Close a list of skew-Hermitian generators under commutators.

    Generators are validated; those with a norm above ``tol`` times the
    largest one are normalized to unit Frobenius norm and seeded as depth
    0.  Each subsequent layer brackets the previous layer's new basis
    elements against the original generators.  The loop stops when a
    layer adds nothing or the span is all of u(n) or su(n), where no
    bracket can add a direction.  All-zero input yields the empty basis
    at depth 0.  Returns the ClosureResult and the structure constants
    c[i, j, k] = <e_k, [e_i, e_j]> of its basis (see :func:`_closure_sweep`).
    """
    gens = [hermitian_part(g, skew=True) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ValueError("generators must share one ambient dimension")

    # A generator counts when its norm exceeds ``tol`` times the largest
    # one, so rescaling the whole system does not change the algebra.
    norms = [np.linalg.norm(g) for g in gens]
    top = max(norms)
    normalized = [g / norm for g, norm in zip(gens, norms)
                  if norm > tol * top]

    basis = extend_basis(LieBasis(n), normalized, tol)
    new = basis.mats
    depth = 0
    while len(new) and _whole_algebra(basis) is None:
        before = basis.dim
        for _, block in bracket_blocks(new, normalized):
            basis = extend_basis(basis, block.reshape(-1, n, n), tol)
        new = basis.mats[before:]
        depth += len(new) > 0

    basis, c = _closure_sweep(basis, tol)
    return ClosureResult(basis, depth, len(normalized)), c


def _closure_sweep(basis, tol):
    """All-pairs brackets until a pass adds nothing, so the result is a
    genuine subalgebra even if the layered schedule lost a direction to a
    borderline rank decision (a drift that mixes scales can do that).

    Each pass projects its stack's brackets onto its span, one row block
    at a time (:func:`adjoint.projected_brackets`), and hands each block
    to ``extend_basis``: the candidates and their order are those of one
    call over all d^2 brackets.  The pass that adds nothing returns its
    basis and c, once :func:`adjoint.closed` accepts them.
    """
    n = basis.n
    while True:
        c, worst, grown = np.empty((basis.dim,) * 3), 0.0, basis
        for block, resid in projected_brackets(basis, c):
            worst = max(worst, resid)
            grown = extend_basis(grown, block.reshape(-1, n, n), tol)
        if grown.dim == basis.dim:
            return basis, closed(c, worst, tol)
        basis = grown


def _whole_algebra(basis):
    """CONTROLLABLE_U when ``basis`` spans all of u(n), CONTROLLABLE_SU when
    it has dimension n^2 - 1 with every element traceless (|tr| <= 1e-9),
    so spans su(n); None otherwise."""
    n = basis.n
    if basis.dim == n * n:
        return CONTROLLABLE_U
    if basis.dim == n * n - 1 and np.abs(np.trace(
            basis.mats, axis1=1, axis2=2)).max(initial=0.0) <= 1e-9:
        return CONTROLLABLE_SU
    return None


def is_controllable(result):
    """Controllability verdict: :func:`_whole_algebra`, else uncontrollable."""
    return _whole_algebra(result.basis) or UNCONTROLLABLE
