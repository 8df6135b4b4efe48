import numpy as np
import pytest

from dynlie import (
    LieBasis,
    adjoint,
    extend_basis,
    generate_closure,
    structure_constants,
)
from dynlie.errors import NotClosedError, NotInSpanError
from dynlie.levi import levi_split

from conftest import SX, SY, SZ, I2, AD_DRIVE_1, AD_DRIVE_2, su2_triple
from helpers import (
    adjoint_in_span,
    from_coords,
    killing_gram_of,
    member_coords,
    random_skew,
    structure_tensor,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ

# Adjoint of i*sx on the ordered half-spin triple, worked out by hand
# from the cyclic bracket relations: [isx, isy] = isz, [isx, isz] = -isy.
AD_SU2_X = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
])


def su2_ordered_basis():
    basis = LieBasis(2)
    for el in su2_triple():
        basis = extend_basis(basis, [el])
    return basis


def ad_of(basis, x):
    """The library's coordinate ad_x for a member matrix x."""
    return adjoint(structure_constants(basis), member_coords(basis, x))


class TestAdjointMatrix:
    def test_su2_literal(self):
        ad = ad_of(su2_ordered_basis(), IX)
        np.testing.assert_allclose(ad, AD_SU2_X, atol=1e-12)

    def test_su2_eigenvalues(self):
        ad = ad_of(su2_ordered_basis(), IX)
        eigs = np.sort_complex(np.linalg.eigvals(ad))
        np.testing.assert_allclose(eigs, [-1j, 0, 1j], atol=1e-12)

    def test_two_spin_drive_literals(self, two_spin_basis, two_spin_els):
        ad1 = ad_of(two_spin_basis, two_spin_els[0])
        ad2 = ad_of(two_spin_basis, two_spin_els[1])
        np.testing.assert_allclose(ad1, AD_DRIVE_1, atol=1e-12)
        np.testing.assert_allclose(ad2, AD_DRIVE_2, atol=1e-12)

    def test_bracket_outside_span_raises(self):
        # [iZ, iX] leaves span{iZ, iX}: the structure constants, and so
        # every adjoint matrix, are refused.
        basis = extend_basis(LieBasis(2), [IZ, IX])
        with pytest.raises(NotClosedError):
            structure_constants(basis)
        with pytest.raises(NotInSpanError):
            adjoint_in_span(extend_basis(LieBasis(2), [IZ]), IX)

    def test_antisymmetric_in_orthonormal_basis(self, two_spin_basis, rng):
        # HS-orthonormal bases of skew-Hermitian algebras make every
        # adjoint matrix exactly antisymmetric.
        c = structure_constants(two_spin_basis)
        for _ in range(10):
            ad = adjoint(c, rng.standard_normal(6))
            assert np.linalg.norm(ad + ad.T) < 1e-12

    def test_linearity(self, su2, rng):
        x, y = random_skew(rng, 2), random_skew(rng, 2)
        x, y = x - np.trace(x) * np.eye(2) / 2, y - np.trace(y) * np.eye(2) / 2
        np.testing.assert_allclose(
            ad_of(su2, x + y), ad_of(su2, x) + ad_of(su2, y), atol=1e-12)

    def test_matches_commutator_oracle(self, rng):
        # Coordinates against n x n commutators and least squares.
        for _ in range(5):
            basis = generate_closure([random_skew(rng, 3)
                                      for _ in range(2)])[0].basis
            x = from_coords(basis, rng.standard_normal(basis.dim))[0]
            np.testing.assert_allclose(ad_of(basis, x),
                                       adjoint_in_span(basis, x), atol=1e-10)


class TestAdjointInSpan:
    def test_matches_basis_path(self, two_spin_basis, two_spin_els):
        ad_raw = adjoint_in_span(np.array(two_spin_els), two_spin_els[0])
        # Raw stack uses the listed elements as the (non-orthonormal)
        # frame, which here reproduces the printed matrix as well since
        # coupled pairs share norms.
        np.testing.assert_allclose(ad_raw, AD_DRIVE_1, atol=1e-10)

    def test_rejects_escape(self):
        mats = np.stack([IZ])
        with pytest.raises(NotInSpanError):
            adjoint_in_span(mats, IX)


class TestStructureTensor:
    def test_antisymmetric_in_first_two_slots(self, two_spin_basis):
        c = structure_tensor(two_spin_basis)
        np.testing.assert_allclose(c, -c.transpose(1, 0, 2), atol=1e-12)

    def test_su2_structure_constants(self):
        basis = su2_ordered_basis()
        # [e_i, e_j] = sqrt(2) eps_ijk e_k for the normalized half-spin
        # triple e_k = sqrt(2) i s_k.
        root2 = np.sqrt(2.0)
        expected = np.zeros((3, 3, 3))
        for i, j, k, sgn in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                             (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
            expected[i, j, k] = sgn * root2
        for c in (structure_tensor(basis), structure_constants(basis)):
            np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_unclosed_span_raises(self):
        basis = extend_basis(LieBasis(2), [IX, IY])
        with pytest.raises(NotClosedError):
            structure_tensor(basis)
        with pytest.raises(NotClosedError):
            structure_constants(basis)

    def test_library_matches_oracle(self, two_spin_basis, rng):
        bases = [two_spin_basis] + [
            generate_closure([random_skew(rng, n) for _ in range(2)])[0].basis
            for n in (2, 3, 4)]
        for basis in bases:
            np.testing.assert_allclose(structure_constants(basis),
                                       structure_tensor(basis), atol=1e-10)


def u2_basis():
    return extend_basis(LieBasis(2), [1j * np.eye(2), IX, IY, IZ])


def trace_form(c):
    """tr(ad_i ad_j) of the adjoint matrices of the basis elements."""
    ads = adjoint(c, np.eye(len(c)))
    return np.einsum("iab,jba->ij", ads, ads)


class TestKillingGram:
    def test_su2_unnormalized_stack(self):
        # Oracle: the hand-derived adjoint matrices of the half-spin
        # triple in its own frame are the 3x3 rotation generators, and
        # the trace-form of their products is -2 on the diagonal.
        gram = killing_gram_of(np.stack(su2_triple()))
        np.testing.assert_allclose(gram, -2.0 * np.eye(3), atol=1e-10)

    def test_su2_normalized_basis(self):
        # Scaling each element by sqrt(2) scales the bilinear form by 2.
        gram = trace_form(structure_tensor(su2_ordered_basis()))
        np.testing.assert_allclose(gram, -4.0 * np.eye(3), atol=1e-10)

    def test_u2_degenerate_direction(self):
        basis = u2_basis()
        gram = trace_form(structure_tensor(basis))
        assert basis.dim == 4
        np.testing.assert_allclose(gram[0], 0, atol=1e-12)
        np.testing.assert_allclose(gram[:, 0], 0, atol=1e-12)
        np.testing.assert_allclose(gram[1:, 1:], -4.0 * np.eye(3), atol=1e-10)

    def test_symmetric(self, two_spin_basis):
        gram = trace_form(structure_tensor(two_spin_basis))
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)

    def test_invariance_under_bracket(self, two_spin_basis, rng):
        # K([x,y], z) = -K(y, [x,z]) for members x, y, z, checked through
        # the adjoint matrices directly.
        c = structure_constants(two_spin_basis)
        for _ in range(5):
            adx, ady, adz = (adjoint(c, rng.standard_normal(6))
                             for _ in range(3))
            ad_xy = adx @ ady - ady @ adx
            lhs = np.trace(ad_xy @ adz)
            ad_xz = adx @ adz - adz @ adx
            rhs = -np.trace(ady @ ad_xz)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_matches_stack_oracle(self, two_spin_basis):
        for basis in (two_spin_basis, u2_basis(), su2_ordered_basis()):
            np.testing.assert_allclose(
                trace_form(structure_constants(basis)),
                killing_gram_of(basis), atol=1e-10)


class TestIsSemisimple:
    """The Levi split is the one semisimplicity decision: the algebra is
    semisimple when its semisimple part is all of it."""

    @staticmethod
    def semisimple(basis):
        c = structure_tensor(basis)
        return len(c) > 0 and levi_split(c)[1] == len(c)

    def test_su2_true(self, su2):
        assert self.semisimple(su2)

    def test_two_spin_true(self, two_spin_basis):
        assert self.semisimple(two_spin_basis)

    def test_u2_false(self):
        assert not self.semisimple(u2_basis())

    def test_abelian_false(self):
        basis = extend_basis(LieBasis(2), [IZ])
        assert not self.semisimple(basis)

    def test_empty_false(self):
        assert not self.semisimple(LieBasis(2))
