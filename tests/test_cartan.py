import numpy as np
import pytest

from dynlie import (
    LieBasis,
    cartan_subalgebra,
    centralizer,
    empty_basis,
    extend_basis,
    generate_closure,
    kron,
    levi_decompose,
)
from dynlie.errors import NotInSpanError

from conftest import SX, SY, SZ, I2, AD_DRIVE_1
from helpers import (
    commutator,
    from_coords,
    member_coords,
    normalizer,
    spans_equal,
    staged,
    structure_tensor,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


def block_diag(a, b):
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def two_block_su2_pair():
    """Two commuting half-spin algebras living on separate 2x2 blocks."""
    top = [block_diag(1j * s, np.zeros((2, 2))) for s in (SX, SY, SZ)]
    bottom = [block_diag(np.zeros((2, 2)), 1j * s) for s in (SX, SY, SZ)]
    return top, bottom


def centralizer_of(basis, x):
    """The library's centralizer of the member x in span(basis)."""
    rows = centralizer(structure_tensor(basis), np.eye(basis.dim),
                       member_coords(basis, x))
    return LieBasis(basis.n, from_coords(basis, rows))


class TestCentralizer:
    def test_two_spin_drive_pivot(self, two_spin_basis, two_spin_els):
        cent = centralizer_of(two_spin_basis, two_spin_els[0])
        assert cent.dim == 2
        assert spans_equal(cent.mats, two_spin_els[:2])

    def test_matches_printed_adjoint_kernel(self, two_spin_els):
        # Oracle: the kernel of the frozen adjoint literal picks out
        # exactly the first two coordinate directions.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        kernel = scipy_linalg.null_space(AD_DRIVE_1)
        assert kernel.shape[1] == 2
        np.testing.assert_allclose(kernel[2:], 0, atol=1e-12)

    def test_pivot_is_first_element(self, two_spin_basis, two_spin_els):
        cent = centralizer_of(two_spin_basis, two_spin_els[0])
        x_hat = two_spin_els[0] / np.linalg.norm(two_spin_els[0])
        np.testing.assert_allclose(cent.mats[0], x_hat, atol=1e-12)

    def test_su2_pivot(self, su2):
        cent = centralizer_of(su2, IZ)
        assert cent.dim == 1
        assert spans_equal(cent.mats, [IZ])

    def test_abelian_ambient(self, two_spin_els):
        basis = extend_basis(empty_basis(4), two_spin_els[:2])
        cent = centralizer_of(basis, two_spin_els[0])
        assert cent.dim == 2

    def test_nonmember_pivot_raises(self, su2):
        with pytest.raises(NotInSpanError):
            staged(cartan_subalgebra, su2, pivots=[1j * np.eye(2)])

    def test_zero_pivot_raises(self, su2):
        with pytest.raises(ValueError):
            centralizer(structure_tensor(su2), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            staged(cartan_subalgebra, su2, pivots=[np.zeros((2, 2))])

    def test_everything_commutes_with_result(self, two_spin_basis,
                                              two_spin_els):
        cent = centralizer_of(two_spin_basis, two_spin_els[0])
        for m in cent.mats:
            assert np.linalg.norm(commutator(m, two_spin_els[0])) < 1e-12


class TestNormalizer:
    def test_cartan_is_self_normalizing(self, two_spin_basis, two_spin_els):
        cartan = staged(cartan_subalgebra, two_spin_basis,
                                   pivots=[two_spin_els[0]]).cartan
        norm = normalizer(two_spin_basis, cartan)
        assert norm.dim == cartan.dim
        assert spans_equal(norm.mats, cartan.mats)

    def test_su2_axis(self, su2):
        axis = extend_basis(empty_basis(2), [IZ])
        norm = normalizer(su2, axis)
        assert norm.dim == 1
        assert spans_equal(norm.mats, [IZ])

    def test_whole_algebra_normalizes_itself(self, su2):
        norm = normalizer(su2, su2)
        assert norm.dim == 3


class TestCartanSubalgebra:
    def test_two_spin_with_drive_pivot(self, two_spin_basis, two_spin_els):
        result = staged(cartan_subalgebra, two_spin_basis, pivots=[two_spin_els[0]])
        assert result.cartan.dim == 2
        assert result.iterations == 1
        assert spans_equal(result.cartan.mats, two_spin_els[:2])
        # Mutual membership at tight tolerance.
        for el in two_spin_els[:2]:
            assert member_coords(result.cartan, el, tol=1e-9) is not None
        basis2 = extend_basis(empty_basis(4), two_spin_els[:2])
        for m in result.cartan.mats:
            assert member_coords(basis2, m, tol=1e-9) is not None

    def test_two_spin_abelian_output(self, two_spin_basis, two_spin_els):
        cartan = staged(cartan_subalgebra, two_spin_basis,
                                   pivots=[two_spin_els[0]]).cartan
        for i in range(cartan.dim):
            for j in range(i + 1, cartan.dim):
                br = commutator(cartan.mats[i], cartan.mats[j])
                assert np.linalg.norm(br) < 1e-8

    def test_even_codimension(self, two_spin_basis, two_spin_els):
        cartan = staged(cartan_subalgebra, two_spin_basis,
                                   pivots=[two_spin_els[0]]).cartan
        assert (two_spin_basis.dim - cartan.dim) % 2 == 0

    def test_su2(self, su2):
        result = staged(cartan_subalgebra, su2, pivots=[IZ])
        assert result.cartan.dim == 1
        assert spans_equal(result.cartan.mats, [IZ])

    def test_su2_default_pivot(self, su2):
        result = staged(cartan_subalgebra, su2)
        assert result.cartan.dim == 1

    def test_commuting_block_pair(self):
        top, bottom = two_block_su2_pair()
        basis = extend_basis(empty_basis(4), top + bottom)
        assert basis.dim == 6
        pivot = top[2] + bottom[2]
        result = staged(cartan_subalgebra, basis, pivots=[pivot])
        assert result.cartan.dim == 2
        assert spans_equal(result.cartan.mats, [top[2], bottom[2]])

    def test_degenerate_pivot_recurses(self):
        # A pivot living in only one block leaves the other whole block
        # in its centralizer; a second iteration must finish the job.
        top, bottom = two_block_su2_pair()
        basis = extend_basis(empty_basis(4), top + bottom)
        result = staged(cartan_subalgebra, basis, pivots=[top[2]])
        assert result.cartan.dim == 2
        assert result.iterations == 2

    def test_center_is_banked(self):
        # Semisimplicity is decided by the Levi split alone: u(2) gets its
        # center i*I plus a Cartan subalgebra of su(2).
        u2 = extend_basis(empty_basis(2), [1j * np.eye(2), IX, IY, IZ])
        cartan = staged(cartan_subalgebra, u2).cartan
        assert cartan.dim == 2
        assert member_coords(cartan, 1j * np.eye(2), tol=1e-12) is not None

    def test_empty_algebra_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            cartan_subalgebra(empty_basis(2), np.zeros((0, 0, 0)))

    def test_rejects_outside_pivot(self, two_spin_basis):
        with pytest.raises(NotInSpanError):
            staged(cartan_subalgebra, two_spin_basis, pivots=[1j * kron(SZ, I2)])

    def test_pivot_elements_recorded(self, two_spin_basis, two_spin_els):
        result = staged(cartan_subalgebra, two_spin_basis, pivots=[two_spin_els[0]])
        assert len(result.pivot_elements) == result.iterations

    def test_random_semisimple_parts(self, rng):
        from helpers import random_skew

        for _ in range(10):
            n = int(rng.integers(2, 5))
            gens = [random_skew(rng, n) for _ in range(2)]
            basis = generate_closure(gens)[0].basis
            semi = staged(levi_decompose, basis).semisimple
            if semi.dim == 0:
                continue
            result = staged(cartan_subalgebra, semi)
            cartan = result.cartan
            assert cartan.dim >= 1
            assert (semi.dim - cartan.dim) % 2 == 0
            for i in range(cartan.dim):
                for j in range(i + 1, cartan.dim):
                    br = commutator(cartan.mats[i], cartan.mats[j])
                    assert np.linalg.norm(br) < 1e-8
            # Maximal: self-normalizing inside the semisimple part.
            norm = normalizer(semi, cartan)
            assert norm.dim == cartan.dim
