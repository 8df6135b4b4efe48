import numpy as np
import pytest

from dynlie import (
    analyze_system,
    cartan_subalgebra,
    control_system,
    empty_basis,
    extend_basis,
    generate_closure,
    levi_decompose,
    primary_decompose,
)
from dynlie import primary
from dynlie.errors import SplittingSearchError
from dynlie.primary import _coefficient_candidates

from conftest import SX, SY, SZ, AD_DRIVE_1, AD_DRIVE_2, su2_triple
from helpers import (commutator, member_coords, random_skew, site,
                     spans_equal, staged)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


def two_spin_cartan(two_spin_els):
    basis = empty_basis(4)
    for el in two_spin_els[:2]:
        basis = extend_basis(basis, [el])
    return basis


class TestCoefficientCandidates:
    def test_integer_sweep_order(self):
        gen = _coefficient_candidates(2, 6)
        first = [next(gen) for _ in range(4)]
        np.testing.assert_allclose(first[0], [1.0, 1.0])
        np.testing.assert_allclose(first[1], [1.0, 2.0])
        np.testing.assert_allclose(first[2], [1.0, 3.0])
        np.testing.assert_allclose(first[3], [1.0, 4.0])

    def test_single_coefficient(self):
        gen = _coefficient_candidates(1, 3)
        np.testing.assert_allclose(next(gen), [1.0])

    @pytest.mark.parametrize("m, dim, points", [
        (1, 7, 1),    # m = 1 has one point whatever p is
        (2, 2, 1),    # dim = m: no root pair to separate
        (2, 6, 5),    # su(3): (2 - 1) * 2^2 + 1
        (5, 15, 101),  # su(2)^5: (5 - 1) * 5^2 + 1
    ])
    def test_moment_curve_points(self, m, dim, points):
        cands = np.array(list(_coefficient_candidates(m, dim)))
        curve = [[float(t) ** i for i in range(m)]
                 for t in range(1, points + 1)]
        assert np.array_equal(cands, curve)


class TestFindSplittingElement:
    def test_aligned_pivots_on_five_qubits(self, monkeypatch):
        # Decoupled qubits with pivots iZ_1..iZ_5 give a Cartan basis
        # along the copies of su(2)^5: (1, ..., 1) gives every copy the
        # same frequency, and the curve's second point (1, 2, 4, 8, 16)
        # splits.
        calls = []
        split_spectrum = primary._split_spectrum

        def spy(*args):
            calls.append(args)
            return split_spectrum(*args)

        monkeypatch.setattr(primary, "_split_spectrum", spy)
        k = 5
        system = control_system(sum(site("z", i, k) for i in range(k)),
                                [site("x", i, k) for i in range(k)])
        result = analyze_system(
            system, pivots=[1j * site("z", i, k) for i in range(k)])
        assert len(calls) == 2
        assert result.primary.splitting.coeffs.tolist() == [1, 2, 4, 8, 16]
        assert len(result.primary.components) == k

    def test_two_spin_first_accepted_pair(self, two_spin_els,
                                           two_spin_basis):
        cartan = two_spin_cartan(two_spin_els)
        semi = two_spin_basis
        found = staged(primary_decompose, semi, cartan).splitting
        np.testing.assert_allclose(found.coeffs, [1.0, 2.0])
        np.testing.assert_allclose(found.frequencies, [3.0, 1.0],
                                   atol=1e-10)
        expected = two_spin_els[0] + 2.0 * two_spin_els[1]
        np.testing.assert_allclose(found.element, expected, atol=1e-12)

    def test_two_spin_spectrum_from_printed_adjoints(self):
        # Oracle: the eigenvalues of the frozen 6x6 literal combination
        # M1 + 2 M2 are {0, 0, +-i, +-3i}.
        ad = AD_DRIVE_1 + 2.0 * AD_DRIVE_2
        eigs = np.linalg.eigvals(ad)
        assert np.max(np.abs(eigs.real)) < 1e-12
        imag = np.sort(eigs.imag)
        np.testing.assert_allclose(imag, [-3, -1, 0, 0, 1, 3], atol=1e-12)

    def test_two_spin_rejects_degenerate_combos(self, two_spin_els,
                                                two_spin_basis):
        cartan = two_spin_cartan(two_spin_els)
        for coeffs in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
            with pytest.raises(SplittingSearchError):
                staged(primary_decompose, two_spin_basis, cartan, coeffs=[coeffs])

    def test_two_spin_nearly_equal_weights(self, two_spin_els,
                                           two_spin_basis):
        # The slow pair sits at 1e-4, a gap that squaring in
        # ad^2 + a^2 used to halve below the rank tolerance.
        cartan = two_spin_cartan(two_spin_els)
        result = staged(primary_decompose, two_spin_basis, cartan,
                                   coeffs=[[1.0, 1.0001]])
        np.testing.assert_allclose(result.splitting.frequencies,
                                   [2.0001, 1e-4], rtol=1e-8)
        assert result.invariance_residual < 1e-8
        assert [comp.dim for _, comp in result.components] == [2, 2]

    def test_equal_weights_spectrum_collides(self):
        # Why (1, 1) fails: the sum M1 + M2 annihilates the whole slow
        # half, so its kernel is 4-dimensional instead of matching the
        # 2-dimensional Cartan algebra.
        ad = AD_DRIVE_1 + AD_DRIVE_2
        imag = np.sort(np.linalg.eigvals(ad).imag)
        np.testing.assert_allclose(imag, [-2, 0, 0, 0, 0, 2], atol=1e-12)

    def test_su2(self, su2):
        cartan = extend_basis(empty_basis(2), [IZ])
        found = staged(primary_decompose, su2, cartan).splitting
        np.testing.assert_allclose(found.coeffs, [1.0])
        # The normalized Cartan element is sqrt(2) i sz, whose adjoint
        # rotates the orthogonal plane at sqrt(2).
        np.testing.assert_allclose(found.frequencies, [np.sqrt(2.0)],
                                   atol=1e-10)

    def test_frequencies_strictly_decreasing(self, rng):
        for _ in range(5):
            gens = [random_skew(rng, 3) for _ in range(2)]
            semi = staged(levi_decompose, generate_closure(gens).basis).semisimple
            if semi.dim == 0:
                continue
            cartan = staged(cartan_subalgebra, semi).cartan
            found = staged(primary_decompose, semi, cartan).splitting
            freqs = np.asarray(found.frequencies)
            assert np.all(freqs[:-1] > freqs[1:])
            assert np.all(freqs > 0)
            assert 2 * len(freqs) + cartan.dim == semi.dim


class TestPrimaryDecompose:
    def test_two_spin_component_spans(self, two_spin_els, two_spin_basis):
        l1, l2, l3, l4, l5, l6 = two_spin_els
        cartan = two_spin_cartan(two_spin_els)
        result = staged(primary_decompose, two_spin_basis, cartan)
        comps = result.components
        assert len(comps) == 2
        np.testing.assert_allclose(result.splitting.frequencies, [3.0, 1.0],
                                   atol=1e-10)
        (freq_fast, fast), (freq_slow, slow) = comps
        assert freq_fast == pytest.approx(3.0, abs=1e-10)
        assert freq_slow == pytest.approx(1.0, abs=1e-10)
        # Fast component: the antisymmetric coupling combinations.
        assert fast.dim == 2
        assert spans_equal(fast.mats, [l5 + l6, l3 - l4])
        # Slow component: the symmetric ones.
        assert slow.dim == 2
        assert spans_equal(slow.mats, [l5 - l6, l3 + l4])
        for el in (l5 + l6, l3 - l4):
            assert member_coords(fast, el, tol=1e-8) is not None
        for el in (l5 - l6, l3 + l4):
            assert member_coords(slow, el, tol=1e-8) is not None

    def test_two_spin_dimension_budget(self, two_spin_els, two_spin_basis):
        cartan = two_spin_cartan(two_spin_els)
        result = staged(primary_decompose, two_spin_basis, cartan)
        total = cartan.dim + sum(v.dim for _, v in result.components)
        assert total == two_spin_basis.dim

    def test_su2_component(self, su2):
        cartan = extend_basis(empty_basis(2), [IZ])
        result = staged(primary_decompose, su2, cartan)
        assert len(result.components) == 1
        freq, comp = result.components[0]
        assert freq == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert spans_equal(comp.mats, [IX, IY])

    def test_components_cartan_invariant(self, two_spin_els,
                                          two_spin_basis):
        cartan = two_spin_cartan(two_spin_els)
        result = staged(primary_decompose, two_spin_basis, cartan)
        for _, comp in result.components:
            for a in cartan.mats:
                for v in comp.mats:
                    br = commutator(a, v)
                    assert member_coords(comp, br, tol=1e-8) is not None

    def test_rotation_form_on_components(self, two_spin_els,
                                          two_spin_basis):
        # Within each two-dimensional component the adjoint of any
        # Cartan element acts as a planar rotation generator.
        cartan = two_spin_cartan(two_spin_els)
        result = staged(primary_decompose, two_spin_basis, cartan)
        for _, comp in result.components:
            for a in cartan.mats:
                block = np.empty((2, 2))
                for j in range(2):
                    br = commutator(a, comp.mats[j])
                    coords = member_coords(comp, br, tol=1e-8)
                    assert coords is not None
                    block[:, j] = coords
                assert abs(block[0, 0]) < 1e-8
                assert abs(block[1, 1]) < 1e-8
                assert abs(block[0, 1] + block[1, 0]) < 1e-8

    def test_non_semisimple_input_has_no_splitting_element(self, su2):
        # u(2) with a one-dimensional "Cartan" algebra: the central
        # direction keeps a second zero eigenvalue in every ad_X, so no
        # candidate splits.  Semisimplicity itself is decided only by
        # the Levi split.
        u2 = extend_basis(su2, [1j * np.eye(2)])
        cartan = extend_basis(empty_basis(2), [IZ])
        with pytest.raises(SplittingSearchError):
            staged(primary_decompose, u2, cartan)

    def test_random_semisimple_parts(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 5))
            gens = [random_skew(rng, n) for _ in range(2)]
            semi = staged(levi_decompose, generate_closure(gens).basis).semisimple
            if semi.dim == 0:
                continue
            cartan = staged(cartan_subalgebra, semi).cartan
            result = staged(primary_decompose, semi, cartan)
            assert cartan.dim + sum(
                v.dim for _, v in result.components) == semi.dim
            for _, comp in result.components:
                assert comp.dim == 2
                for a in cartan.mats:
                    for v in comp.mats:
                        br = commutator(a, v)
                        assert member_coords(comp, br, tol=1e-8) is not None
