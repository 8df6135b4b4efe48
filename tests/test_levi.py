import numpy as np
import pytest

from dynlie import (
    LieBasis,
    extend_basis,
    generate_closure,
    levi_decompose,
)

from conftest import SX, SY, SZ
from helpers import (
    commutator,
    hs_inner,
    killing_gram_of,
    member_coords,
    negative_definite,
    random_skew,
    span_contains,
    spans_equal,
    staged,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


def u2_basis():
    return extend_basis(LieBasis(2), [1j * np.eye(2), IX, IY, IZ])


class TestCenter:
    def test_semisimple_has_trivial_center(self, two_spin_basis):
        assert staged(levi_decompose, two_spin_basis).radical.dim == 0

    def test_abelian_center_is_everything(self, two_spin_els):
        basis = extend_basis(LieBasis(4), two_spin_els[:2])
        assert staged(levi_decompose, basis).radical.dim == 2

    def test_u2_center_is_identity_line(self):
        c = staged(levi_decompose, u2_basis()).radical
        assert c.dim == 1
        direction = 1j * np.eye(2) / np.sqrt(2.0)
        assert abs(abs(hs_inner(c.mats[0], direction)) - 1.0) < 1e-10

    def test_u2_center_against_scipy_nullspace(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        basis = u2_basis()
        d = basis.dim
        # The centering condition written out longhand: stack the
        # vectorized brackets of each candidate coordinate direction with
        # every basis element and ask scipy for the kernel.
        cols = []
        for j in range(d):
            col = []
            for k in range(d):
                br = commutator(basis.mats[j], basis.mats[k])
                col.append(np.concatenate([br.real.ravel(), br.imag.ravel()]))
            cols.append(np.concatenate(col))
        big = np.array(cols).T
        kernel = scipy_linalg.null_space(big)
        assert kernel.shape[1] == staged(levi_decompose, basis).radical.dim

    def test_empty(self):
        assert staged(levi_decompose, LieBasis(2)).radical.dim == 0


class TestDerivedAlgebra:
    def test_semisimple_derived_is_whole(self, two_spin_basis):
        der = staged(levi_decompose, two_spin_basis).semisimple
        assert der.dim == 6
        for el in two_spin_basis.mats:
            assert member_coords(der, el) is not None

    def test_abelian_derived_is_zero(self, two_spin_els):
        basis = extend_basis(LieBasis(4), two_spin_els[:2])
        assert staged(levi_decompose, basis).semisimple.dim == 0

    def test_u2_derived_is_traceless_part(self):
        der = staged(levi_decompose, u2_basis()).semisimple
        assert der.dim == 3
        for el in (IX, IY, IZ):
            assert member_coords(der, el) is not None
        assert member_coords(der, 1j * np.eye(2)) is None


class TestLeviDecompose:
    def test_two_spin(self, two_spin_basis):
        split = staged(levi_decompose, two_spin_basis)
        assert split.radical.dim == 0
        assert split.semisimple.dim == 6
        assert split.radical_lines == ()

    def test_u2(self):
        split = staged(levi_decompose, u2_basis())
        assert split.radical.dim == 1
        assert split.semisimple.dim == 3
        assert len(split.radical_lines) == 1
        assert split.radical_lines[0].dim == 1
        assert spans_equal(split.semisimple.mats, [IX, IY, IZ])

    def test_abelian(self, two_spin_els):
        basis = extend_basis(LieBasis(4), two_spin_els[:2])
        split = staged(levi_decompose, basis)
        assert split.radical.dim == 2
        assert split.semisimple.dim == 0
        assert len(split.radical_lines) == 2

    def test_empty(self):
        split = staged(levi_decompose, LieBasis(3))
        assert split.radical.dim == 0
        assert split.semisimple.dim == 0

    def test_radical_orthogonal_to_semisimple(self):
        split = staged(levi_decompose, u2_basis())
        for r in split.radical.mats:
            for s in split.semisimple.mats:
                assert abs(hs_inner(r, s)) < 1e-12

    def test_invariants_on_random_closures(self, rng):
        seen_mixed = 0
        for _ in range(30):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            gens = [random_skew(rng, n) for _ in range(k)]
            basis = generate_closure(gens)[0].basis
            if basis.dim == 0:
                continue
            split = staged(levi_decompose, basis)
            rad, semi = split.radical, split.semisimple
            assert rad.dim + semi.dim == basis.dim
            if rad.dim and semi.dim:
                seen_mixed += 1
            # The radical commutes with everything in the algebra.
            for r in rad.mats:
                for x in basis.mats:
                    assert np.linalg.norm(commutator(r, x)) < 1e-8
            # And is Abelian in particular.
            for i in range(rad.dim):
                for j in range(i + 1, rad.dim):
                    br = commutator(rad.mats[i], rad.mats[j])
                    assert np.linalg.norm(br) < 1e-8
            if semi.dim:
                assert negative_definite(killing_gram_of(semi))
            # The two halves recombine to the original span.
            combined = extend_basis(semi, rad.mats)
            assert combined.dim == basis.dim
            for x in basis.mats:
                assert span_contains(
                    list(rad.mats) + list(semi.mats), x)
        assert seen_mixed > 0
