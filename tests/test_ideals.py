from unittest import mock

import numpy as np

from dynlie import (
    analyze_system,
    cartan_subalgebra,
    empty_basis,
    extend_basis,
    generate_closure,
    is_semisimple,
    levi_decompose,
    primary_decompose,
    recognize_su2,
    simple_decompose,
    two_spin_system,
)
from dynlie import ideals

from conftest import SX, SY, SZ
from helpers import (
    commutator,
    killing_gram_of,
    member_coords,
    random_skew,
    span_contains,
    spans_equal,
    staged,
    structure_tensor,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


def two_spin_pipeline(two_spin_basis, two_spin_els):
    cartan = empty_basis(4)
    for el in two_spin_els[:2]:
        cartan = extend_basis(cartan, [el])
    primary = staged(primary_decompose, two_spin_basis, cartan)
    return primary


class TestMinimalIdeal:
    """The ideal a component is assigned is the minimal ideal containing it."""

    def test_two_spin_components_generate_halves(self, two_spin_basis,
                                                 two_spin_els, ab):
        a_triple, b_triple = ab
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        (_, fast), (_, slow) = primary.components
        ideal_fast, ideal_slow = (ideal_set.ideals[k]
                                  for k in ideal_set.origin)
        assert ideal_fast.dim == 3
        assert ideal_slow.dim == 3
        assert spans_equal(ideal_fast.mats, a_triple)
        assert spans_equal(ideal_slow.mats, b_triple)
        for comp, ideal in ((fast, ideal_fast), (slow, ideal_slow)):
            for x in comp.mats:
                assert span_contains(ideal.mats, x)

    def test_su2_seed_grows_to_whole(self, su2):
        # One root plane plus its coroot [x, y] is all of su(2).
        cartan = extend_basis(empty_basis(2), [IZ])
        primary = staged(primary_decompose, su2, cartan)
        ideal_set = staged(simple_decompose, su2, primary)
        assert [i.dim for i in ideal_set.ideals] == [3]
        assert spans_equal(ideal_set.ideals[0].mats, su2.mats)

    def test_result_is_ad_invariant(self, two_spin_basis, two_spin_els):
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        ideal = ideal_set.ideals[ideal_set.origin[0]]
        for s in two_spin_basis.mats:
            for x in ideal.mats:
                assert member_coords(ideal, commutator(s, x),
                                     tol=1e-8) is not None


class TestSimpleDecompose:
    def test_two_spin_two_ideals(self, two_spin_basis, two_spin_els, ab):
        a_triple, b_triple = ab
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        assert len(ideal_set.ideals) == 2
        assert ideal_set.origin == (0, 1)
        dims = sorted(i.dim for i in ideal_set.ideals)
        assert dims == [3, 3]
        assert spans_equal(ideal_set.ideals[0].mats, a_triple)
        assert spans_equal(ideal_set.ideals[1].mats, b_triple)

    def test_two_spin_ideals_commute(self, two_spin_basis, two_spin_els):
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        first, second = ideal_set.ideals
        for x in first.mats:
            for y in second.mats:
                assert np.linalg.norm(commutator(x, y)) < 1e-8

    def test_two_spin_killing_block_diagonal(self, two_spin_basis,
                                             two_spin_els):
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        stacked = np.concatenate([i.mats for i in ideal_set.ideals])
        gram = killing_gram_of(stacked)
        np.testing.assert_allclose(gram[:3, 3:], 0, atol=1e-8)
        np.testing.assert_allclose(gram[3:, :3], 0, atol=1e-8)

    def test_each_ideal_semisimple(self, two_spin_basis, two_spin_els):
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        for ideal in ideal_set.ideals:
            assert is_semisimple(structure_tensor(ideal))

    def test_block_pair_recovers_blocks(self):
        def embed_top(s):
            out = np.zeros((4, 4), dtype=complex)
            out[:2, :2] = 1j * s
            return out

        def embed_bottom(s):
            out = np.zeros((4, 4), dtype=complex)
            out[2:, 2:] = 1j * s
            return out

        top = [embed_top(s) for s in (SX, SY, SZ)]
        bottom = [embed_bottom(s) for s in (SX, SY, SZ)]
        closure, _ = generate_closure([top[0], top[1], bottom[0], bottom[1]])
        assert closure.dim == 6
        semi = staged(levi_decompose, closure.basis).semisimple
        assert semi.dim == 6
        cartan = staged(cartan_subalgebra, semi, pivots=[top[2] + bottom[2]]).cartan
        primary = staged(primary_decompose, semi, cartan)
        ideal_set = staged(simple_decompose, semi, primary)
        assert sorted(i.dim for i in ideal_set.ideals) == [3, 3]
        found_top = any(spans_equal(i.mats, top) for i in ideal_set.ideals)
        found_bottom = any(spans_equal(i.mats, bottom)
                           for i in ideal_set.ideals)
        assert found_top and found_bottom

    def test_simple_algebra_merges_components(self, rng):
        # The root planes of a simple algebra are all linked, so they
        # span one ideal: the whole algebra.
        while True:
            gens = [random_skew(rng, 3) for _ in range(2)]
            gens = [g - np.trace(g) * np.eye(3) / 3 for g in gens]
            closure, _ = generate_closure(gens)
            if closure.dim == 8:
                break
        semi = staged(levi_decompose, closure.basis).semisimple
        assert semi.dim == 8
        cartan = staged(cartan_subalgebra, semi).cartan
        assert cartan.dim == 2
        primary = staged(primary_decompose, semi, cartan)
        assert len(primary.components) == 3
        ideal_set = staged(simple_decompose, semi, primary)
        assert len(ideal_set.ideals) == 1
        assert ideal_set.ideals[0].dim == 8
        assert ideal_set.origin == (0, 0, 0)

    def test_su2_flags_read_from_the_dimension(self):
        # Every 3-dimensional compact simple algebra is su(2): the
        # pipeline fits no frame to decide the flags.
        with mock.patch.object(ideals, "_su2_frame",
                               wraps=ideals._su2_frame) as spy:
            analysis = analyze_system(two_spin_system())
        spy.assert_not_called()
        assert [i.dim for i in analysis.ideals.ideals] == [3, 3]
        assert analysis.ideals.su2 == (True, True)


class TestRecognizeSu2:
    def test_two_spin_ideals(self, two_spin_basis, two_spin_els, ab):
        a_triple, b_triple = ab
        primary = two_spin_pipeline(two_spin_basis, two_spin_els)
        ideal_set = staged(simple_decompose, two_spin_basis, primary)
        for ideal, triple in zip(ideal_set.ideals, (a_triple, b_triple)):
            frame = recognize_su2(ideal)
            assert frame is not None
            e1, e2, e3 = frame
            np.testing.assert_allclose(commutator(e1, e2), e3, atol=1e-8)
            np.testing.assert_allclose(commutator(e2, e3), e1, atol=1e-8)
            np.testing.assert_allclose(commutator(e3, e1), e2, atol=1e-8)
            for e in frame:
                assert span_contains(triple, e)
            # Basis independent scale check: the Killing gram of a
            # standard frame is -2 on the diagonal.
            gram = killing_gram_of(np.stack(frame))
            np.testing.assert_allclose(gram, -2.0 * np.eye(3), atol=1e-8)

    def test_su2_itself(self, su2):
        frame = recognize_su2(su2)
        assert frame is not None
        e1, e2, e3 = frame
        np.testing.assert_allclose(commutator(e1, e2), e3, atol=1e-10)

    def test_wrong_dimension_returns_none(self, two_spin_basis):
        assert recognize_su2(two_spin_basis) is None

    def test_abelian_three_dims_returns_none(self):
        diag = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
        for k in range(3):
            diag[k][k, k] = 1j
        basis = extend_basis(empty_basis(3), diag)
        assert basis.dim == 3
        assert recognize_su2(basis) is None

    def test_orientation_fixed_for_flipped_input(self, su2):
        # Feed a left-handed ordering; the recognizer must still come
        # back with a right-handed cyclic frame.
        flipped = extend_basis(empty_basis(2), [IY, IX, IZ])
        frame = recognize_su2(flipped)
        assert frame is not None
        e1, e2, e3 = frame
        np.testing.assert_allclose(commutator(e1, e2), e3, atol=1e-10)
        np.testing.assert_allclose(commutator(e2, e3), e1, atol=1e-10)
