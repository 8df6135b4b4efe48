"""End-to-end acceptance gate.

One test per contract item, in order: the golden two-spin facts first
(closure, verdict, Levi, Cartan, adjoint literals, splitting element,
primary components, simple ideals, generator pieces, factorized
propagation), then the randomized structural suites (Levi invariants,
primary decomposition conditions).  Each test finishes by printing a
single PASS line naming what was verified.
"""

import numpy as np
import pytest

from dynlie import (
    ControlSchedule,
    UNCONTROLLABLE,
    adjoint,
    analyze_system,
    cartan_subalgebra,
    empty_basis,
    extend_basis,
    generate_closure,
    generator,
    is_controllable,
    levi_decompose,
    primary_decompose,
    propagate,
    recognize_su2,
    simple_decompose,
    structure_constants,
    two_spin_system,
)
from dynlie.errors import SplittingSearchError
from dynlie.linalg import _vec

from conftest import (
    AD_DRIVE_1,
    AD_DRIVE_2,
    ab_triples,
    ordered_two_spin_basis,
    two_spin_elements,
)
from helpers import (
    commutator,
    from_coords,
    hs_inner,
    member_coords,
    project_generator,
    random_skew,
    span_contains,
    spans_equal,
    staged,
)


def _pass(message):
    print(f"PASS {message}")


def _membership_residual(basis, x):
    coords = basis.vecs @ _vec(x)
    rebuilt = from_coords(basis, coords[np.newaxis, :])[0]
    return float(np.linalg.norm(x - rebuilt))


@pytest.fixture(scope="module")
def golden():
    """Everything the two-spin chain produces, computed once."""
    sys = two_spin_system()
    analysis = analyze_system(sys, pivots=[1j * sys.drift])
    return sys, analysis


@pytest.fixture(scope="module")
def random_closures():
    """50 bracket-closed subalgebras of u(2).. u(4) plus their Levi
    splits, shared by the three randomized suites."""
    rng = np.random.default_rng(715)
    cases = []
    while len(cases) < 50:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        gens = [random_skew(rng, n) for _ in range(k)]
        closure, _ = generate_closure(gens)
        if closure.dim == 0:
            continue
        cases.append((closure.basis, staged(levi_decompose, closure.basis)))
    return cases


def test_two_spin_closure_dimension_and_members():
    sx_els = two_spin_elements()
    l1, l2, l3, l4, l5, l6 = sx_els
    # Generator order: both couplings first, then the local drive.
    closure, _ = generate_closure([l3, l4, l1])
    assert closure.dim == 6
    basis = closure.basis
    for el in sx_els:
        assert _membership_residual(basis, el) <= 1e-9
    _pass("closure of the coupled pair is 6-dimensional and contains all "
          "six listed spanning elements at residual <= 1e-9")


def test_two_spin_uncontrollable_verdict():
    els = two_spin_elements()
    closure, _ = generate_closure([els[2], els[3], els[0]])
    assert closure.dim == 6 < 15
    assert is_controllable(closure) == UNCONTROLLABLE
    _pass("two-spin system judged uncontrollable (dim 6 of 15)")


def test_two_spin_trivial_radical_and_derived():
    basis = ordered_two_spin_basis()
    levi = staged(levi_decompose, basis)
    assert levi.radical.dim == 0
    assert levi.semisimple.dim == 6
    _pass("two-spin algebra has center of dim 0 and derived algebra of "
          "dim 6")


def test_two_spin_cartan_from_drive_pivot():
    els = two_spin_elements()
    basis = ordered_two_spin_basis()
    result = staged(cartan_subalgebra, basis, pivots=[els[0]])
    cartan = result.cartan
    assert cartan.dim == 2
    for el in els[:2]:
        assert _membership_residual(cartan, el) <= 1e-9
    drives = extend_basis(empty_basis(4), els[:2])
    for m in cartan.mats:
        assert _membership_residual(drives, m) <= 1e-9
    _pass("Cartan algebra from the local-drive pivot is the span of the "
          "two drives (mutual membership <= 1e-9)")


def test_two_spin_adjoint_matrices_entrywise():
    els = two_spin_elements()
    basis = ordered_two_spin_basis()
    c = structure_constants(basis)
    ad1 = adjoint(c, member_coords(basis, els[0]))
    ad2 = adjoint(c, member_coords(basis, els[1]))
    assert np.max(np.abs(ad1 - AD_DRIVE_1)) <= 1e-12
    assert np.max(np.abs(ad2 - AD_DRIVE_2)) <= 1e-12
    _pass("adjoint matrices of both drives match the frozen 6x6 "
          "literals entrywise to 1e-12")


def test_two_spin_splitting_element_selection():
    els = two_spin_elements()
    basis = ordered_two_spin_basis()
    cartan = extend_basis(empty_basis(4), els[:2])
    found = staged(primary_decompose, basis, cartan, coeffs=[[1.0, 2.0]]).splitting
    np.testing.assert_allclose(found.coeffs, [1.0, 2.0])
    ad = adjoint(structure_constants(basis),
                 member_coords(basis, found.element))
    eigs = np.linalg.eigvals(ad)
    assert np.max(np.abs(eigs.real)) <= 1e-9
    np.testing.assert_allclose(np.sort(eigs.imag), [-3, -1, 0, 0, 1, 3],
                               atol=1e-9)
    # Five eigenvalue clusters = dim S - dim A + 1.
    assert len({round(v, 6) for v in eigs.imag}) == 6 - 2 + 1
    for bad in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        with pytest.raises(SplittingSearchError):
            staged(primary_decompose, basis, cartan, coeffs=[bad])
    _pass("coefficients (1,2) accepted with spectrum {0, +-i, +-3i}; "
          "(1,0), (0,1), (1,1) rejected")


def test_two_spin_primary_component_spans():
    els = two_spin_elements()
    l1, l2, l3, l4, l5, l6 = els
    basis = ordered_two_spin_basis()
    cartan = extend_basis(empty_basis(4), els[:2])
    result = staged(primary_decompose, basis, cartan)
    (f_fast, fast), (f_slow, slow) = result.components
    assert fast.dim == 2 and slow.dim == 2
    for el in (l5 + l6, l3 - l4):
        assert _membership_residual(fast, el) <= 1e-8 * np.linalg.norm(el)
    for el in (l5 - l6, l3 + l4):
        assert _membership_residual(slow, el) <= 1e-8 * np.linalg.norm(el)
    expected_fast = extend_basis(empty_basis(4), [l5 + l6, l3 - l4])
    expected_slow = extend_basis(empty_basis(4), [l5 - l6, l3 + l4])
    for m in fast.mats:
        assert _membership_residual(expected_fast, m) <= 1e-8
    for m in slow.mats:
        assert _membership_residual(expected_slow, m) <= 1e-8
    _pass("primary components are the expected two planes of coupling "
          "combinations (mutual membership <= 1e-8)")


def test_two_spin_simple_ideals_and_su2_frames():
    els = two_spin_elements()
    basis = ordered_two_spin_basis()
    cartan = extend_basis(empty_basis(4), els[:2])
    primary = staged(primary_decompose, basis, cartan)
    ideal_set = staged(simple_decompose, basis, primary)
    assert len(ideal_set.ideals) == 2
    assert all(i.dim == 3 for i in ideal_set.ideals)
    first, second = ideal_set.ideals
    worst = max(np.linalg.norm(commutator(x, y))
                for x in first.mats for y in second.mats)
    assert worst <= 1e-8
    a_triple, b_triple = ab_triples()
    assert spans_equal(first.mats, a_triple)
    assert spans_equal(second.mats, b_triple)
    for ideal, triple in zip(ideal_set.ideals, (a_triple, b_triple)):
        frame = recognize_su2(ideal)
        assert frame is not None
        e1, e2, e3 = frame
        for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
            assert np.linalg.norm(commutator(a, b) - c) <= 1e-8
        # Each frame element is proportional to one reference element
        # (cosines are 0 or +-1) and the relabeling is a proper rotation,
        # so the frame is the reference triple up to the inherent
        # orientation-preserving gauge.
        cos = np.array([[hs_inner(e, t)
                         / (np.linalg.norm(e) * np.linalg.norm(t))
                         for t in triple] for e in frame])
        np.testing.assert_allclose(cos @ cos.T, np.eye(3), atol=1e-8)
        assert np.linalg.det(cos) > 0.5
        for row in cos:
            assert np.max(np.abs(row)) >= 1.0 - 1e-8
        for e in frame:
            assert abs(np.linalg.norm(e)
                       - np.linalg.norm(triple[0])) <= 1e-8
    _pass("exactly two commuting 3-dimensional ideals, each recognized "
          "as su(2) with cyclic triples proportional to the reference "
          "ones up to proper rotation")


def test_two_spin_generator_pieces_closed_form(golden):
    sys, analysis = golden
    decomp = analysis.decomposition
    a_triple, b_triple = ab_triples()
    a1, _, a3 = a_triple
    b1, _, b3 = b_triple
    idx_a = 0 if span_contains(
        list(decomp.components[0][1].mats), a1) else 1
    rng = np.random.default_rng(99)
    for _ in range(10):
        u1, u2 = rng.uniform(-2.0, 2.0, size=2)
        pieces = project_generator(decomp, sys, (u1, u2))
        expected_a = -((u1 - u2) * a3 + a1)
        expected_b = -((u1 + u2) * b3 - b1)
        assert np.linalg.norm(pieces[idx_a] - expected_a) <= 1e-9
        assert np.linalg.norm(pieces[1 - idx_a] - expected_b) <= 1e-9
        assert np.linalg.norm(sum(pieces) - generator(sys, (u1, u2))) <= 1e-9
    _pass("generator pieces match the closed forms on both halves for 10 "
          "random control pairs (<= 1e-9)")


def test_two_spin_factorized_propagation(golden):
    sys, analysis = golden
    decomp = analysis.decomposition
    a1 = ab_triples()[0][0]
    idx_a = 0 if span_contains(
        list(decomp.components[0][1].mats), a1) else 1
    rng = np.random.default_rng(1234)
    for _ in range(20):
        count = int(rng.integers(1, 9))
        segs = tuple((float(rng.uniform(0.05, 1.0)),
                      rng.uniform(-2.0, 2.0, size=2))
                     for _ in range(count))
        sched = ControlSchedule(segs)
        result = propagate(decomp, sys, sched)
        u_a = result.factors[idx_a]
        u_b = result.factors[1 - idx_a]
        assert np.linalg.norm(result.total - u_a @ u_b) <= 1e-8
        assert np.linalg.norm(u_a @ u_b - u_b @ u_a) <= 1e-8
        # Shift both controls together: u1 - u2 fixed, A factor pinned.
        shift = float(rng.uniform(-1.0, 1.0))
        sym = ControlSchedule(tuple((d, u + shift) for d, u in segs))
        res_sym = propagate(decomp, sys, sym)
        assert np.linalg.norm(res_sym.factors[idx_a] - u_a) <= 1e-9
        # Shift them oppositely: u1 + u2 fixed, B factor pinned.
        anti = ControlSchedule(tuple(
            (d, u + np.array([shift, -shift])) for d, u in segs))
        res_anti = propagate(decomp, sys, anti)
        assert np.linalg.norm(res_anti.factors[1 - idx_a] - u_b) <= 1e-9
    _pass("20 random schedules factor as commuting products (<= 1e-8), "
          "with each factor driven only by its own control combination")


def test_random_subalgebra_levi_invariants(random_closures):
    assert len(random_closures) == 50
    for basis, split in random_closures:
        rad, semi = split.radical, split.semisimple
        assert rad.dim + semi.dim == basis.dim
        for i in range(rad.dim):
            for j in range(i + 1, rad.dim):
                br = commutator(rad.mats[i], rad.mats[j])
                assert np.linalg.norm(br) <= 1e-8
        for r in rad.mats:
            for s in basis.mats:
                assert np.linalg.norm(commutator(r, s)) <= 1e-8
    _pass("50 random closed subalgebras split into an Abelian radical "
          "commuting with the whole algebra, dims adding up")


def test_random_subalgebra_primary_conditions(random_closures):
    checked = 0
    for _, split in random_closures:
        semi = split.semisimple
        if semi.dim == 0:
            continue
        cartan = staged(cartan_subalgebra, semi).cartan
        result = staged(primary_decompose, semi, cartan)
        freqs = np.asarray(result.splitting.frequencies)
        radius = freqs[0]
        gaps = np.concatenate([freqs[:-1] - freqs[1:], freqs[-1:]])
        assert np.all(gaps > 1e-6 * radius)
        for _, comp in result.components:
            assert comp.dim == 2
            for a in cartan.mats:
                block = np.empty((2, 2))
                for j in range(2):
                    br = commutator(a, comp.mats[j])
                    assert _membership_residual(comp, br) <= 1e-8
                    coords = member_coords(comp, br, tol=1e-6)
                    assert coords is not None
                    block[:, j] = coords
                assert abs(block[0, 0]) <= 1e-8
                assert abs(block[1, 1]) <= 1e-8
                assert abs(block[0, 1] + block[1, 0]) <= 1e-8
        checked += 1
    assert checked > 0
    _pass(f"primary decompositions of {checked} semisimple parts are "
          "Cartan-invariant with rotation-form adjoint blocks and "
          "separated frequencies")
