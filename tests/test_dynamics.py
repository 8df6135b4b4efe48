import sys as python_sys
import threading
import tracemalloc
from dataclasses import replace
from functools import cache, reduce
from unittest import mock

import numpy as np
import pytest

from dynlie import (
    CONTROLLABLE_SU,
    UNCONTROLLABLE,
    ControlSchedule,
    LieBasis,
    analyze_system,
    control_system,
    generator,
    hamiltonian,
    kron,
    pauli,
    propagate,
    two_spin_system,
)
from dynlie import dynamics, linalg
from dynlie.dynamics import (
    KIND_RADICAL,
    KIND_SIMPLE,
    structure_residuals,
)
from dynlie.errors import NotInSpanError
from dynlie.linalg import invariant_frame

from helpers import (
    block_pairings,
    coupled_sectors,
    dense_terms,
    expm_skew,
    ising_x,
    loop_reference,
    off_block,
    project_generator,
    random_skew,
    site,
    span_contains,
    unvec,
    vec,
)

SX, SY, SZ = pauli("x"), pauli("y"), pauli("z")


def pauli_terms(*terms):
    """One two-qubit Hamiltonian per argument, each a sum of Pauli strings
    given as (label, coefficient); "i" in a label is the identity."""
    one = {"i": np.eye(2), "x": SX, "y": SY, "z": SZ}
    return [sum(c * kron(one[a], one[b]) for (a, b), c in term)
            for term in terms]


@pytest.fixture(scope="module")
def two_spin_decomp():
    sys = two_spin_system()
    analysis = analyze_system(sys, pivots=[1j * sys.drift])
    return sys, analysis


def _drift_pivot(sys):
    return [1j * sys.drift]


class TestAnalyzeSystem:
    def test_two_spin_summary(self):
        sys = two_spin_system()
        analysis = analyze_system(sys, pivots=_drift_pivot(sys))
        assert analysis.closure.dim == 6
        assert analysis.verdict == UNCONTROLLABLE
        assert analysis.levi.radical.dim == 0
        assert analysis.cartan.cartan.dim == 2
        assert len(analysis.ideals.ideals) == 2
        decomp = analysis.decomposition
        assert [kind for kind, _ in decomp.components] == [
            KIND_SIMPLE, KIND_SIMPLE]
        assert decomp.adapted.dim == 6

    def test_su2_system(self):
        sys = control_system(SX, [SY])
        analysis = analyze_system(sys)
        assert analysis.closure.dim == 3
        assert analysis.verdict == CONTROLLABLE_SU
        assert len(analysis.ideals.ideals) == 1

    def test_drift_only_line(self):
        sys = control_system(SX)
        analysis = analyze_system(sys)
        assert analysis.closure.dim == 1
        assert analysis.levi.radical.dim == 1
        assert analysis.levi.semisimple.dim == 0
        assert analysis.cartan is None
        assert analysis.primary is None
        kinds = [kind for kind, _ in analysis.decomposition.components]
        assert kinds == [KIND_RADICAL]

    def test_zero_control_on_zero_drift(self):
        sys = control_system(np.zeros((2, 2)), [SX])
        analysis = analyze_system(sys)
        assert analysis.closure.dim == 1
        kinds = [kind for kind, _ in analysis.decomposition.components]
        assert kinds == [KIND_RADICAL]

    def test_structure_residuals_tiny(self, two_spin_decomp):
        _, analysis = two_spin_decomp
        res = structure_residuals(analysis)
        assert res
        for name, value in res.items():
            assert value <= 1e-8, name

    def test_structure_residuals_read_from_stages(self, two_spin_decomp):
        # u(3) draw: su(3) plus a radical line, so the Levi residual is live.
        drift, ctrl = dense_terms([7, 3, 793], 3)
        for analysis in (two_spin_decomp[1],
                         analyze_system(control_system(drift, [ctrl]))):
            res = structure_residuals(analysis)
            assert (res["radical_commutes_with_algebra"]
                    == analysis.levi.commutation_residual)
            assert (res["component_invariance"]
                    == analysis.primary.invariance_residual)
            assert res["ideals_commute"] == analysis.ideals.commutation_residual
        assert analysis.levi.radical.dim == 1
        assert 0.0 < analysis.levi.commutation_residual <= 1e-8
        assert analysis.ideals.invariance_residual <= 1e-8

    def test_su2_flags(self, two_spin_decomp):
        _, analysis = two_spin_decomp
        assert analysis.ideals.su2 == (True, True)


class TestProjectGenerator:
    def test_pieces_sum_to_generator(self, two_spin_decomp, rng):
        sys, analysis = two_spin_decomp
        decomp = analysis.decomposition
        for _ in range(5):
            u = rng.uniform(-2, 2, size=2)
            pieces = project_generator(decomp, sys, u)
            np.testing.assert_allclose(sum(pieces), generator(sys, u),
                                       atol=1e-9)

    def test_pieces_lie_in_components(self, two_spin_decomp, rng):
        sys, analysis = two_spin_decomp
        decomp = analysis.decomposition
        u = rng.uniform(-2, 2, size=2)
        pieces = project_generator(decomp, sys, u)
        for piece, (_, basis) in zip(pieces, decomp.components):
            assert span_contains(list(basis.mats), piece)

    def test_closed_form_pieces(self, two_spin_decomp, ab, rng):
        # The drift splits evenly across the two halves while the
        # controls enter through the difference and the sum of the two
        # control amplitudes respectively.
        sys, analysis = two_spin_decomp
        decomp = analysis.decomposition
        a_triple, b_triple = ab
        a1, _, a3 = a_triple
        b1, _, b3 = b_triple
        # Identify which component is the A-half.
        idx_a = 0 if span_contains(
            list(decomp.components[0][1].mats), a1) else 1
        for _ in range(10):
            u1, u2 = rng.uniform(-2, 2, size=2)
            pieces = project_generator(decomp, sys, (u1, u2))
            expected_a = -((u1 - u2) * a3 + a1)
            expected_b = -((u1 + u2) * b3 - b1)
            np.testing.assert_allclose(pieces[idx_a], expected_a, atol=1e-9)
            np.testing.assert_allclose(pieces[1 - idx_a], expected_b,
                                       atol=1e-9)

    def test_zero_controls(self, two_spin_decomp, ab):
        sys, analysis = two_spin_decomp
        a_triple, b_triple = ab
        pieces = project_generator(analysis.decomposition, sys, (0.0, 0.0))
        total = sum(pieces)
        np.testing.assert_allclose(total, -1j * sys.drift, atol=1e-12)

    def test_foreign_generator_rejected(self, two_spin_decomp):
        sys, analysis = two_spin_decomp
        bigger = control_system(sys.drift, list(sys.controls)
                                + [np.kron(SZ, np.eye(2))])
        with pytest.raises(NotInSpanError):
            project_generator(analysis.decomposition, bigger,
                              (1.0, 1.0, 1.0))


class TestControlSchedule:
    def test_total_time(self):
        sched = ControlSchedule(((0.5, (1.0, 0.0)), (1.5, (0.0, 1.0))))
        assert sched.total_time == pytest.approx(2.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ControlSchedule(((0.0, (1.0, 0.0)),))
        with pytest.raises(ValueError):
            ControlSchedule(((-1.0, (1.0, 0.0)),))

    def test_empty_schedule_allowed(self):
        assert ControlSchedule(()).total_time == 0.0

    def test_total_time_sums_left_to_right(self):
        durs = np.random.default_rng(3).uniform(0.05, 1.0, 10_000).tolist()
        want = 0.0
        for dur in durs:
            want += dur
        sched = ControlSchedule(tuple((dur, (0.0,)) for dur in durs))
        assert type(sched.total_time) is float
        assert sched.total_time == want

    def test_stacked_arrays(self):
        segs = ((0.5, [1.0, 0.0]), (1.5, (0.0, 1.0)))
        sched = ControlSchedule(segs)
        assert sched.segments is segs
        np.testing.assert_array_equal(sched.durations, [0.5, 1.5])
        np.testing.assert_array_equal(sched.controls, [[1.0, 0.0],
                                                       [0.0, 1.0]])
        assert not sched.durations.flags.writeable
        assert not sched.controls.flags.writeable
        # Control vectors of different lengths have no stack: the schedule
        # is rejected as it is built.
        with pytest.raises(ValueError, match="one length"):
            ControlSchedule(((0.5, (1.0, 0.0)), (0.5, (1.0,))))
        with pytest.raises(ValueError, match="finite"):
            ControlSchedule(((0.5, (1.0, 0.0)), (0.5, (np.nan, 0.0))))

    def test_first_bad_duration_named(self):
        with pytest.raises(ValueError, match=r"finite, got -1\.0$"):
            ControlSchedule(((0.5, (1.0,)), (-1.0, (1.0,)), (0.0, (1.0,))))

    def test_wrong_length_named_per_segment(self, two_spin_decomp):
        # Every segment one value short: the stack has the wrong width,
        # and the message names the shape of one segment's vector.
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((0.5, (1.0,)), (0.5, (2.0,))))
        with pytest.raises(ValueError,
                           match=r"expected 2 control values, got shape \(1,\)"):
            propagate(analysis.decomposition, sys, sched)

    def test_overflowing_segment_named(self, two_spin_decomp):
        # Each value is finite, but duration times the generator's norm is
        # not: this used to give a NaN propagator.
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((0.5, (1.0, 0.0)), (1e300, (1e10, 2.0))))
        with pytest.raises(ValueError, match="^segment 1: .* not finite"):
            propagate(analysis.decomposition, sys, sched)

    def test_overflowing_weighted_sum(self, two_spin_decomp):
        # Every segment's bound is about 2e307, their sum is not finite.
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((1e300, (1e7, 0.0)),) * 20)
        with pytest.raises(ValueError, match="weighted .* not finite"):
            propagate(analysis.decomposition, sys, sched)

    @pytest.mark.parametrize("segment", [
        (np.inf, (1.0, 0.0)), (np.nan, (1.0, 0.0)),
        (0.5, (np.inf, 0.0)), (0.5, (1.0, np.nan))])
    def test_rejects_non_finite(self, segment):
        # An infinite duration used to pass "not dur > 0" and propagate
        # to a NaN propagator.
        with pytest.raises(ValueError, match="finite"):
            ControlSchedule(((0.3, (0.0, 0.0)), segment))


class TestPropagate:
    def test_single_segment_matches_expm(self, two_spin_decomp):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((0.7, (0.4, -1.1)),))
        result = propagate(analysis.decomposition, sys, sched)
        expected = scipy_linalg.expm(
            -0.7j * hamiltonian(sys, (0.4, -1.1)))
        np.testing.assert_allclose(result.total, expected, atol=1e-12)
        assert result.factorization_error < 1e-10

    def test_multi_segment_matches_expm(self, two_spin_decomp):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        sys, analysis = two_spin_decomp
        segs = ((0.3, (1.0, 0.2)), (0.9, (-0.5, 0.8)), (0.25, (0.0, 2.0)))
        result = propagate(analysis.decomposition, sys,
                           ControlSchedule(segs))
        expected = np.eye(4, dtype=complex)
        for dur, u in segs:
            expected = scipy_linalg.expm(
                -1j * dur * hamiltonian(sys, u)) @ expected
        np.testing.assert_allclose(result.total, expected, atol=1e-12)
        assert result.times == pytest.approx(0.3 + 0.9 + 0.25)

    def test_factors_commute_and_multiply(self, two_spin_decomp, rng):
        sys, analysis = two_spin_decomp
        for _ in range(5):
            count = int(rng.integers(1, 6))
            segs = tuple(
                (float(rng.uniform(0.05, 1.0)), rng.uniform(-2, 2, size=2))
                for _ in range(count))
            result = propagate(analysis.decomposition, sys,
                               ControlSchedule(segs))
            assert result.factorization_error < 1e-8
            assert result.commutation_residual < 1e-8
            fa, fb = result.factors
            np.testing.assert_allclose(fa @ fb, result.total, atol=1e-8)
            np.testing.assert_allclose(fb @ fa, result.total, atol=1e-8)

    def test_factors_unitary(self, two_spin_decomp):
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((50.0, (1.3, 0.7)), (49.0, (-0.2, 0.1))))
        result = propagate(analysis.decomposition, sys, sched)
        for f in result.factors + (result.total,):
            np.testing.assert_allclose(f.conj().T @ f, np.eye(4),
                                       atol=1e-9)

    def test_empty_schedule_is_identity(self, two_spin_decomp):
        sys, analysis = two_spin_decomp
        result = propagate(analysis.decomposition, sys, ControlSchedule(()))
        np.testing.assert_allclose(result.total, np.eye(4), atol=0)
        assert result.times == 0.0

    def test_a_factor_depends_only_on_difference(self, two_spin_decomp, ab,
                                                 rng):
        sys, analysis = two_spin_decomp
        decomp = analysis.decomposition
        a1 = ab[0][0]
        idx_a = 0 if span_contains(
            list(decomp.components[0][1].mats), a1) else 1
        base = [(0.4, np.array([0.9, 0.1])), (0.6, np.array([-0.3, 0.5]))]
        shift = float(rng.uniform(-1, 1))
        # Shifting both controls by the same amount changes u1 + u2 but
        # keeps u1 - u2; the A factor must not move.
        shifted = [(d, u + shift) for d, u in base]
        res_base = propagate(decomp, sys, ControlSchedule(tuple(base)))
        res_shift = propagate(decomp, sys, ControlSchedule(tuple(shifted)))
        np.testing.assert_allclose(res_base.factors[idx_a],
                                   res_shift.factors[idx_a], atol=1e-9)
        # And the B factor does move for a nonzero shift.
        assert np.linalg.norm(res_base.factors[1 - idx_a]
                              - res_shift.factors[1 - idx_a]) > 1e-3

    def test_radical_line_propagation(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        sys = control_system(SX)
        decomp = analyze_system(sys).decomposition
        sched = ControlSchedule(((2.0, ()),))
        result = propagate(decomp, sys, sched)
        np.testing.assert_allclose(
            result.total, scipy_linalg.expm(-2j * SX), atol=1e-12)
        assert result.factorization_error < 1e-12


def three_qubit():
    """su(2) on the first spin plus two radical lines."""
    drift = site("z", 0, 3) + 0.7 * site("z", 1, 3) + 0.3 * site("z", 2, 3)
    return control_system(drift, [site("x", 0, 3) + 0.6 * site("z", 2, 3)])


def dense_u3():
    """A dense u(3) draw: its algebra is all of u(3), so the frame is one
    block of size 3."""
    drift, ctrl = dense_terms([7, 3, 0], 3)
    return control_system(drift, [ctrl])


def complex_pauli():
    """A complex two-qubit Pauli-string system, one irreducible block of 4
    (the benchmark's Pauli draw [11, 3], coefficients rounded)."""
    drift, ctrl = pauli_terms([("ix", -0.356), ("zi", -0.59), ("xi", -0.785)],
                              [("ix", -1.03), ("yy", 1.145), ("zy", -0.899)])
    return control_system(drift, [ctrl])


def ising_4():
    """Ising-x k=4, one function so that :func:`analysed` keeps it once."""
    return ising_x(4)


@cache
def analysed(make):
    """The system ``make`` builds and its decomposition, analysed once per
    module: analyses are immutable, so the tests share them."""
    sys = make()
    return sys, analyze_system(sys).decomposition


def random_schedule(rng, n_controls, count):
    return ControlSchedule(tuple(
        (float(rng.uniform(0.05, 1.0)), rng.uniform(-2, 2, size=n_controls))
        for _ in range(count)))


def assert_matches_loop(decomp, system, schedule, atol):
    result = propagate(decomp, system, schedule)
    total, factors = loop_reference(decomp, system, schedule)
    np.testing.assert_allclose(result.total, total, atol=atol)
    assert len(result.factors) == len(factors)
    for got, want in zip(result.factors, factors):
        np.testing.assert_allclose(got, want, atol=atol)
    assert result.factorization_error < atol
    assert result.times == pytest.approx(schedule.total_time)


class TestRealForm:
    """Per-segment products run on the real form [[Re, -Im], [Im, Re]]
    of each block, a homomorphism, converted back once."""

    @pytest.mark.parametrize("count", [1, 2, 13])
    @pytest.mark.parametrize("z", [1, 2, 4, 6])
    def test_ordered_product_matches_complex(self, rng, z, count):
        stack = np.stack([expm_skew(random_skew(rng, z))
                          for _ in range(count)])
        form = np.block([[stack.real, -stack.imag], [stack.imag, stack.real]])
        assert form.shape == (count, 2 * z, 2 * z) and form.dtype == float
        np.testing.assert_array_equal(linalg._complex_form(form), stack)
        want = reduce(lambda acc, u: u @ acc, stack)
        got = linalg._complex_form(dynamics._ordered_product(
            form, np.empty(form.size)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestBatchedPropagate:
    """propagate runs segments in stacked chunks; it must agree with the
    one-segment-at-a-time loop."""

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 129, 1025])
    @pytest.mark.parametrize("make", [two_spin_system, three_qubit,
                                      lambda: ising_x(4), dense_u3,
                                      lambda: control_system(SZ, [SX])],
                             ids=["two-spin", "three-qubit", "ising-x-4",
                                  "dense-u3", "qubit"])
    def test_chunk_edges(self, make, count):
        sys, decomp = analysed(make)
        sched = random_schedule(np.random.default_rng(count),
                                sys.n_controls, count)
        assert_matches_loop(decomp, sys, sched, 1e-12)

    @pytest.mark.parametrize("make", [three_qubit, lambda: ising_x(3),
                                      lambda: ising_x(4)],
                             ids=["three-qubit", "ising-x-3", "ising-x-4"])
    def test_thousand_segments(self, make):
        sys = make()
        decomp = analyze_system(sys).decomposition
        assert [kind for kind, _ in decomp.components][-1] == KIND_RADICAL
        sched = random_schedule(np.random.default_rng(1000), 1, 1000)
        assert_matches_loop(decomp, sys, sched, 1e-10)

    def test_scalar_blocks_exponentiated_once(self):
        # Ising-x k=4 has 1 x 1 frame blocks.  Scalars commute, so each is
        # exponentiated once, from the duration-weighted sum of the rows,
        # in the last call; no per-segment call takes one.
        sys = ising_x(4)
        decomp = analyze_system(sys).decomposition
        sched = random_schedule(np.random.default_rng(7), 1, 300)
        real, calls = dynamics._exponentials, []

        def spy(blocks, slots, t, work):
            calls.append([z for _, z, _, _ in slots])
            return real(blocks, slots, t, work)

        with mock.patch.object(dynamics, "_exponentials", spy):
            assert_matches_loop(decomp, sys, sched, 1e-12)
        *per_segment, once = calls
        assert len(per_segment) == -(-len(sched.durations) // dynamics.CHUNK)
        assert all(1 not in sizes for sizes in per_segment)
        assert 1 in once

    @pytest.mark.parametrize("make, kernels", [
        (two_spin_system, [("_expm_skew", 2)]),
        (lambda: ising_x(4), [("_cos_sin", 4), ("_cos_sin", 6)]),
        (complex_pauli, [("_expm_skew", 4)])],
        ids=["two-spin", "ising-x-4", "pauli"])
    def test_per_segment_kernels(self, make, kernels):
        # Each per-segment run takes one kernel, chosen from its blocks:
        # ``_cos_sin`` for real parts exactly zero at size 3 or more, else
        # ``_expm_skew`` (the closed form at sizes 1 and 2, else eigh).
        sys, decomp = analysed(make)
        calls = []

        def spy(name):
            kernel = getattr(dynamics, name)

            def recorded(x, *t):
                calls.append((name, x.shape[-1], len(x)))
                return kernel(x, *t)
            return recorded

        with mock.patch.object(dynamics, "_cos_sin", spy("_cos_sin")), \
                mock.patch.object(dynamics, "_expm_skew", spy("_expm_skew")):
            assert_matches_loop(decomp, sys, random_schedule(
                np.random.default_rng(5), sys.n_controls, 200), 1e-12)
        # Chunk rows 128 and 72; the once-only call has one row.
        assert sorted({c[:2] for c in calls if c[2] > 1}) == kernels

    @pytest.mark.parametrize("make", [two_spin_system, three_qubit,
                                      lambda: ising_x(4)],
                             ids=["two-spin", "three-qubit", "ising-x-4"])
    def test_empty_schedule_exact_identities(self, make):
        sys, decomp = analysed(make)
        result = propagate(decomp, sys, ControlSchedule(()))
        for f in (result.total,) + result.factors:
            assert np.array_equal(f, np.eye(sys.dim))
        assert result.factorization_error == 0.0
        assert result.commutation_residual == 0.0

    def test_segment_leaving_algebra_raises(self, two_spin_decomp):
        # A third control outside the algebra is harmless at zero; the one
        # segment that switches it on, in the second chunk, must fail.
        sys, analysis = two_spin_decomp
        bigger = control_system(sys.drift, list(sys.controls)
                                + [np.kron(SZ, np.eye(2))])
        segs = [(0.1, (0.5, -0.5, 0.0))] * 129
        propagate(analysis.decomposition, bigger, ControlSchedule(tuple(segs)))
        segs[70] = (0.1, (0.5, -0.5, 1.0))
        with pytest.raises(NotInSpanError):
            propagate(analysis.decomposition, bigger,
                      ControlSchedule(tuple(segs)))

    def test_cancelling_controls_checked_per_segment(self, two_spin_decomp):
        # Each control leaves the algebra by +/- x, their equal-weight sum
        # stays inside it: only the segment's generator may be checked,
        # not the terms one by one.
        sys, analysis = two_spin_decomp
        x = np.kron(SZ, np.eye(2))
        split = control_system(sys.drift, [sys.controls[0] + x,
                                           sys.controls[1] - x])
        segs = [(0.1, (1.0, 1.0))] * 129
        propagate(analysis.decomposition, split, ControlSchedule(tuple(segs)))
        segs[70] = (0.1, (1.0, 0.0))
        with pytest.raises(NotInSpanError):
            propagate(analysis.decomposition, split,
                      ControlSchedule(tuple(segs)))

    def test_wrong_control_count_raises(self, two_spin_decomp):
        sys, analysis = two_spin_decomp
        sched = ControlSchedule(((0.5, (1.0, 0.0, 2.0)),
                                 (0.5, (1.0, 0.0, 0.0))))
        with pytest.raises(ValueError, match="2 control values"):
            propagate(analysis.decomposition, sys, sched)
        with pytest.raises(ValueError, match="2 control values"):
            project_generator(analysis.decomposition, sys, (1.0,))


class TestWorkspace:
    """Each propagate call runs its chunks in one workspace of its own."""

    def test_long_call_working_set(self):
        # Ising-x k=4 (n = 16, per-segment blocks 4, 4, 6, 6) over 10^4
        # segments: the control rows and one workspace sized by a chunk.
        # Block coordinates for eight chunks at a time, with each chunk's
        # temporaries allocated anew, peaked at 3.7 MB.
        sys, decomp = analysed(ising_4)
        rng = np.random.default_rng(4)
        sched = ControlSchedule(tuple(zip(
            rng.uniform(0.05, 1.0, 10_000).tolist(),
            rng.uniform(-2, 2, (10_000, 1)))))
        tracemalloc.start()
        try:
            propagate(decomp, sys, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak

    def test_concurrent_calls_match_sequential(self):
        # A buffer shared between calls would let one thread overwrite the
        # other's blocks: two threads, each propagating both systems in
        # turn, in opposite orders and with schedules of their own, must
        # give the sequential bits.
        jobs = [[], []]
        for make in (two_spin_system, ising_4):
            sys, decomp = analysed(make)
            for seed, mine in enumerate(jobs):
                mine.append((decomp, sys, random_schedule(
                    np.random.default_rng(seed), sys.n_controls, 600)))
        jobs[1].reverse()
        want = [[propagate(*job) for job in mine] for mine in jobs]
        got = [[], []]
        start = threading.Barrier(len(jobs))

        def run(i):
            start.wait()
            for _ in range(3):
                got[i] += [propagate(*job) for job in jobs[i]]

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        interval = python_sys.getswitchinterval()
        python_sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            python_sys.setswitchinterval(interval)
        for mine, results in zip(want, got):
            assert len(results) == 3 * len(mine)
            for w, g in zip(mine * 3, results):
                for a, b in zip((w.total,) + w.factors,
                                (g.total,) + g.factors):
                    assert a.tobytes() == b.tobytes()


class TestInvariantFrame:
    """The frame propagate works in: every term and every element of the
    algebra is block diagonal in it."""

    @pytest.mark.parametrize("make, sizes", [
        (two_spin_system, [2, 2]),
        (three_qubit, [2, 2, 2, 2]),
        (lambda: ising_x(3), [1, 1, 3, 3]),
        (lambda: ising_x(4), [1, 1, 4, 4, 6]),
    ], ids=["two-spin", "three-qubit", "ising-x-3", "ising-x-4"])
    def test_terms_and_algebra_block_diagonal(self, make, sizes):
        sys = make()
        terms = -1j * np.stack((sys.drift,) + sys.controls)
        frame, got = invariant_frame(terms)
        assert sorted(got) == sizes
        assert off_block(frame, got, terms) <= 1e-12
        adapted = analyze_system(sys).decomposition.adapted
        assert off_block(frame, got, adapted.mats) <= 1e-12

    @pytest.mark.parametrize("make", [two_spin_system, lambda: ising_x(4)],
                             ids=["two-spin", "ising-x-4"])
    def test_real_terms_give_orthogonal_frame(self, make):
        # A spectator spin doubles every block, so the generic combination
        # repeats its spectrum and the real commutant separates the copies.
        sys = make()
        for spectator in (False, True):
            terms = -1j * np.stack((sys.drift,) + sys.controls)
            if spectator:
                terms = np.stack([np.kron(np.eye(2), t) for t in terms])
            frame, sizes = invariant_frame(terms)
            assert frame.dtype == np.float64
            np.testing.assert_allclose(frame.T @ frame, np.eye(len(frame)),
                                       rtol=0, atol=1e-14)
            assert off_block(frame, sizes, terms) <= 1e-12
        single = invariant_frame(-1j * np.stack((sys.drift,) + sys.controls))
        assert sorted(sizes) == sorted(2 * single[1])

    def test_dense_u3_is_one_block(self):
        drift, ctrl = dense_terms([7, 3, 793], 3)
        assert invariant_frame(-1j * np.stack([drift, ctrl]))[1] == (3,)

    def test_weakly_coupled_sectors_stay_one_block(self):
        # Split apart, the 1e-9 coupling would be dropped from every
        # segment; merged, the result still matches the loop.
        weak = coupled_sectors(1e-9)
        terms = -1j * np.stack((weak.drift,) + weak.controls)
        assert invariant_frame(terms)[1] == (4,)
        sizes = invariant_frame(-1j * np.stack(
            (coupled_sectors(0.0).drift,) + weak.controls))[1]
        assert sorted(sizes) == [2, 2]
        sched = random_schedule(np.random.default_rng(9), 1, 1000)
        decomp = analyze_system(weak).decomposition
        assert_matches_loop(decomp, weak, sched, 1e-10)

    def test_frame_of_the_pieces(self):
        # B's terms lie in A's algebra su(2) + su(2) but split only as
        # [3, 1], coarser than A's pieces; a frame of B's terms alone
        # dropped the pieces' off-block parts, and the factors were wrong
        # (factorization error 0.1 to 0.3) with no error raised.
        ctrl = kron(SX, np.eye(2)) + kron(np.eye(2), SX)
        a = control_system(kron(SZ, np.eye(2)) + 0.7 * kron(np.eye(2), SZ),
                           [ctrl])
        b = control_system(kron(SZ, np.eye(2)) + kron(np.eye(2), SZ), [ctrl])
        sched = ControlSchedule(((0.4, (0.3,)), (0.9, (-1.2,))))
        assert_matches_loop(analyze_system(a).decomposition, b, sched, 1e-12)


def transported(sys, decomp=None):
    """The frame's block sizes and the transported blocks propagate finds
    for ``sys`` on ``decomp`` (by default its own analysis), as
    {(owner, block): (block it comes from, conj)}; owner 0 is the
    reference total, owner 1 + c component c."""
    if decomp is None:
        decomp = analyze_system(sys).decomposition
    sched = ControlSchedule(((0.3, np.full(sys.n_controls, 0.5)),))
    with block_pairings() as calls:
        propagate(decomp, sys, sched)
    (sizes, found), = calls
    return sizes, {key: (r, conj) for key, (r, _, conj) in found.items()}


def rebased(decomp, rng):
    """``decomp`` with each component's basis replaced by a random
    orthonormal basis of its span: a random rotation of the basis, moved
    by 1e-15 (round-off) and orthonormalized again."""
    comps = []
    for kind, b in decomp.components:
        rot = np.linalg.qr(rng.standard_normal((b.dim, b.dim)))[0]
        mats = np.einsum("ij,jkl->ikl", rot, b.mats) + 1e-15 * np.stack(
            [random_skew(rng, b.n) for _ in range(b.dim)])
        comps.append((kind, LieBasis(b.n, unvec(
            np.linalg.qr(vec(mats).T)[0].T, b.n))))
    return replace(decomp, components=tuple(comps), adapted=LieBasis(
        decomp.adapted.n, np.concatenate([b.mats for _, b in comps])))


def equivalent_pair(rng, z, conj, perturb=0.0, repeat=1):
    """One owner of three random skew-Hermitian matrices on two z x z
    blocks, the second Q A_k Q^H (or Q conj(A_k) Q^H) of the first for a
    random unitary Q, and ``perturb`` times a unit-norm skew-Hermitian
    matrix added to the first matrix's second block.  With ``repeat`` r
    each A_k is a random a_k (x) I_r, so every spectrum repeats r times.
    Returns the arguments of _equivalent_blocks and Q."""
    a = np.stack([np.kron(random_skew(rng, z // repeat), np.eye(repeat))
                  for _ in range(3)])
    q = np.linalg.qr(rng.standard_normal((z, z))
                     + 1j * rng.standard_normal((z, z)))[0]
    b = q @ (a.conj() if conj else a) @ q.conj().T
    bump = random_skew(rng, z)
    b[0] += perturb * bump / np.linalg.norm(bump)
    rotated = np.zeros((1, 3, 2 * z, 2 * z), dtype=complex)
    rotated[0, :, :z, :z] = a
    rotated[0, :, z:, z:] = b
    sq = (np.abs(rotated) ** 2).sum(axis=(-2, -1))
    return (rotated, (z, z), [0, z], np.ones((1, 2), dtype=bool), sq), q


class TestEquivalentBlocks:
    """propagate exponentiates only the first of each owner's blocks that
    a fixed unitary relates, and transports the product to the others."""

    def test_ising_4_and_4bar_in_every_owner(self):
        # Blocks 6, 4, 4, 1, 1: the two 4-blocks are the 4 and 4-bar of
        # su(4) in the total, in the ideal and in the radical line.
        sizes, found = transported(ising_x(4))
        assert sizes == (6, 4, 4, 1, 1)
        assert found == {(0, 2): (1, True), (1, 2): (1, True),
                         (2, 2): (1, True)}

    @pytest.mark.parametrize("make", [lambda: ising_x(3), lambda: ising_x(4),
                                      three_qubit],
                             ids=["ising-x-3", "ising-x-4", "three-qubit"])
    def test_change_of_basis_keeps_blocks_and_pairs(self, make):
        # The X drive's piece on the radical line of Ising-x is round-off
        # (4.4e-16 for k=4); scaled to unit norm it would steer the frame,
        # so another basis reordered the blocks unless it counts as zero.
        sys = make()
        decomp = analyze_system(sys).decomposition
        want = transported(sys, decomp)
        for seed in range(5):
            assert transported(
                sys, rebased(decomp, np.random.default_rng(seed))) == want

    def test_three_qubit_ideal_has_three_partners(self):
        sizes, found = transported(three_qubit())
        assert sizes == (2, 2, 2, 2)
        assert {b: r for (o, b), (r, _) in found.items() if o == 1} == {
            1: 0, 2: 0, 3: 0}

    def test_two_spin_blocks_inequivalent(self):
        assert transported(two_spin_system()) == ((2, 2), {})

    @pytest.mark.parametrize("conj", [False, True], ids=["same", "conj"])
    @pytest.mark.parametrize("z", [2, 3, 5])
    def test_pair_found_and_checked(self, z, conj):
        args, q = equivalent_pair(np.random.default_rng([z, conj]), z, conj)
        (key, (r, got, flip)), = dynamics._equivalent_blocks(*args).items()
        assert key == (0, 1) and r == 0 and flip is conj
        a, b = args[0][0, :, :z, :z], args[0][0, :, z:, z:]
        moved = got @ (a.conj() if conj else a) @ got.conj().T
        np.testing.assert_allclose(moved, b, rtol=0, atol=1e-13)
        # Q is fixed up to a phase by the irreducible pair.
        phase = np.vdot(q, got) / z
        np.testing.assert_allclose(got, phase * q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("conj", [False, True], ids=["same", "conj"])
    def test_repeated_spectrum_pair_found(self, conj):
        # Every A_k = a_k (x) I_2 repeats each eigenvalue, so no eigenvector
        # basis fixes Q; the intertwiners Q (I_2 (x) M) still give one.
        args, _ = equivalent_pair(np.random.default_rng([9, conj]), 4, conj,
                                  repeat=2)
        (key, (r, got, flip)), = dynamics._equivalent_blocks(*args).items()
        assert key == (0, 1) and r == 0 and flip is conj
        a, b = args[0][0, :, :4, :4], args[0][0, :, 4:, 4:]
        moved = got @ (a.conj() if conj else a) @ got.conj().T
        np.testing.assert_allclose(moved, b, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("conj", [False, True], ids=["same", "conj"])
    def test_perturbed_block_not_paired(self, conj):
        # 1e-9 passes the spectral screen (TOL_EIG) but not the check of
        # the solved unitary (TOL_FRAME).
        args, _ = equivalent_pair(np.random.default_rng(4), 4, conj, 1e-9)
        with mock.patch.object(dynamics, "_generic_intertwiner",
                               wraps=linalg._generic_intertwiner) as solve:
            assert dynamics._equivalent_blocks(*args) == {}
        assert solve.call_count == 1


class TestRandomDrawRegressions:
    """Fixed random draws on which the pipeline used to fail."""

    def test_pauli_string_su4(self):
        # Components already inside a found ideal used to grow it again,
        # which ended in "simple ideals cover dim 31 of 15".
        def strings(*terms):
            return sum(c * kron(pauli(a), pauli(b)) for (a, b), c in terms)
        drift = strings(("zy", 0.8626653406413143), ("xz", -0.5813716229468491),
                        ("zz", -1.443886285802562))
        ctrl = strings(("yx", 0.7929463596782029), ("zx", -1.0415569247493681))
        analysis = analyze_system(control_system(drift, [ctrl]))
        assert analysis.closure.dim == 15
        assert analysis.verdict == CONTROLLABLE_SU
        assert [b.dim for b in analysis.ideals.ideals] == [15]
        assert analysis.levi.radical.dim == 0

    def test_dense_u6(self):
        # Gram-Schmidt noise used to push basis elements out of u(6) and
        # the minimal ideals past dim S ("cover dim 107 of 35").
        drift, ctrl = dense_terms([7, 6, 0], 6)
        analysis = analyze_system(control_system(drift, [ctrl]))
        assert analysis.closure.dim == 36
        assert [b.dim for b in analysis.ideals.ideals] == [35]
        assert len(analysis.levi.radical_lines) == 1

    @pytest.mark.parametrize("terms, closure_dim, ideal_dims, lines", [
        # Pauli-string draws default_rng([11, 417]) and ([11, 1327]).
        (pauli_terms([("iz", -0.9658276474110534), ("zy", -0.9461358586324375),
                      ("zi", 0.6747952767623774)],
                     [("yz", 1.226444895767852), ("zi", 0.6530796547554807),
                      ("ix", 0.5215808103917934)]), 10, [10], 0),
        (pauli_terms([("ix", 0.8723879805004369), ("xy", -1.3552923192769097)],
                     [("zx", -0.3750931780921548), ("yx", 0.33467348625323884),
                      ("iy", 0.8966590934410454)],
                     [("xi", -1.4992027412104578), ("zy", 0.7608659045600252)]),
         15, [15], 0),
        (dense_terms([7, 6, 1], 6), 36, [35], 1),
        # Pauli-string draws default_rng([11, 559]) and ([11, 1301]).
        (pauli_terms([("yz", 1.0414748193722576), ("yx", 0.947223521888851)],
                     [("ix", 0.7756734746128349)],
                     [("xi", -0.8927778899403935), ("zx", 1.096743883914685),
                      ("xx", 1.4079860535862951)]), 15, [15], 0),
        (pauli_terms([("zx", -0.8354389613091115)],
                     [("ix", 1.2802165006127755), ("xz", 0.7782701097499536),
                      ("iy", -0.8456401075589277)],
                     [("iz", 1.2922535690373296), ("zi", 0.6758272307608548)]),
         15, [15], 0),
    ], ids=["pauli-417", "pauli-1327", "dense-u6-1", "pauli-559", "pauli-1301"])
    def test_noisy_minimal_ideal_draws(self, terms, closure_dim, ideal_dims,
                                       lines):
        # The sweep W <- W + [S, W] accepted a noise residual just above
        # tol ("cover dim 16 of 10", "16 of 15") or let the u(6) ideal
        # overlap the radical line.  A Gram-Schmidt over brackets took a
        # nearly dependent one into a centralizer's derived algebra
        # ("derived algebra (dim 8)" in a 7-dim centralizer, draw 559),
        # and nullspaces of ad^2 + a^2 missed a plane (draw 1301).
        analysis = analyze_system(control_system(terms[0], terms[1:]))
        assert analysis.closure.dim == closure_dim
        assert [b.dim for b in analysis.ideals.ideals] == ideal_dims
        assert len(analysis.levi.radical_lines) == lines

    def test_analysis_holds_component_matrices_once(self):
        drift, ctrl = dense_terms([7, 3, 0], 3)
        analysis = analyze_system(control_system(drift, [ctrl]))
        # The one stack is the closure basis; the components are rows over
        # it that share the adapted rows.
        adapted = analysis.decomposition.adapted
        assert adapted.stack is analysis.closure.basis.stack
        comps = analysis.decomposition.components
        assert [kind for kind, _ in comps] == [KIND_SIMPLE, KIND_RADICAL]
        for _, basis in comps:
            assert basis.stack is adapted.stack
            assert np.shares_memory(basis.rows, adapted.rows)
        assert analysis.ideals.ideals[0] is comps[0][1]

    def test_dense_u3_propagates(self):
        # The closure basis used to carry a 1e-9 skew defect, which
        # expm_skew rejected as "matrix is not skew-Hermitian".
        scipy_linalg = pytest.importorskip("scipy.linalg")
        drift, ctrl = dense_terms([7, 3, 793], 3)
        sys = control_system(drift, [ctrl])
        decomp = analyze_system(sys).decomposition
        assert [kind for kind, _ in decomp.components] == [
            KIND_SIMPLE, KIND_RADICAL]
        sched = ControlSchedule(((0.5, [1.0]), (1.0, [-0.7])))
        result = propagate(decomp, sys, sched)
        expected = (scipy_linalg.expm(-1j * (drift - 0.7 * ctrl))
                    @ scipy_linalg.expm(-0.5j * (drift + ctrl)))
        np.testing.assert_allclose(result.total, expected, atol=1e-10)
        assert result.factorization_error < 1e-10
