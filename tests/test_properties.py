"""Structure that must not change when a system is rescaled, conjugated by
a unitary or has its controls recombined, checked against the independent
oracles of ``perfbench/checks.py`` (brute-force closure, the radical as the
algebra intersected with the commutant of the generators, and the centroid
dimension as the number of simple factors; Zeier and Schulte-Herbrueggen,
J. Math. Phys. 52, 113510, 2011).

Systems are the benchmark's fixed draws: two-qubit Pauli-string systems and
dense u(3) and u(4) systems.  Propagation of random real systems, which runs
in real arithmetic, and of the same systems with a small imaginary part, which
does not, is checked against the one-segment-at-a-time loop.  So is
propagation of systems whose frame blocks carry equivalent or complex-
conjugate representations, which exponentiates only one block of each
class, and of those systems after a random unitary conjugation.
"""

import os
import sys
from unittest import mock

import numpy as np
import pytest

from dynlie import ControlSchedule, analyze_system, control_system, propagate
from dynlie import recognize_su2
from dynlie import dynamics

from helpers import block_pairings, loop_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
checks = pytest.importorskip("checks")
workloads = pytest.importorskip("workloads")


def draw_terms(kind, index):
    if kind == "pauli":
        rng = np.random.default_rng([workloads.PAULI_KEY, index])
        return workloads.pauli_strings(rng)
    return workloads.dense(kind, index)


def transform(terms, how, seed):
    """The Hamiltonian terms after one structure-preserving change."""
    rng = np.random.default_rng(seed)
    if how in ("scale 1e9", "scale 1e-9"):
        return [float(how[6:]) * h for h in terms]
    if how == "conjugate":
        n = terms[0].shape[0]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.linalg.qr(a)[0]
        return [u @ h @ u.conj().T for h in terms]
    # An invertible, well-conditioned mix of the controls.
    m = len(terms) - 1
    mix = np.eye(m) + 0.3 * rng.uniform(-1.0, 1.0, (m, m)) / m
    return [terms[0]] + list(np.einsum("ij,jab->iab", mix, terms[1:]))


def structure(terms):
    a = analyze_system(control_system(terms[0], terms[1:]))
    ideals = a.ideals.ideals if a.ideals is not None else ()
    # The flag is read from the dimension; recognize_su2, from the Levi
    # split and c = k eps, confirms that each 3-dimensional ideal is a
    # copy of su(2).
    for ideal, su2 in zip(ideals, a.ideals.su2 if ideals else ()):
        assert su2 == (ideal.dim == 3)
        assert (recognize_su2(ideal) is not None) == su2
    return {"dim": a.closure.dim, "verdict": a.verdict,
            "ideal_dims": sorted(i.dim for i in ideals),
            "radical_lines": len(a.levi.radical_lines)}


systems = st.one_of(
    st.tuples(st.just("pauli"), st.integers(0, 1499)),
    st.tuples(st.sampled_from([3, 4]), st.integers(0, 74)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(system=systems,
       how=st.sampled_from(["scale 1e9", "scale 1e-9", "conjugate",
                            "recombine"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_structure_invariant_and_matches_oracle(system, how, seed):
    terms = draw_terms(*system)
    got = structure(terms)
    o = checks.oracle(terms)
    assert got == {"dim": o.dim, "verdict": o.verdict,
                   "ideal_dims": got["ideal_dims"],
                   "radical_lines": o.radical_dim}
    assert len(got["ideal_dims"]) == o.simple_count
    assert sum(got["ideal_dims"]) == o.semisimple_dim
    assert structure(transform(terms, how, seed)) == got


def real_terms(rng, n, controls, cut):
    """Random real symmetric drift and controls, block diagonal over sizes
    cut and n - cut (one block for cut 0), in a random orthogonal frame."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    terms = []
    for _ in range(controls + 1):
        a = rng.standard_normal((n, n))
        if cut:
            a[:cut, cut:] = a[cut:, :cut] = 0.0
        terms.append(q @ (a + a.T) @ q.T / 2)
    return terms


def propagated(decomp, terms, sched):
    """propagate's result, whether it ran in real arithmetic (its frame
    from ``invariant_frame`` is real), and the loop's total and
    factors."""
    system = control_system(terms[0], terms[1:])
    frame_of, frames = dynamics.invariant_frame, []

    def spy(owners):
        frames.append(frame_of(owners))
        return frames[-1]

    with mock.patch.object(dynamics, "invariant_frame", spy):
        result = propagate(decomp, system, sched)
    [(frame, _)] = frames
    return result, frame.dtype == np.float64, loop_reference(decomp, system,
                                                             sched)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(3, 6), controls=st.integers(1, 2),
       cut=st.integers(0, 2), segments=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_propagation_matches_loop(n, controls, cut, segments, seed):
    rng = np.random.default_rng(seed)
    terms = real_terms(rng, n, controls, cut)
    decomp = analyze_system(control_system(terms[0], terms[1:])).decomposition
    sched = ControlSchedule(tuple(
        (float(rng.uniform(0.05, 1.0)), rng.uniform(-2, 2, controls))
        for _ in range(segments)))
    # 1e-9 i A with A real antisymmetric keeps a term Hermitian and inside
    # the algebra at the rank tolerance, and is far above TOL_FRAME, so the
    # perturbed system runs in complex arithmetic.
    a = rng.standard_normal((n, n))
    bent = list(terms)
    k = int(rng.integers(len(terms)))
    bent[k] = bent[k] + 1e-9j * (a - a.T) / np.linalg.norm(a - a.T)
    totals = []
    for hs, real in ((terms, True), (bent, False)):
        result, took_real, (total, factors) = propagated(decomp, hs, sched)
        assert took_real is real
        np.testing.assert_allclose(result.total, total, rtol=0, atol=1e-11)
        assert len(result.factors) == len(factors)
        for got, want in zip(result.factors, factors):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
        totals.append(result.total)
    np.testing.assert_allclose(totals[1], totals[0], rtol=0, atol=1e-7)


def conjugated(terms, seed):
    """The terms conjugated by a random unitary, and that unitary."""
    rng = np.random.default_rng(seed)
    n = terms[0].shape[0]
    u = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return [u @ h @ u.conj().T for h in terms], u


MODELS = {
    "two-spin": workloads.two_spin,
    "three-qubit": workloads.three_qubit,
    "ising-x-3": lambda: workloads.ising(3, "x"),
    "ising-x-4": lambda: workloads.ising(4, "x"),
    "ising-x-5": lambda: workloads.ising(5, "x"),
}


@pytest.mark.parametrize("name", ["ising-x-4", "ising-x-5", "three-qubit",
                                  "ising-x-4-complex"])
def test_transported_blocks_match_loop_and_expm(name):
    terms = MODELS[name.removesuffix("-complex")]()
    if name.endswith("complex"):
        # Complex terms, with the 4 and 4-bar blocks of the real chain.
        terms = conjugated(terms, 5)[0]
    decomp = analyze_system(control_system(terms[0], terms[1:])).decomposition
    rng = np.random.default_rng(len(name))
    segs = [(float(rng.uniform(0.05, 1.0)), rng.uniform(-2, 2, 1))
            for _ in range(150)]
    sched = ControlSchedule(tuple(segs))
    with block_pairings() as calls:
        result, real, (total, factors) = propagated(decomp, terms, sched)
    assert real is not name.endswith("complex")
    assert calls[0][1]
    np.testing.assert_allclose(result.total, total, rtol=0, atol=1e-10)
    for got, want in zip(result.factors, factors):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    assert checks.check_propagation(result.total, result.factors,
                                    checks.expm_product(terms, segs)) == []


@pytest.mark.parametrize("name", ["two-spin", "three-qubit", "ising-x-3",
                                  "ising-x-4"])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(segments=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_unitary_conjugation_leaves_propagator(name, segments, seed):
    terms = MODELS[name]()
    moved, u = conjugated(terms, seed)
    rng = np.random.default_rng(seed)
    sched = ControlSchedule(tuple(
        (float(rng.uniform(0.05, 1.0)), rng.uniform(-2, 2, len(terms) - 1))
        for _ in range(segments)))
    results = []
    for hs in (terms, moved):
        system = control_system(hs[0], hs[1:])
        decomp = analyze_system(system).decomposition
        results.append((decomp, propagate(decomp, system, sched)))
    (decomp, plain), (_, result) = results
    back = u.conj().T @ np.stack((result.total,) + result.factors) @ u
    np.testing.assert_allclose(back[0], plain.total, rtol=0, atol=1e-10)
    assert result.factorization_error < 1e-10
    # Radical lines are any orthonormal basis of the radical, so only the
    # simple ideals' factors are matched, in any order.
    for (kind, _), want in zip(decomp.components, plain.factors):
        if kind == dynamics.KIND_SIMPLE:
            assert min(np.abs(got - want).max() for got in back[1:]) < 1e-10
