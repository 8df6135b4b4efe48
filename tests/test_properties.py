"""Structure that must not change when a system is rescaled, conjugated by
a unitary or has its controls recombined, checked against the independent
oracles of ``perfbench/checks.py`` (brute-force closure, the radical as the
algebra intersected with the commutant of the generators, and the centroid
dimension as the number of simple factors; Zeier and Schulte-Herbrueggen,
J. Math. Phys. 52, 113510, 2011).

Systems are the benchmark's fixed draws: two-qubit Pauli-string systems and
dense u(3) and u(4) systems.
"""

import os
import sys

import numpy as np
import pytest

from dynlie import analyze_system, control_system

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
