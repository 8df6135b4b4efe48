import os
import sys
import tracemalloc

import numpy as np
import pytest

from dynlie import (
    CONTROLLABLE_SU,
    CONTROLLABLE_U,
    UNCONTROLLABLE,
    NotClosedError,
    analyze_system,
    control_system,
    extend_basis,
    generate_closure,
    is_controllable,
    linalg,
    pauli,
    two_spin_system,
)
from dynlie import closure
from dynlie.adjoint import structure_constants
from dynlie.closure import ClosureResult, _closure_sweep
from dynlie.linalg import LieBasis, TOL_RANK, bracket_blocks, span_coords

from conftest import SX, SY, SZ, I2
from helpers import (
    commutator,
    coupled_sectors,
    ising_x,
    member_coords,
    naive_closure_dim,
    random_skew,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


def pauli_su4_system():
    """Two-qubit Pauli-string system default_rng([11, 39]), closing to su(4)."""
    def strings(*terms):
        return sum(c * np.kron(pauli(a), pauli(b)) for (a, b), c in terms)
    drift = strings(("zy", 0.8626653406413143), ("xz", -0.5813716229468491),
                    ("zz", -1.443886285802562))
    ctrl = strings(("yx", 0.7929463596782029), ("zx", -1.0415569247493681))
    return control_system(drift, [ctrl])


class TestGenerateClosure:
    def test_two_spin(self, two_spin_els):
        result, _ = generate_closure(two_spin_els[:3])
        assert result.dim == 6
        assert result.depth_reached == 2
        for el in two_spin_els:
            assert member_coords(result.basis, el) is not None

    def test_single_generator(self):
        result, _ = generate_closure([IX])
        assert result.dim == 1
        assert result.depth_reached == 0
        assert result.generators_used == 1

    def test_two_half_spins_close_to_su2(self):
        result, _ = generate_closure([IX, IY])
        assert result.dim == 3
        assert result.depth_reached == 1
        assert member_coords(result.basis, IZ) is not None

    def test_u2(self):
        result, _ = generate_closure([1j * np.eye(2), IX, IY])
        assert result.dim == 4

    def test_all_zero_generators(self):
        result, _ = generate_closure([np.zeros((3, 3))])
        assert result.dim == 0
        assert result.depth_reached == 0
        assert result.generators_used == 0

    def test_zero_generators_dropped(self):
        result, _ = generate_closure([np.zeros((2, 2)), IX])
        assert result.dim == 1
        assert result.generators_used == 1

    def test_scaling_invariance(self):
        small, _ = generate_closure([1e-4 * IX, 1e-4 * IY])
        assert small.dim == 3

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    @pytest.mark.parametrize("make, dim, verdict, ideal_dims", [
        (two_spin_system, 6, UNCONTROLLABLE, [3, 3]),
        (pauli_su4_system, 15, CONTROLLABLE_SU, [15]),
    ], ids=["two-spin", "pauli-su4"])
    def test_rescaled_system(self, make, dim, verdict, ideal_dims, scale):
        # An absolute norm cut on the generators used to drop every term
        # of a system scaled by 1e-9, closing it to the empty algebra.
        sys = make()
        scaled = control_system(scale * sys.drift,
                                [scale * c for c in sys.controls])
        for analysis in (analyze_system(sys), analyze_system(scaled)):
            assert analysis.closure.dim == dim
            assert analysis.verdict == verdict
            assert [b.dim for b in analysis.ideals.ideals] == ideal_dims

    def test_generator_cut_relative_to_largest(self):
        # The cut is ``tol`` (1e-8) times the largest generator norm: a
        # generator 1e-9 times the other is dropped, while two equally
        # tiny ones are both kept.
        result, _ = generate_closure([IX, 1e-9 * IY])
        assert result.dim == 1
        assert result.generators_used == 1
        result, _ = generate_closure([1e-12 * IX, 1e-12 * IY])
        assert result.dim == 3
        assert result.generators_used == 2

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            generate_closure([IX, 1j * np.kron(SZ, SZ)])

    def test_non_skew_raises(self):
        with pytest.raises(ValueError):
            generate_closure([SX])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            gens = [random_skew(rng, n) for _ in range(k)]
            result, _ = generate_closure(gens)
            assert result.dim == naive_closure_dim(gens)

    def test_closure_is_bracket_closed(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            gens = [random_skew(rng, n) for _ in range(2)]
            basis = generate_closure(gens)[0].basis
            for i in range(basis.dim):
                for j in range(i + 1, basis.dim):
                    br = commutator(basis.mats[i], basis.mats[j])
                    coords = member_coords(basis, br)
                    assert coords is not None

    def test_idempotent(self, rng):
        gens = [random_skew(rng, 3) for _ in range(2)]
        basis = generate_closure(gens)[0].basis
        again, _ = generate_closure(list(basis.mats))
        assert again.dim == basis.dim

    def test_invariant_under_generator_recombination(self, rng):
        gens = [random_skew(rng, 3) for _ in range(3)]
        base, _ = generate_closure(gens)
        mix = rng.standard_normal((3, 3))
        while abs(np.linalg.det(mix)) < 0.1:
            mix = rng.standard_normal((3, 3))
        mixed = [sum(mix[i, j] * gens[j] for j in range(3)) for i in range(3)]
        remixed, _ = generate_closure(mixed)
        assert remixed.dim == base.dim
        for el in base.basis.mats:
            assert member_coords(remixed.basis, el) is not None

    def test_dim_capped_by_ambient(self, rng):
        for n in (2, 3):
            gens = [random_skew(rng, n) for _ in range(3)]
            assert generate_closure(gens)[0].dim <= n * n

    def test_layers_stop_at_su_n(self, monkeypatch):
        # Traceless terms that generate su(4): once the span has dimension
        # 15 no bracket can add a direction, so no layered pass runs there.
        gens = generators(pauli_su4_system())
        dims, layered = [], []
        extend, blocks = closure.extend_basis, closure.bracket_blocks

        def spy_extend(basis, candidates, tol):
            out = extend(basis, candidates, tol)
            dims.append(out.dim)
            return out

        def spy_blocks(a, b):
            if a is not b:  # a layer against the generators, not the sweep
                layered.append(dims[-1])
            return blocks(a, b)

        monkeypatch.setattr(closure, "extend_basis", spy_extend)
        monkeypatch.setattr(closure, "bracket_blocks", spy_blocks)
        result, _ = generate_closure(gens)
        assert result.dim == 15 and max(layered) < 15
        assert len(layered) == result.depth_reached
        # The same closure with the layered loop forced on to the end.
        with monkeypatch.context() as m:
            m.setattr(closure, "_whole_algebra", lambda basis: None)
            layered.clear()
            forced, _ = generate_closure(gens)
        assert max(layered) == 15
        assert np.array_equal(forced.basis.stack, result.basis.stack)
        assert forced.depth_reached == result.depth_reached
        assert is_controllable(forced) == is_controllable(result)
        assert is_controllable(result) == CONTROLLABLE_SU


class TestIsControllable:
    def test_full_unitary_algebra(self):
        result, _ = generate_closure([1j * np.eye(2), IX, IY])
        assert is_controllable(result) == CONTROLLABLE_U

    def test_traceless_full_algebra(self):
        result, _ = generate_closure([IX, IY])
        assert is_controllable(result) == CONTROLLABLE_SU

    def test_two_spin_uncontrollable(self, two_spin_els):
        result, _ = generate_closure(two_spin_els[:3])
        assert is_controllable(result) == UNCONTROLLABLE

    def test_empty_algebra(self):
        result, _ = generate_closure([np.zeros((2, 2))])
        assert is_controllable(result) == UNCONTROLLABLE

    def test_one_dimensional_system(self):
        # At n = 1 the empty algebra is all of su(1).
        one, _ = generate_closure([1j * np.eye(1)])
        assert is_controllable(one) == CONTROLLABLE_U
        empty, _ = generate_closure([np.zeros((1, 1))])
        assert is_controllable(empty) == CONTROLLABLE_SU

    def test_su_n_dimension_with_a_trace_is_proper(self):
        # Dimension n^2 - 1, but i*I is in the span: not su(n).
        def verdict(*mats):
            unit = [m / np.linalg.norm(m) for m in mats]
            return is_controllable(ClosureResult(LieBasis(2, unit), 0, 3))

        assert verdict(1j * np.eye(2), IX, IY) == UNCONTROLLABLE
        assert verdict(IX, IY, IZ) == CONTROLLABLE_SU


def generators(system):
    return [1j * system.drift] + [1j * h for h in system.controls]


def worst_residual(basis):
    """The closure check's worst relative residual, from all d^2 brackets
    of ``basis`` at once."""
    m = basis.mats
    br = m[:, None] @ m - m @ m[:, None]
    _, resid = span_coords(basis, br)
    return (resid / np.maximum(1.0, np.linalg.norm(br, axis=(2, 3)))).max()


# Block budgets in bytes: below one row, so every block is one row; three
# rows of a d = 6 basis at n = 4; and every pass in one block.
ONE_ROW, THREE_ROWS, ONE_BLOCK = 1, 3 * 6 * 16 * 16, 1 << 40


class TestRowBlocks:
    """The all-pairs passes take their brackets in row blocks of at most
    ``linalg.BRACKET_BLOCK_BYTES``; the block count changes nothing."""

    @pytest.mark.parametrize("budget", [ONE_ROW, THREE_ROWS])
    @pytest.mark.parametrize("make", [two_spin_system, lambda: ising_x(3)],
                             ids=["two-spin", "ising-x-3"])
    def test_blocks_change_no_bit(self, make, budget, monkeypatch):
        system = make()
        gens = generators(system)
        # The sweep alone, from the normalized generators, closes the
        # algebra over several passes.
        seed = extend_basis(LieBasis(system.dim),
                            [g / np.linalg.norm(g) for g in gens])

        def passes():
            swept, c = _closure_sweep(seed, TOL_RANK)
            return swept, generate_closure(gens)[0].basis, c

        monkeypatch.setattr(linalg, "BRACKET_BLOCK_BYTES", ONE_BLOCK)
        swept, closed, c = passes()
        assert len(list(bracket_blocks(swept.mats, swept.mats))) == 1
        monkeypatch.setattr(linalg, "BRACKET_BLOCK_BYTES", budget)
        assert len(list(bracket_blocks(swept.mats, swept.mats))) > 1
        got = passes()
        assert np.array_equal(got[0].stack, swept.stack)
        assert np.array_equal(got[1].stack, closed.stack)
        assert np.array_equal(got[2], c)
        # The check passes at the one-block worst residual and fails just
        # below it, so the blocks give that worst residual to the bit.
        worst = worst_residual(swept)
        assert np.array_equal(structure_constants(swept, tol=worst), c)
        with pytest.raises(NotClosedError):
            structure_constants(swept, tol=np.nextafter(worst, -1.0))

    @pytest.mark.parametrize("budget", [ONE_ROW, None])
    @pytest.mark.parametrize("coupling", [1e-6, 1e-7, 1e-8, 1e-9])
    def test_weakly_coupled_sectors_close(self, coupling, budget,
                                          monkeypatch):
        # The layered schedule loses directions of this drift, which mixes
        # scales; the sweep finds them again, one row per block too.
        if budget is not None:
            monkeypatch.setattr(linalg, "BRACKET_BLOCK_BYTES", budget)
        assert generate_closure(
            generators(coupled_sectors(coupling)))[0].dim == 16

    def test_analysis_peak_below_one_bracket_tensor(self):
        # Ising-x k=5 (n = 32, d = 25): all d^2 brackets at once take
        # d^2 n^2 16 B = 10.2 MB, and the passes that held them, with their
        # temporaries, peaked at 31.3 MB.
        system = ising_x(5)
        tracemalloc.start()
        try:
            analysis = analyze_system(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d, n = analysis.closure.dim, system.dim
        assert d == 25
        assert peak < d * d * n * n * 16, peak


@pytest.fixture(scope="module")
def ladder():
    """(name, system) of the benchmark's analysis ladder."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "perfbench"))
    workloads = pytest.importorskip("workloads")
    return [(name, control_system(terms[0], terms[1:]))
            for name, terms in workloads.AnalyzeLadder.ladder()]


@pytest.fixture
def all_pairs_passes(monkeypatch):
    """The basis dimension of each call bracket_blocks(m, m), from any
    dynlie module."""
    calls = []
    original = linalg.bracket_blocks

    def spy(a, b):
        if a is b:
            calls.append(len(a))
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if (name.startswith("dynlie.")
                and getattr(module, "bracket_blocks", None) is original):
            monkeypatch.setattr(module, "bracket_blocks", spy)
    return calls


class TestOnePass:
    """The closure's sweep passes are the only all-pairs bracket passes of
    an analysis, and the pass that adds nothing gives c."""

    def test_one_all_pairs_pass_per_analysis(self, ladder, all_pairs_passes):
        for name, system in ladder:
            all_pairs_passes.clear()
            d = analyze_system(system).closure.dim
            assert all_pairs_passes == [d], name

    def test_closure_c_is_structure_constants(self, ladder, all_pairs_passes):
        # The weakly coupled sectors take more than one sweep pass.
        sectors = ("coupled sectors 1e-8", coupled_sectors(1e-8))
        for name, system in ladder + [sectors]:
            all_pairs_passes.clear()
            result, c = generate_closure(generators(system))
            passes = len(all_pairs_passes)
            assert (passes > 1) if name == sectors[0] else (passes == 1), name
            assert np.array_equal(c, structure_constants(result.basis)), name
