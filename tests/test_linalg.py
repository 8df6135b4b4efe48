import numpy as np
import pytest

from dynlie import (
    LieBasis,
    empty_basis,
    extend_basis,
    nullspace,
    pauli,
    kron,
    skew_hermitian,
)
from dynlie import dynamics, linalg
from dynlie.linalg import (
    hermitian_part,
    invariant_frame,
)
from dynlie.errors import DecompositionError, NotInSpanError

from conftest import SX, SY, SZ, I2
from helpers import (
    bracket_residual,
    commutator,
    dense_terms,
    expm_skew,
    from_coords,
    hs_inner,
    member_coords,
    off_block,
    random_skew,
)

IX, IY, IZ = 1j * SX, 1j * SY, 1j * SZ


class TestCommutator:
    def test_pauli_cyclic_relations(self):
        np.testing.assert_allclose(commutator(IX, IY), IZ, atol=1e-12)
        np.testing.assert_allclose(commutator(IY, IZ), IX, atol=1e-12)
        np.testing.assert_allclose(commutator(IZ, IX), IY, atol=1e-12)

    def test_antisymmetry(self, rng):
        a, b = random_skew(rng, 3), random_skew(rng, 3)
        np.testing.assert_allclose(
            commutator(a, b), -commutator(b, a), atol=1e-12)

    def test_self_bracket_vanishes(self, rng):
        a = random_skew(rng, 4)
        np.testing.assert_allclose(commutator(a, a), 0, atol=1e-12)

    def test_coupling_with_drive(self):
        # [i sz x sz, i sx x 1] resolves to +i sy x sz; oracle is the
        # direct 4x4 product difference.
        a = 1j * kron(SZ, SZ)
        b = 1j * kron(SX, I2)
        expected = 1j * kron(SY, SZ)
        np.testing.assert_allclose(a @ b - b @ a, expected, atol=1e-12)
        np.testing.assert_allclose(commutator(a, b), expected, atol=1e-12)

    def test_jacobi_identity(self, rng):
        for _ in range(20):
            x, y, z = (random_skew(rng, 3) for _ in range(3))
            total = (commutator(x, commutator(y, z))
                     + commutator(y, commutator(z, x))
                     + commutator(z, commutator(x, y)))
            assert np.linalg.norm(total) < 1e-12


class TestHsInner:
    def test_half_spin_normalization(self):
        assert hs_inner(IX, IX) == pytest.approx(0.5)
        assert hs_inner(IY, IY) == pytest.approx(0.5)
        assert hs_inner(IZ, IZ) == pytest.approx(0.5)

    def test_distinct_axes_orthogonal(self):
        assert abs(hs_inner(IX, IZ)) < 1e-15
        assert abs(hs_inner(IX, IY)) < 1e-15

    def test_identity_norm(self):
        assert hs_inner(1j * np.eye(2), 1j * np.eye(2)) == pytest.approx(2.0)

    def test_matches_real_trace(self, rng):
        a, b = random_skew(rng, 3), random_skew(rng, 3)
        assert hs_inner(a, b) == pytest.approx(
            np.trace(a.conj().T @ b).real, abs=1e-12)


class TestSkewHermitian:
    def test_accepts_and_cleans(self, rng):
        a = random_skew(rng, 3)
        dusted = a + 1e-14 * np.eye(3)
        out = skew_hermitian(dusted)
        np.testing.assert_allclose(out, -out.conj().T, atol=0)

    def test_rejects_hermitian(self):
        with pytest.raises(ValueError):
            skew_hermitian(SX)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            skew_hermitian(np.zeros((2, 3)))

    def test_rejects_nan(self):
        for x in (np.nan, np.inf):
            bad = np.array([[0, x], [x, 0]], dtype=complex)
            with pytest.raises(ValueError, match="has non-finite entries"):
                skew_hermitian(bad)


class TestHermitianPart:
    def test_accepts_round_off_and_symmetrizes(self):
        h = SX + 1e-12 * np.array([[0, 1], [0, 0]])
        out = hermitian_part(h)
        assert np.array_equal(out, out.conj().T)
        np.testing.assert_allclose(out, SX, atol=1e-12)

    def test_tolerance_is_settable(self):
        h = SX + 1e-9 * np.array([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="drift"):
            hermitian_part(h, what="drift")
        hermitian_part(h, tol=1e-8)

    def test_stack_validated_per_matrix(self):
        # A 1e-9 defect is round-off next to a 1e6 matrix but not on a
        # unit one: each matrix is held to its own norm, not the stack's.
        kick = np.array([[0, 1], [0, 0]])
        big = 1e6 * SX + 1e-9 * kick
        small = SX + 1e-9 * kick
        hermitian_part(big)
        out = hermitian_part(np.stack([big, SX]))
        assert np.array_equal(out, np.swapaxes(out.conj(), -1, -2))
        with pytest.raises(ValueError, match=r"drift \[1\] is not Hermitian"):
            hermitian_part(np.stack([big, small]), what="drift")

    def test_first_failing_index_and_defect(self):
        # Two failing matrices in a (2, 2) stack: the error names the first
        # in row-major order and its defect ||M - M^H||_F = 1e-6 * sqrt(2).
        kick = 1e-6 * np.array([[0, 1], [0, 0]])
        stack = np.stack([[SX, SZ], [SX + kick, SY + 2 * kick]])
        with pytest.raises(ValueError, match=r"^matrix \[1, 0\] is not "
                           r"Hermitian at tolerance 1e-10: defect 1\.414e-06$"):
            hermitian_part(stack)

    def test_skew_branch_matches_skew_hermitian(self, rng):
        a = random_skew(rng, 3) + 1e-14 * np.eye(3)
        assert np.array_equal(hermitian_part(a, skew=True), skew_hermitian(a))
        with pytest.raises(ValueError):
            hermitian_part(a)


class TestBracketResidual:
    def test_matches_pairwise_loop(self, rng):
        a = extend_basis(empty_basis(3), [random_skew(rng, 3) for _ in range(2)])
        b = extend_basis(empty_basis(3), [random_skew(rng, 3) for _ in range(3)])
        expected = max(np.linalg.norm(commutator(x, e))
                       for x in a.mats for e in b.mats)
        assert bracket_residual(a, b) == pytest.approx(expected, rel=1e-12)

    def test_part_outside_span(self):
        su2 = extend_basis(empty_basis(2), [IX, IY, IZ])
        line = extend_basis(empty_basis(2), [IX])
        assert bracket_residual(su2, su2, su2) < 1e-15
        # For the HS-normalized e_k = sqrt(2) i s_k, [e_z, e_x] = sqrt(2) e_y
        # lies wholly outside span{e_x}.
        assert bracket_residual(su2, line, line) == pytest.approx(np.sqrt(2.0))

    def test_empty_is_zero(self):
        su2 = extend_basis(empty_basis(2), [IX, IY, IZ])
        assert bracket_residual(empty_basis(2), su2) == 0.0
        assert bracket_residual(su2, empty_basis(2)) == 0.0


class TestExtendBasis:
    def test_output_is_exactly_skew_hermitian(self, rng):
        # The dense u(3) draw's closure used to carry a 1e-9 skew defect
        # from Gram-Schmidt noise amplified in small residuals.
        gens = [1j * h for h in dense_terms([7, 3, 793], 3)]
        cands = gens + [commutator(gens[0], gens[1])]
        cands += [commutator(c, g) for c in list(cands) for g in gens]
        cands += [random_skew(rng, 3) for _ in range(12)]
        basis = extend_basis(empty_basis(3), cands)
        assert basis.dim == 9
        for m in basis.mats:
            assert np.array_equal(m + m.conj().T, np.zeros((3, 3)))

    def test_collinear_candidates_collapse(self):
        basis = extend_basis(empty_basis(2), [IX, 2 * IX, IY])
        assert basis.dim == 2

    def test_near_member_is_rejected(self):
        basis = extend_basis(empty_basis(2), [IX])
        assert basis.dim == 1
        again = extend_basis(basis, [IX + 1e-12 * IY])
        assert again.dim == 1

    def test_two_spin_elements_are_independent(self, two_spin_els):
        basis = extend_basis(empty_basis(4), two_spin_els)
        assert basis.dim == 6

    def test_orthonormal_output(self, rng):
        for _ in range(10):
            cands = [random_skew(rng, 3) for _ in range(12)]
            basis = extend_basis(empty_basis(3), cands)
            gram = basis.vecs @ basis.vecs.T
            np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-12)

    def test_accepted_candidates_are_members(self, rng):
        cands = [random_skew(rng, 4) for _ in range(6)]
        basis = extend_basis(empty_basis(4), cands)
        for c in cands:
            assert member_coords(basis, c) is not None

    def test_idempotent(self, rng):
        cands = [random_skew(rng, 3) for _ in range(5)]
        basis = extend_basis(empty_basis(3), cands)
        again = extend_basis(basis, cands)
        assert again.dim == basis.dim

    def test_zero_candidates_ignored(self):
        basis = extend_basis(empty_basis(2), [np.zeros((2, 2))])
        assert basis.dim == 0

    def test_nothing_new_returns_the_input(self):
        # A closure pass hands every block to extend_basis; a block that
        # adds nothing costs no copy of the stack.
        basis = extend_basis(empty_basis(2), [IX, IY])
        assert extend_basis(basis, [IX + IY, 2 * IY]) is basis
        grown = extend_basis(basis, [IZ])
        assert grown.dim == 3 and not grown.stack.flags.writeable
        # A basis of rows comes back as a stack of its own.
        rows = grown.span(np.eye(3)[:2])
        again = extend_basis(rows, [IX])
        assert again.rows is None
        assert np.array_equal(again.stack, rows.mats)

    def test_empty_candidates(self):
        basis = extend_basis(empty_basis(2), [IX])
        assert extend_basis(basis, []) is basis
        assert extend_basis(basis, np.zeros((0, 2, 2))) is basis
        assert extend_basis(empty_basis(2), []).dim == 0
        rows = extend_basis(basis, [IY]).span(np.eye(2)[:1])
        assert extend_basis(rows, []).dim == 1

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2), (4,), (1, 2, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="do not match ambient"):
            extend_basis(empty_basis(2), np.ones(shape))

    @pytest.mark.parametrize("cand", [np.eye(2), IX + SZ,
                                      np.full((2, 2), np.nan)])
    def test_non_skew_candidates_rejected(self, cand):
        # The identity used to come back as an all-NaN element (0/0 in the
        # normalization), and iX + Z as iX alone.
        with pytest.raises(ValueError, match="candidate"):
            extend_basis(empty_basis(2), [IY, cand])

    def test_list_equals_stack(self, rng):
        base = extend_basis(empty_basis(3), [random_skew(rng, 3)])
        cands = [random_skew(rng, 3) for _ in range(6)]
        cands.append(cands[0] + 2 * cands[1])
        from_list = extend_basis(base, cands)
        from_stack = extend_basis(base, np.stack(cands))
        assert from_list.dim == 7
        assert from_list.stack.tobytes() == from_stack.stack.tobytes()


class TestBracketBlocks:
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_blocks_follow_the_budget(self, rng, monkeypatch, rows):
        a = np.stack([random_skew(rng, 3) for _ in range(5)])
        b = np.stack([random_skew(rng, 3) for _ in range(4)])
        monkeypatch.setattr(linalg, "BRACKET_BLOCK_BYTES", rows * 4 * 9 * 16)
        blocks = list(linalg.bracket_blocks(a, b))
        assert [start for start, _ in blocks] == list(range(0, 5, rows))
        assert all(len(block) <= rows for _, block in blocks)
        got = np.concatenate([block for _, block in blocks])
        for i in range(5):
            for j in range(4):
                np.testing.assert_allclose(got[i, j],
                                           commutator(a[i], b[j]), atol=1e-14)
        # One row at least, however small the budget.
        monkeypatch.setattr(linalg, "BRACKET_BLOCK_BYTES", 1)
        single = [block for _, block in linalg.bracket_blocks(a, b)]
        assert [len(block) for block in single] == [1] * 5
        assert np.array_equal(np.concatenate(single), got)

    def test_empty_stacks(self):
        assert list(linalg.bracket_blocks(np.zeros((0, 2, 2)), [IX])) == []
        (start, block), = linalg.bracket_blocks([IX], np.zeros((0, 2, 2)))
        assert start == 0 and block.shape == (1, 0, 2, 2)


class TestMemberCoords:
    """The tests' own membership oracle (``helpers.member_coords``, least
    squares) and ``helpers.from_coords``, on the library's bases."""

    def test_member_reconstructs(self, two_spin_basis):
        x = 1j * (kron(SZ, SY) + kron(SY, SZ))
        coords = member_coords(two_spin_basis, x)
        assert coords is not None
        rebuilt = from_coords(two_spin_basis, coords[np.newaxis, :])[0]
        np.testing.assert_allclose(rebuilt, x, atol=1e-12)

    def test_non_member_returns_none(self, two_spin_basis):
        assert member_coords(two_spin_basis, 1j * kron(SZ, I2)) is None

    def test_shape_mismatch_rejected(self, su2):
        with pytest.raises(ValueError):
            member_coords(su2, np.zeros((3, 3), dtype=complex))


class TestLieBasis:
    def test_rejects_non_orthonormal(self):
        unit = IX / np.sqrt(0.5)
        with pytest.raises(ValueError):
            LieBasis(2, np.stack([unit, unit]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not orthonormal"):
            LieBasis(2, [np.full((2, 2), bad)])

    def test_arrays_read_only(self, su2):
        with pytest.raises(ValueError):
            su2.mats[0, 0, 0] = 1.0

    def test_vecs_is_a_view_of_mats(self, su2):
        # One array per basis: the real rows interleave the real and
        # imaginary parts of the matrix entries.
        assert np.shares_memory(su2.vecs, su2.mats)
        assert not su2.vecs.flags.writeable
        np.testing.assert_array_equal(su2.vecs[1, :2], [su2.mats[1, 0, 0].real,
                                                         su2.mats[1, 0, 0].imag])

    def test_wraps_read_only_stack_without_copy(self, su2):
        line = LieBasis(2, su2.mats[1:2])
        assert np.shares_memory(line.mats, su2.mats)

    def test_copies_writeable_stack(self):
        mats = np.stack([IZ / np.sqrt(0.5)])
        basis = LieBasis(2, mats)
        assert not np.shares_memory(basis.mats, mats)
        mats[0, 0, 0] = 0.0
        assert basis.mats[0, 0, 0] != 0.0

    def test_iteration_and_len(self, su2):
        assert len(su2) == 3
        assert len(list(su2)) == 3


class TestRowBasis:
    """A basis derived from another is orthonormal coordinate rows over
    the other's matrix stack, and computes its matrices on access."""

    @pytest.fixture
    def sub(self, two_spin_basis, rng):
        rows = np.linalg.qr(rng.standard_normal((6, 6)))[0][:3]
        return two_spin_basis.span(rows)

    def test_matrices_computed_on_access(self, two_spin_basis, sub):
        assert sub.stack is two_spin_basis.stack and sub.dim == 3
        want = np.einsum("ri,inm->rnm", sub.rows, two_spin_basis.mats)
        np.testing.assert_allclose(sub.mats, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sub.vecs, sub.rows @ two_spin_basis.vecs,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(sub[1], want[1], rtol=0, atol=1e-15)
        assert not np.shares_memory(sub.mats, sub.mats)
        assert not sub.rows.flags.writeable

    def test_span_of_rows_is_over_the_same_stack(self, sub, rng):
        local = np.linalg.qr(rng.standard_normal((3, 3)))[0][:2]
        inner = sub.span(local)
        assert inner.stack is sub.stack
        np.testing.assert_allclose(inner.rows, local @ sub.rows, atol=1e-15)

    def test_parts_share_rows(self, sub):
        line, plane = sub.parts([1, 2])
        assert (line.dim, plane.dim) == (1, 2)
        assert np.shares_memory(line.rows, sub.rows)
        np.testing.assert_array_equal(plane.rows, sub.rows[1:])

    def test_coords_over_one_stack_are_a_product(self, two_spin_basis, sub):
        line = sub.parts([1, 2])[0]
        np.testing.assert_array_equal(two_spin_basis.coords(sub), sub.rows)
        np.testing.assert_allclose(sub.coords(line), [[1.0, 0.0, 0.0]],
                                   atol=1e-15)

    def test_coords_of_a_foreign_basis_projected(self, two_spin_basis, sub):
        foreign = LieBasis(4, sub.mats)
        np.testing.assert_allclose(two_spin_basis.coords(foreign), sub.rows,
                                   atol=1e-14)
        outside = extend_basis(empty_basis(4), [1j * kron(SZ, I2)])
        with pytest.raises(NotInSpanError):
            two_spin_basis.coords(outside)


class TestSignificant:
    """``linalg._significant``, the package's one rank rule: a value
    counts when it exceeds ``tol * max(largest, 1)``."""

    def test_value_at_the_cut_is_dropped(self):
        cut = 1e-8 * 4.0
        values = np.array([4.0, cut, np.nextafter(cut, 1.0), 0.0])
        np.testing.assert_array_equal(linalg._significant(values, 1e-8),
                                      [True, False, True, False])

    def test_largest_below_one_uses_the_floor(self):
        # Relative to the largest value, 0.5, the cut would be 5e-9.
        values = np.array([0.5, 1e-8, 1.5e-8, 6e-9])
        np.testing.assert_array_equal(linalg._significant(values, 1e-8),
                                      [True, False, True, False])

    def test_empty_spectrum(self):
        out = linalg._significant(np.zeros(0), 1e-8)
        assert out.shape == (0,) and out.dtype == bool


class TestClusterBounds:
    """``linalg._cluster_bounds``, the package's one eigenvalue-gap cut: a
    cluster ends where the next value exceeds the last by more than the
    gap."""

    def test_difference_at_the_gap_stays_in_the_cluster(self):
        values = np.array([0.0, 0.5, 1.0, 3.0])
        np.testing.assert_array_equal(linalg._cluster_bounds(values, 0.5),
                                      [0, 3, 4])
        np.testing.assert_array_equal(
            linalg._cluster_bounds(values, np.nextafter(0.5, 0.0)),
            [0, 1, 2, 3, 4])

    def test_single_value(self):
        np.testing.assert_array_equal(
            linalg._cluster_bounds(np.array([2.0]), 1e-6), [0, 1])

    def test_all_values_distinct(self):
        values = np.array([-1.0, -1e-3, 0.0, 2.0])
        np.testing.assert_array_equal(linalg._cluster_bounds(values, 1e-6),
                                      [0, 1, 2, 3, 4])


class TestGate:
    """``linalg._gate``, the structure stages' one residual check at
    ``TOL_RESIDUAL``."""

    def test_residual_at_the_bound_passes(self):
        got = linalg._gate(np.float64(linalg.TOL_RESIDUAL), "unused")
        assert type(got) is float and got == linalg.TOL_RESIDUAL

    def test_residual_above_the_bound_raises(self):
        above = np.nextafter(linalg.TOL_RESIDUAL, 1.0)
        with pytest.raises(DecompositionError,
                           match="ideals fail to commute, residual 1.000e-08"):
            linalg._gate(above, "ideals fail to commute")


class TestNullspace:
    def test_full_rank_has_empty_nullspace(self):
        assert nullspace(np.eye(3)).shape == (0, 3)

    def test_rank_one_projector(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        ns = nullspace(m)
        assert ns.shape == (1, 2)
        np.testing.assert_allclose(m @ ns[0], 0, atol=1e-12)

    def test_zero_matrix_gives_identity(self):
        ns = nullspace(np.zeros((2, 4)))
        np.testing.assert_allclose(ns, np.eye(4))

    def test_rows_orthonormal(self, rng):
        m = rng.standard_normal((3, 6))
        ns = nullspace(m)
        assert ns.shape == (3, 6)
        np.testing.assert_allclose(ns @ ns.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(m @ ns.T, 0, atol=1e-12)


class TestExpmSkew:
    """``linalg._expm_skew``, the kernel ``propagate`` takes for blocks of
    sizes 1 and 2 and for complex blocks, on exactly skew-Hermitian input
    (``helpers.expm_skew``)."""

    def test_full_turn_is_minus_identity(self):
        u = expm_skew(IZ, t=2 * np.pi)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(
            expm_skew(np.zeros((3, 3)), t=5.0), np.eye(3), atol=0)

    def test_matches_scipy(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for _ in range(10):
            a = random_skew(rng, 4)
            t = float(rng.uniform(-3, 3))
            np.testing.assert_allclose(
                expm_skew(a, t=t), scipy_linalg.expm(t * a), atol=1e-12)

    def test_unitary(self, rng):
        for _ in range(10):
            a = random_skew(rng, 5)
            u = expm_skew(a, t=float(rng.uniform(0, 100)))
            np.testing.assert_allclose(
                u.conj().T @ u, np.eye(5), atol=1e-10)

    def test_group_law(self, rng):
        a = random_skew(rng, 3)
        s, t = 0.7, 1.9
        np.testing.assert_allclose(
            expm_skew(a, t=s + t),
            expm_skew(a, t=s) @ expm_skew(a, t=t),
            atol=1e-10)

    def test_stack_matches_single_calls(self, rng):
        for n in (2, 4, 16):
            stack = np.stack([random_skew(rng, n) for _ in range(7)])
            times = rng.uniform(-3, 3, size=7)
            out = expm_skew(stack, t=times)
            assert out.shape == (7, n, n)
            for a, t, u in zip(stack, times, out):
                np.testing.assert_allclose(u, expm_skew(a, t=t), atol=1e-14)

    def test_stack_shares_scalar_time(self, rng):
        stack = np.stack([random_skew(rng, 3) for _ in range(4)])
        for a, u in zip(stack, expm_skew(stack, t=0.8)):
            np.testing.assert_allclose(u, expm_skew(a, t=0.8), atol=1e-14)

    # Sizes 1 and 2 take the closed form instead of ``eigh``.
    @staticmethod
    def assert_exact(stack, times, out, tol=1e-13):
        """``out`` against scipy's expm matrix by matrix, and unitary."""
        scipy_linalg = pytest.importorskip("scipy.linalg")
        stack, times = np.broadcast_arrays(
            stack, np.asarray(times)[..., None, None])
        n = stack.shape[-1]
        assert out.shape == stack.shape
        for a, t, u in zip(stack.reshape(-1, n, n),
                           times.reshape(-1, n, n)[:, 0, 0],
                           out.reshape(-1, n, n)):
            np.testing.assert_allclose(u, scipy_linalg.expm(t * a),
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_matches_scipy(self, rng, n):
        stack = np.stack([random_skew(rng, n) for _ in range(20)])
        times = rng.uniform(-3, 3, size=20)
        self.assert_exact(stack, times, expm_skew(stack, t=times))

    def test_closed_form_scalar_block(self):
        # r = 0: only the trace part is left, sinc(0) = 1.
        a = 0.7j * np.eye(2)
        u = expm_skew(a, t=2.5)
        self.assert_exact(a, 2.5, u)
        np.testing.assert_allclose(u, np.exp(1.75j) * np.eye(2),
                                   rtol=0, atol=1e-15)

    def test_closed_form_tiny_traceless_part(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        k = random_skew(rng, 2)
        k -= np.trace(k) / 2 * np.eye(2)
        a = 0.3j * np.eye(2) + 1e-9 * k / np.linalg.norm(k)
        u = expm_skew(a, t=4.0)
        self.assert_exact(a, 4.0, u)
        # The off-diagonal entries, of order 1e-9, keep their relative
        # accuracy.
        want = scipy_linalg.expm(4.0 * a)
        np.testing.assert_allclose(u[[0, 1], [1, 0]], want[[0, 1], [1, 0]],
                                   rtol=1e-12)

    @pytest.mark.parametrize("tr", [1.0, 100.0, 1e3, -1e3, -250.0])
    def test_closed_form_large_angles(self, rng, tr):
        # Traceless part scaled to r = 1, so t * r = tr.  Rounding t * r
        # alone moves the result by about 1 ulp of |t * r|, and scipy's expm
        # itself misses a 40-digit reference by 1.3e-13 at |t * r| = 1e3, so
        # the bound grows with |t * r| past 100.
        for _ in range(5):
            k = random_skew(rng, 2)
            k -= np.trace(k) / 2 * np.eye(2)
            a = 0.4j * np.eye(2) + np.sqrt(2) * k / np.linalg.norm(k)
            self.assert_exact(a, tr, expm_skew(a, t=tr),
                              tol=1e-13 * max(1.0, abs(tr) / 100))

    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_form_broadcasts_times_per_chunk(self, rng, n):
        # The (chunk, count, n, n) stacks of ``propagate``, one time per
        # chunk row shared by the row's blocks.
        stack = np.stack([[random_skew(rng, n) for _ in range(3)]
                          for _ in range(5)])
        times = rng.uniform(-2, 2, size=(5, 1))
        self.assert_exact(stack, times, expm_skew(stack, t=times))


class TestRealKernel:
    """``linalg._cos_sin``: exp(-i x) = cos(x) - i sin(x) for real
    symmetric x, by a scaled series in real matrix products up to the
    angle ||x||_inf = ``_SERIES_ANGLE``, one real ``eigh`` beyond it.
    ``propagate`` takes it for runs of blocks of size 3 or more whose real
    part is exactly zero; any other run keeps the complex ``eigh``."""

    @staticmethod
    def expm_real(h, t):
        """exp(-i t h) from the real kernel, ``t`` broadcast against the
        stack shape of ``h``."""
        x = np.asarray(t)[..., None, None] * h
        z = x.shape[-1]
        out = np.empty(x.shape[:-2] + (2 * z, 2 * z))
        linalg._cos_sin(x, out, np.empty(7 * x.size))
        c, s = out[..., :z, :z], out[..., :z, z:]
        # The real form [[c, s], [-s, c]] of exp(-i x) = c - i s.
        assert np.array_equal(out[..., z:, z:], c)
        assert np.array_equal(out[..., z:, :z], -s)
        return c - 1j * s

    @staticmethod
    def real_symmetric(rng, n, repeated):
        """A real symmetric matrix of norm about 1, with eigenvalues in
        two repeated clusters when ``repeated``."""
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = (np.where(np.arange(n) < n // 2, 0.8, -0.5) if repeated
             else rng.uniform(-1, 1, n))
        return (q * w) @ q.T

    @pytest.mark.parametrize("repeated", [False, True])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_scipy(self, rng, n, repeated):
        # (chunk, count, n, n) stacks with one time per chunk row.  The
        # phase of an eigenvalue rounded to 1 ulp moves by |t| ulp, and
        # scipy's expm itself loses digits as |t| grows, so the bound
        # grows with |t| past 100.
        for scale in (3.0, 1e3):
            stack = np.stack([[self.real_symmetric(rng, n, repeated)
                               for _ in range(3)] for _ in range(4)])
            times = rng.uniform(-scale, scale, size=(4, 1))
            times[0] = scale
            TestExpmSkew.assert_exact(-1j * stack, times,
                                      self.expm_real(stack, times),
                                      tol=1e-13 * max(1.0, scale / 100))
        # One matrix, several times.
        TestExpmSkew.assert_exact(-1j * stack[0, 0], times[:, 0],
                                  self.expm_real(stack[0, 0], times[:, 0]),
                                  tol=1e-13 * max(1.0, scale / 100))

    @pytest.fixture
    def series_counts(self, monkeypatch):
        """How many matrices each call of the series took."""
        counts = []

        def spy(x, angle, *rest):
            counts.append(angle.size)
            return series(x, angle, *rest)

        series = linalg._cos_sin_series
        monkeypatch.setattr(linalg, "_cos_sin_series", spy)
        return counts

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_both_sides_of_the_angle_bound(self, rng, series_counts, n):
        # With ||h||_inf = 1 the angle is |t|: the first seven times take
        # the series, the last four the eigh.
        h = self.real_symmetric(rng, n, False)
        h /= np.abs(h).sum(axis=1).max()
        bound = linalg._SERIES_ANGLE
        below, above = bound * (1 - 1e-9), bound * (1 + 1e-9)
        times = np.array([0.0, 1e-3, -0.7, 3.0, -9.0, below, -below,
                          above, -above, 40.0, -100.0])
        out = self.expm_real(h, times)
        TestExpmSkew.assert_exact(-1j * h, times, out)
        assert series_counts == [7]
        np.testing.assert_array_equal(out[0], np.eye(n))

    def test_zero_matrix_is_exact_identity(self, series_counts):
        out = self.expm_real(np.zeros((2, 5, 5)), np.array([0.0, -3.0]))
        assert series_counts == [2]
        np.testing.assert_array_equal(out, np.eye(5)[None].repeat(2, 0))

    def test_stack_mixing_small_and_large_angles(self, rng, series_counts):
        # (chunk, count, n, n) with one time per chunk row, a zero matrix
        # among them; angles from 0 to about 200.
        stack = np.stack([[self.real_symmetric(rng, 6, False)
                           for _ in range(3)] for _ in range(4)])
        stack[1, 2] = 0.0
        times = np.array([[0.5], [-40.0], [-2.0], [60.0]])
        angles = np.abs(times[..., None, None]
                        * stack).sum(axis=-1).max(axis=-1)
        small = int((angles <= linalg._SERIES_ANGLE).sum())
        assert 0 < small < angles.size
        TestExpmSkew.assert_exact(-1j * stack, times,
                                  self.expm_real(stack, times),
                                  tol=1e-13 * max(1.0, angles.max() / 100))
        assert series_counts == [small]

    def test_tiny_real_part_takes_complex_path(self, rng, monkeypatch):
        # One run of ``dynamics._exponentials``: a single 5 x 5 block.
        scipy_linalg = pytest.importorskip("scipy.linalg")
        calls = []

        def spy(x, *rest):
            calls.append(x.shape)
            return kernel(x, *rest)

        kernel = dynamics._cos_sin
        monkeypatch.setattr(dynamics, "_cos_sin", spy)
        a = -1j * self.real_symmetric(rng, 5, False)
        k = rng.standard_normal((5, 5))
        k = 1e-14 * (k - k.T) / np.linalg.norm(k - k.T)
        outs = []
        for block in (a + k, a):
            slots = [(False, 5, 0, 0)]
            out, = dynamics._exponentials(
                linalg._vec(block)[None], slots, np.array([2.0]),
                np.empty(dynamics._scratch(1, slots)))
            outs.append(linalg._complex_form(out)[0])
            np.testing.assert_allclose(
                outs[-1], scipy_linalg.expm(2.0 * block), rtol=0, atol=1e-13)
            assert calls == ([] if block is not a else [(1, 1, 5, 5)])
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-13)


class TestInvariantFrame:
    """invariant_frame: a unitary W with every term block diagonal in it."""

    @staticmethod
    def frame_of(terms):
        terms = np.asarray(terms)
        frame, sizes = invariant_frame(terms)
        np.testing.assert_allclose(frame.conj().T @ frame,
                                   np.eye(len(frame)), atol=1e-13)
        assert sum(sizes) == len(frame)
        assert off_block(frame, sizes, terms) <= 1e-12
        return frame, sizes

    def test_dense_terms_are_one_block(self):
        drift, ctrl = dense_terms([7, 3, 0], 3)
        assert self.frame_of([-1j * drift, -1j * ctrl])[1] == (3,)

    def test_direct_sum_splits(self):
        # Two inequivalent sectors: su(2) on C^2 and a 2-level diagonal.
        drift = np.zeros((4, 4), dtype=complex)
        drift[:2, :2] = IX
        drift[2:, 2:] = IZ
        ctrl = np.zeros((4, 4), dtype=complex)
        ctrl[:2, :2] = IY
        _, sizes = self.frame_of([drift, ctrl])
        assert sorted(sizes) == [1, 1, 2]

    def test_repeated_irreducible_splits(self):
        # su(2) acting on the second spin only: the first spin is a
        # multiplicity, every combination of the terms has a doubly
        # repeated spectrum, and only the commutant separates the copies.
        _, sizes = self.frame_of([kron(I2, IX), kron(I2, IY)])
        assert sizes == (2, 2)

    def test_real_input_gives_orthogonal_frame(self):
        # The real twin of the case above: i times real symmetric terms,
        # copies separated by a real commutant element.
        frame, sizes = self.frame_of([kron(I2, IX), kron(I2, IZ)])
        assert sizes == (2, 2)
        assert frame.dtype == np.float64
        np.testing.assert_allclose(frame.T @ frame, np.eye(4), rtol=0,
                                   atol=1e-14)

    def test_zero_terms_give_single_indices(self):
        assert self.frame_of(np.zeros((2, 3, 3)))[1] == (1, 1, 1)

    def test_weak_coupling_merges(self):
        # A 1e-9 coupling between the two sectors is far above round-off,
        # so they form one block rather than being split apart.
        drift = np.zeros((4, 4), dtype=complex)
        drift[:2, :2] = IX
        drift[2:, 2:] = IY
        drift[0, 2] = drift[2, 0] = 1e-9j
        ctrl = np.zeros((4, 4), dtype=complex)
        ctrl[:2, :2] = IZ
        ctrl[2:, 2:] = IZ
        assert self.frame_of([drift, ctrl])[1] == (4,)
        drift[0, 2] = drift[2, 0] = 0.0
        assert self.frame_of([drift, ctrl])[1] == (2, 2)
