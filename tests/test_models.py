import numpy as np
import pytest

from dynlie import (
    ControlSystem,
    control_system,
    generate_closure,
    generator,
    hamiltonian,
    pauli,
    two_spin_system,
)
from dynlie.models import MODELS


class TestPauli:
    def test_entries(self):
        np.testing.assert_allclose(
            pauli("x"), [[0, 0.5], [0.5, 0]], atol=0)
        np.testing.assert_allclose(
            pauli("y"), [[0, 0.5j], [-0.5j, 0]], atol=0)
        np.testing.assert_allclose(
            pauli("z"), [[0.5, 0], [0, -0.5]], atol=0)

    def test_hermitian(self):
        for axis in "xyz":
            s = pauli(axis)
            np.testing.assert_allclose(s, s.conj().T, atol=0)

    def test_commutation_relations(self):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            lhs = 1j * a @ (1j * b) - 1j * b @ (1j * a)
            np.testing.assert_allclose(lhs, 1j * c, atol=1e-15)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestKron:
    def test_shape(self):
        assert np.kron(pauli("x"), np.eye(2)).shape == (4, 4)

    def test_mixed_product(self, rng):
        a, b = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        c, d = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d), atol=1e-12)

    def test_identity_factor(self):
        np.testing.assert_allclose(
            np.kron(np.eye(2), np.eye(2)), np.eye(4), atol=0)


class TestControlSystem:
    def test_two_spin_fields(self):
        sys = two_spin_system()
        assert sys.dim == 4
        assert sys.n_controls == 2
        assert sys.labels == ("u1", "u2")
        np.testing.assert_allclose(sys.drift, np.kron(pauli("x"), np.eye(2)),
                                   atol=0)
        np.testing.assert_allclose(sys.controls[0],
                                   np.kron(pauli("z"), pauli("z")), atol=0)
        np.testing.assert_allclose(sys.controls[1],
                                   np.kron(pauli("y"), pauli("y")), atol=0)

    def test_terms_hermitian(self):
        sys = two_spin_system()
        for h in (sys.drift,) + sys.controls:
            np.testing.assert_allclose(h, h.conj().T, atol=0)

    def test_registry(self):
        assert "two-spin" in MODELS
        assert MODELS["two-spin"]().dim == 4

    def test_rejects_non_hermitian_drift(self):
        with pytest.raises(ValueError):
            control_system(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("drift", [np.diag([1e200, 0.0]),
                                       1e200 * pauli("y")],
                             ids=["real", "imaginary"])
    def test_rejects_squared_norm_overflow(self, drift):
        # Finite entries whose squared norm is inf used to give a closure
        # of dimension 0: no generator's norm counted.
        with pytest.raises(ValueError, match="drift is too large"):
            control_system(drift, [pauli("x")])
        with pytest.raises(ValueError, match="control 0 is too large"):
            control_system(pauli("x"), [drift])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            control_system(np.eye(2), [np.eye(3)])

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2", True, None])
    def test_rejects_non_integer_dim(self, dim):
        # int() used to truncate 2.7 to a 2-level system and parse "2".
        with pytest.raises(ValueError, match="dim must be an integer"):
            ControlSystem(dim=dim, drift=pauli("z"), controls=(), labels=())
        assert ControlSystem(dim=np.int64(2), drift=pauli("z"), controls=(),
                             labels=()).dim == 2

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            control_system(np.eye(2), [pauli("x")], labels=("a", "b"))

    def test_default_labels(self):
        sys = control_system(np.eye(2), [pauli("x"), pauli("y")])
        assert sys.labels == ("u1", "u2")

    def test_drift_only(self):
        sys = control_system(pauli("z"))
        assert sys.n_controls == 0
        assert sys.labels == ()

    def test_immutable(self):
        sys = two_spin_system()
        with pytest.raises(ValueError):
            sys.drift[0, 0] = 5.0


class TestHamiltonianAndGenerator:
    def test_assembly(self):
        sys = two_spin_system()
        u = (0.3, -1.2)
        expected = (sys.drift + 0.3 * sys.controls[0]
                    - 1.2 * sys.controls[1])
        np.testing.assert_allclose(hamiltonian(sys, u), expected, atol=0)

    def test_generator_is_skew(self):
        sys = two_spin_system()
        g = generator(sys, (0.5, 0.5))
        np.testing.assert_allclose(g, -g.conj().T, atol=1e-15)
        np.testing.assert_allclose(g, -1j * hamiltonian(sys, (0.5, 0.5)),
                                   atol=0)

    def test_wrong_arity(self):
        sys = two_spin_system()
        with pytest.raises(ValueError):
            hamiltonian(sys, (1.0,))

    def test_closure_integration(self):
        sys = two_spin_system()
        gens = [1j * sys.drift] + [1j * c for c in sys.controls]
        assert generate_closure(gens)[0].dim == 6
