"""Control-system containers and the worked two-spin example.

Spin operators follow the spin-1/2 convention: each Pauli is scaled by
1/2, and the y operator carries the sign that makes [i s_x, i s_y] =
i s_z come out cyclically positive, i.e. s_y = [[0, i/2], [-i/2, 0]].
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_part

_PAULI = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def pauli(axis):
    """Spin-1/2 operator s_axis for axis in 'xyz' (2x2, factor 1/2)."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


@dataclass(frozen=True)
class ControlSystem:
    """Bilinear control system i dX/dt = (H0 + sum_k u_k Hk) X.

    dim must be an integer, not a bool; drift and controls are validated
    as Hermitian (tolerance 1e-10 relative) and symmetrized on
    construction; stored arrays are read-only.
    """

    dim: int
    drift: np.ndarray
    controls: tuple
    labels: tuple

    def __post_init__(self):
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        n = int(dim)
        drift = hermitian_part(self.drift, what="drift")
        if drift.shape != (n, n):
            raise ValueError(f"drift shape {drift.shape} does not match dim {n}")
        controls = []
        for k, c in enumerate(self.controls):
            h = hermitian_part(c, what=f"control {k}")
            if h.shape != (n, n):
                raise ValueError(
                    f"control {k} shape {h.shape} does not match dim {n}")
            h.flags.writeable = False
            controls.append(h)
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != len(controls):
            raise ValueError(
                f"{len(labels)} labels for {len(controls)} controls")
        drift.flags.writeable = False
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", tuple(controls))
        object.__setattr__(self, "labels", labels)

    @property
    def n_controls(self):
        return len(self.controls)


def control_system(drift, controls=(), labels=None):
    """Convenience constructor; labels default to u1, u2, ..."""
    drift = np.asarray(drift)
    if labels is None:
        labels = tuple(f"u{k + 1}" for k in range(len(controls)))
    return ControlSystem(dim=drift.shape[0], drift=drift,
                         controls=tuple(controls), labels=tuple(labels))


def hamiltonian(system, u):
    """H(u) = drift + sum_k u_k * control_k."""
    u = np.asarray(u, dtype=float)
    if u.shape != (system.n_controls,):
        raise ValueError(
            f"expected {system.n_controls} control values, got shape {u.shape}")
    h = system.drift.copy()
    for uk, hk in zip(u, system.controls):
        h = h + uk * hk
    return h


def generator(system, u):
    """Evolution generator -i H(u), a skew-Hermitian matrix."""
    return -1j * hamiltonian(system, u)


def two_spin_system():
    """Two coupled spins: H = u1 sz(x)sz + u2 sy(x)sy + sx(x)1.

    The control terms are the zz and yy exchange couplings; the drift is
    a local x field on the first spin.  Its dynamical Lie algebra is
    6-dimensional and splits into two commuting su(2) copies.
    """
    eye = np.eye(2, dtype=complex)
    drift = np.kron(pauli("x"), eye)
    controls = (np.kron(pauli("z"), pauli("z")),
                np.kron(pauli("y"), pauli("y")))
    return ControlSystem(dim=4, drift=drift, controls=controls,
                         labels=("u1", "u2"))

MODELS = {"two-spin": two_spin_system}
