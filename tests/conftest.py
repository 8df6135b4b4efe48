import numpy as np
import pytest

from dynlie import LieBasis, extend_basis, pauli

SX = pauli("x")
SY = pauli("y")
SZ = pauli("z")
I2 = np.eye(2, dtype=complex)


def two_spin_elements():
    """The six spanning elements of the coupled two-spin algebra, in the
    order used throughout the tests: the two local drives first, then the
    four coupling directions."""
    return [
        1j * np.kron(SX, I2),
        1j * np.kron(I2, SX),
        1j * np.kron(SZ, SZ),
        1j * np.kron(SY, SY),
        1j * np.kron(SZ, SY),
        1j * np.kron(SY, SZ),
    ]


def ordered_two_spin_basis():
    basis = LieBasis(4)
    for el in two_spin_elements():
        basis = extend_basis(basis, [el])
    assert basis.dim == 6
    return basis


def su2_triple(scale=1.0):
    return [scale * 1j * SX, scale * 1j * SY, scale * 1j * SZ]


def su2_basis():
    basis = LieBasis(2)
    for el in su2_triple():
        basis = extend_basis(basis, [el])
    return basis


# The two commuting halves of the two-spin algebra, written out in the
# kron products they resolve to.
def ab_triples():
    a = [
        0.5j * (np.kron(SX, I2) + np.kron(I2, SX)),
        0.5j * (np.kron(SZ, SY) + np.kron(SY, SZ)),
        0.5j * (np.kron(SZ, SZ) - np.kron(SY, SY)),
    ]
    b = [
        0.5j * (-np.kron(SX, I2) + np.kron(I2, SX)),
        0.5j * (np.kron(SZ, SY) - np.kron(SY, SZ)),
        0.5j * (np.kron(SZ, SZ) + np.kron(SY, SY)),
    ]
    return a, b


# Adjoint matrices of the two local drives in the ordered six-element
# basis above, frozen as literals.  Column j holds the coordinates of
# the bracket with basis element j.
AD_DRIVE_1 = np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0, 0],
], dtype=float)

AD_DRIVE_2 = np.array([
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
], dtype=float)


@pytest.fixture
def two_spin_els():
    return two_spin_elements()


@pytest.fixture
def two_spin_basis():
    return ordered_two_spin_basis()


@pytest.fixture
def su2():
    return su2_basis()


@pytest.fixture
def ab():
    return ab_triples()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
