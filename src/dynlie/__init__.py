"""Dynamical Lie algebras of bilinear quantum control systems.

Compute the Lie closure of a system's Hamiltonian terms, split the
resulting subalgebra of u(n) into its radical and simple ideals (via
Levi, Cartan, and primary decompositions), and propagate the system as
a commuting product of decoupled factors.
"""

from .adjoint import (adjoint, is_semisimple, killing_gram,
                      killing_orthonormalize, structure_constants)
from .cartan import CartanResult, cartan_subalgebra, centralizer
from .closure import (
    CONTROLLABLE_SU,
    CONTROLLABLE_U,
    UNCONTROLLABLE,
    ClosureResult,
    generate_closure,
    is_controllable,
)
from .dynamics import (
    ComponentDecomposition,
    ControlSchedule,
    PropagationResult,
    SystemAnalysis,
    analyze_system,
    propagate,
)
from .errors import (
    DecompositionError,
    LieAlgebraError,
    NotClosedError,
    NotInSpanError,
    NotSemisimpleError,
    SplittingSearchError,
    StageFailure,
)
from .ideals import IdealSet, recognize_su2, simple_decompose
from .levi import LeviResult, levi_decompose
from .linalg import (
    LieBasis,
    TOL_EIG,
    TOL_HERM,
    TOL_KILLING,
    TOL_RANK,
    empty_basis,
    extend_basis,
    nullspace,
    skew_hermitian,
)
from .models import (
    ControlSystem,
    control_system,
    generator,
    hamiltonian,
    kron,
    pauli,
    two_spin_system,
)
from .primary import (
    PrimaryResult,
    SplittingElement,
    primary_decompose,
)

__version__ = "0.1.0"
