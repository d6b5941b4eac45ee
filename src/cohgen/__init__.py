"""Coherence-generating capacity of Hamiltonians.

Computes how fast a Hamiltonian can create coherence (relative entropy of
coherence, base 2) from the best possible input state: closed form for
qubits, gradient ascent for higher dimensions, plus the surprisal-variance
machinery behind the dimension-wide capacity bound sqrt(2 max_p f(p)) and a
self-verification suite that rederives every identity numerically.
"""
from .capacity import (
    BoundEqualityReport,
    CapacityResult,
    GammaResult,
    GridSearchResult,
    SolverConfig,
    SolverMethod,
    capacity_bound_equality,
    capacity_numeric,
    capacity_qubit,
    holder_hamiltonian,
    max_surprisal_variance,
    optimal_hamiltonian,
    optimal_state,
    simplex_grid_oracle,
)
from .coherence import (
    DerivativeReport,
    coherence_commutator,
    coherence_derivative,
    dephase,
    rel_entropy_coherence,
    surprisal_variance,
    surprisal_variance_pairform,
    von_neumann_entropy,
)
from .dynamics import (
    EntropyDerivativeReport,
    Trajectory,
    entropy_derivative_check,
    evolve,
    fd_derivative,
    trajectory,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidGamma,
    NoConvergence,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    ParseError,
    ResolutionTooLarge,
    SingularState,
    ZeroCommutator,
)
from .linalg import (
    eig_hermitian,
    hs_inner,
    hs_norm,
    unitary_exp,
    validate_density,
    validate_hermitian,
    validate_pure_state,
)
from .sampling import (
    random_density,
    random_hermitian,
    random_pure_state,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BoundEqualityReport",
    "CapacityResult",
    "CheckResult",
    "ConvergenceFailure",
    "DerivativeReport",
    "DimensionMismatch",
    "EntropyDerivativeReport",
    "GammaResult",
    "GridSearchResult",
    "InvalidGamma",
    "NoConvergence",
    "NotHermitian",
    "NotPSD",
    "NotUnitTrace",
    "ParseError",
    "ResolutionTooLarge",
    "SingularState",
    "SolverConfig",
    "SolverMethod",
    "Trajectory",
    "ZeroCommutator",
    "capacity_bound_equality",
    "capacity_numeric",
    "capacity_qubit",
    "coherence_commutator",
    "coherence_derivative",
    "dephase",
    "eig_hermitian",
    "entropy_derivative_check",
    "evolve",
    "fd_derivative",
    "holder_hamiltonian",
    "hs_inner",
    "hs_norm",
    "max_surprisal_variance",
    "optimal_hamiltonian",
    "optimal_state",
    "random_density",
    "random_hermitian",
    "random_pure_state",
    "rel_entropy_coherence",
    "run_checks",
    "simplex_grid_oracle",
    "surprisal_variance",
    "surprisal_variance_pairform",
    "trajectory",
    "unitary_exp",
    "validate_density",
    "validate_hermitian",
    "validate_pure_state",
    "von_neumann_entropy",
]
