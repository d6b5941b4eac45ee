"""Exception types shared across the package.

Validation failures subclass ``ValueError`` so that callers who do not care
about the fine-grained reason can catch the base class.  An eigensolve
that fails raises ``ConvergenceFailure``, a ``RuntimeError``.  A capacity
solve that does not converge is not an error: it returns its best result
with ``converged`` false.
"""


class NotHermitian(ValueError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class NotUnitTrace(ValueError):
    """Trace differs from 1 beyond tolerance."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below -tolerance (not positive semidefinite)."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class InvalidGamma(ValueError):
    """Weight parameter outside the open interval (0, 1)."""


class ResolutionTooLarge(ValueError):
    """Requested simplex grid is beyond the supported size."""


class SingularState(ValueError):
    """State is rank deficient where full rank is required."""


class ParseError(ValueError):
    """Input file or string could not be parsed into the expected object."""


class ZeroCommutator(ValueError):
    """State commutes with its dephased logarithm; no ascent direction exists."""


class ConvergenceFailure(RuntimeError):
    """An eigendecomposition did not converge."""
