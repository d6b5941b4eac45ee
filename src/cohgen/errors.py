"""Exception types shared across the package.

Validation failures subclass ``ValueError`` so that callers who do not care
about the fine-grained reason can catch the base class.  The subclasses name
what is wrong with an operand (a matrix, a state, a shape or a dimension) or
with an input file; a parameter out of its range, such as a weight γ or a
grid resolution, raises ``ValueError`` itself, as do NaN or Inf entries.  An
eigensolve that fails raises ``ConvergenceFailure``, a ``RuntimeError``.  A
capacity solve that does not converge is not an error: it returns its best
result with ``converged`` false.
"""


class NotHermitian(ValueError):
    """Matrix is not equal to its conjugate transpose within tolerance."""


class NotUnitTrace(ValueError):
    """Trace differs from 1 beyond tolerance."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below -tolerance (not positive semidefinite)."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularState(ValueError):
    """State is rank deficient where full rank is required."""


class ParseError(ValueError):
    """Input file or string could not be parsed into the expected object."""


class ZeroCommutator(ValueError):
    """State commutes with its dephased logarithm; no ascent direction exists."""


class ConvergenceFailure(RuntimeError):
    """An eigendecomposition did not converge."""
