"""Exception taxonomy shared across the package.

Each class carries the CLI's exit code and the label of its stderr line,
``f"{label}: {message}"``, and a subclass inherits both:

    PolybootError, BootstrapError                  3  error
    DataError                                      2  data error
    ParamError, Unsupported                        4  configuration error
    DegenerateDraw, SolverError, SingularDesign,   3  solver error
    SingularWeightMatrix, SingularJacobian,
    CounterfactualError, DgpError

A path the CLI cannot read or write (an OSError) is a data error, exit 2.
"""


class PolybootError(Exception):
    """Base class for all package errors."""
    exit_code, label = 3, "error"


class DataError(PolybootError):
    """Malformed or inconsistent input data."""
    exit_code, label = 2, "data error"


class ParamError(PolybootError):
    """Invalid argument or configuration value."""
    exit_code, label = 4, "configuration error"


class Unsupported(PolybootError):
    """Operation not applicable to this data shape."""
    exit_code, label = ParamError.exit_code, ParamError.label


class _NumericalError(PolybootError):
    """A solver or numerical failure."""
    exit_code, label = 3, "solver error"


class DegenerateDraw(_NumericalError):
    """A resampling draw assigns zero weight to every observed tuple."""


class SolverError(_NumericalError):
    """An iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularDesign(_NumericalError):
    """Weighted design matrix is numerically singular."""


class SingularWeightMatrix(_NumericalError):
    """GMM moment covariance is singular beyond the ridge fallback."""


class SingularJacobian(_NumericalError):
    """Moment Jacobian is numerically singular."""


class BootstrapError(PolybootError):
    """Systematic failure across bootstrap draws."""


class CounterfactualError(_NumericalError):
    """Counterfactual function failed at the point estimate."""


class DgpError(_NumericalError):
    """Synthetic data generation failed."""


# the failures that end one resampling draw, or one coverage replication of a
# method, recorded rather than raised
DRAW_FAILURES = (DegenerateDraw, SolverError, SingularWeightMatrix, SingularDesign)
REPLICATION_FAILURES = (BootstrapError, _NumericalError)
