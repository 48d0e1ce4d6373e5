"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: data problems -> 2, solver/numerical
problems -> 3, configuration problems -> 4.
"""


class PolybootError(Exception):
    """Base class for all package errors."""


class DataError(PolybootError):
    """Malformed or inconsistent input data."""


class ParamError(PolybootError):
    """Invalid argument or configuration value."""


class DegenerateDraw(PolybootError):
    """A resampling draw assigns zero weight to every observed tuple."""


class SolverError(PolybootError):
    """An iterative solver failed to converge."""

    def __init__(self, message, residual=None, trace=None):
        super().__init__(message)
        self.residual = residual
        self.trace = trace


class SingularDesign(PolybootError):
    """Weighted design matrix is numerically singular."""


class SingularWeightMatrix(PolybootError):
    """GMM moment covariance is singular beyond the ridge fallback."""


class SingularJacobian(PolybootError):
    """Moment Jacobian is numerically singular."""


class Unsupported(PolybootError):
    """Operation not applicable to this data shape."""


class BootstrapError(PolybootError):
    """Systematic failure across bootstrap draws."""


class CounterfactualError(PolybootError):
    """Counterfactual function failed at the point estimate."""


class EvalError(PolybootError):
    """A pointwise evaluation was undefined (e.g. division by zero)."""


class DgpError(PolybootError):
    """Synthetic data generation failed."""


# the failures that end one resampling draw, recorded rather than raised
DRAW_FAILURES = (DegenerateDraw, SolverError, SingularWeightMatrix, SingularDesign)
