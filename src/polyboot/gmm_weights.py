"""GMM weight matrices: a moment covariance inverted with its eigenvalues
floored at RIDGE_FLOOR times the largest. ``invert_psd`` is the one rule,
over a stack of covariances; the per-row ``centered_weight_matrix`` and
``acm_weight_matrix`` are its one-row case, and ``linear_iv`` applies it to
the covariances that each closed-form round builds for a block of draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamError, SingularWeightMatrix

RIDGE_FLOOR = 1e-12


@dataclass(frozen=True)
class GmmWeightMatrix:
    """L x L symmetric PSD weight matrix with provenance."""

    matrix: np.ndarray
    style: str
    ridged: bool = False


def invert_psd(cov) -> tuple:
    """Weight matrices S S' from a stack of moment covariances (R, L, L), each
    symmetrized, its eigenvalues floored at RIDGE_FLOOR times the largest:
    ``(factors S = V diag(max(eigval, floor))^(-1/2), ridged (R,), errors)``,
    where ``errors`` maps a row whose covariance is not finite or has no
    positive eigenvalue to its SingularWeightMatrix (its factor is meaningless)."""
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    finite = np.isfinite(cov).all(axis=(1, 2))
    eigval, eigvec = np.linalg.eigh(np.where(finite[:, None, None], cov, 0.0))
    errors = {
        int(r): SingularWeightMatrix(
            "moment covariance has no positive eigenvalue" if finite[r]
            else "non-finite moment covariance"
        )
        for r in np.flatnonzero(~finite | ~(eigval[:, -1] > 0))
    }
    floor = RIDGE_FLOOR * eigval[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # only rows in errors divide by 0
        factor = eigvec / np.sqrt(np.maximum(eigval, floor))[:, None, :]
    return factor, (eigval < floor).any(axis=1), errors


def _weight_matrix(cov, style) -> GmmWeightMatrix:
    """``invert_psd`` of one covariance, raising its SingularWeightMatrix."""
    factor, ridged, errors = invert_psd(np.atleast_2d(cov)[None])
    if errors:
        raise errors[0]
    return GmmWeightMatrix(factor[0] @ factor[0].T, style, bool(ridged[0]))  # exactly symmetric


def centered_weight_matrix(moment, sample, weights, theta) -> GmmWeightMatrix:
    """Inverse of the moment covariance centered at the weighted moment mean."""
    theta = np.asarray(theta, dtype=np.float64)
    psi = moment.fn(sample.variables, theta)
    psibar = weights.weights @ psi
    centered = psi - psibar
    cov = centered.T @ (weights.weights[:, None] * centered)
    return _weight_matrix(cov, "centered")


def acm_weight_matrix(moment, sample, weights, theta) -> GmmWeightMatrix:
    """Inverse of (weighted mean squared residual) times (weighted Z Z')."""
    if moment.residual_instrument is None:
        raise ParamError("acm-style weight matrix needs a residual x instrument moment")
    theta = np.asarray(theta, dtype=np.float64)
    e, z = moment.residual_instrument(sample.variables, theta)
    s2 = float(weights.weights @ (e * e))
    zz = z.T @ (weights.weights[:, None] * z)
    return _weight_matrix(s2 * np.atleast_2d(zz), "acm")
