"""GMM weight matrices Omega = S S': a moment covariance inverted with its
eigenvalues floored at RIDGE_FLOOR times the largest, kept as its factor S.
``invert_psd`` is the one rule, over a stack of covariances; the per-row
``centered_weight_matrix`` and ``acm_weight_matrix`` are its one-row case,
and ``linear_iv`` applies it to the covariances that each closed-form round
builds for a block of draws.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamError, SingularWeightMatrix

RIDGE_FLOOR = 1e-12


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


def centered_weight_matrix(moment, sample, weights, theta) -> tuple:
    """The factor of the inverse of the moment covariance centered at the
    weighted moment mean, for the weight vector ``weights`` (N,): ``(S,
    ridged)``, ridged when an eigenvalue was floored; raises its
    SingularWeightMatrix."""
    psi = moment.fn(sample.variables, np.asarray(theta, dtype=np.float64))
    centered = psi - weights @ psi
    factor, ridged, errors = invert_psd((centered.T @ (weights[:, None] * centered))[None])
    if errors:
        raise errors[0]
    return factor[0], bool(ridged[0])


def acm_weight_matrix(moment, sample, weights, theta) -> tuple:
    """The factor of the inverse of (weighted mean squared residual) times
    (weighted Z Z'): ``(S, ridged)`` as ``centered_weight_matrix``."""
    if moment.residual_instrument is None:
        raise ParamError("acm-style weight matrix needs a residual x instrument moment")
    e, z = moment.residual_instrument(sample.variables, np.asarray(theta, dtype=np.float64))
    factor, ridged, errors = invert_psd((weights @ (e * e)) * (z.T @ (weights[:, None] * z))[None])
    if errors:
        raise errors[0]
    return factor[0], bool(ridged[0])
