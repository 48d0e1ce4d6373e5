"""Closed-form frequentist variance estimators for dyadic Z-estimators.

The dyadic-robust sandwich accounts for dependence between any two dyads
sharing a unit; the naive dyad-robust baseline treats all dyads as
independent and is included for comparison. A delta-method interval
propagates either variance through a counterfactual gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bootstrap import check_level
from .data_model import PolyadicSample
from .errors import ParamError, SingularJacobian, Unsupported
from .estimators import COND_LIMIT, moment_mean_jacobian
from .weights import uniform_weights


@dataclass(frozen=True)
class VarianceEstimate:
    """K x K covariance of theta-hat plus its component matrices."""

    covariance: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray
    method: str
    clamped: bool = False

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "covariance": self.covariance.tolist(),
            "se": self.se.tolist(),
            "components": {
                "sigma1": self.sigma1.tolist(),
                "sigma2": self.sigma2.tolist(),
                "sigma3": self.sigma3.tolist(),
            },
            "clamped": self.clamped,
        }


def _mean_jacobian(moment, sample, theta):
    jac = moment_mean_jacobian(
        moment, sample.variables, uniform_weights(sample).weights, theta
    )
    if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) >= COND_LIMIT:
        raise SingularJacobian("moment Jacobian is numerically singular")
    return jac


def graham_variance(moment, sample: PolyadicSample, theta_hat) -> VarianceEstimate:
    """Dyadic-robust sandwich for a just-identified Z-estimator.

    Requires a dyadic sample observing every ordered pair. Sigma2 (the
    shared-unit cross term) is accumulated through per-unit sums of the
    direction-symmetrized moment contributions, which reproduces the
    symmetrized triple loop exactly in O(n^2 K^2).
    """
    if sample.order != 2:
        raise Unsupported("dyadic-robust variance requires dyadic data (P = 2)")
    if sample.cluster_ids is not None:
        raise Unsupported("dyadic-robust variance does not handle cluster dimensions")
    if not sample.has_full_index_set():
        raise Unsupported("dyadic-robust variance requires the full index set (no missing dyads)")
    if not moment.just_identified:
        raise ParamError("dyadic-robust variance requires a just-identified moment")
    theta = np.asarray(theta_hat, dtype=np.float64)
    n = sample.n_units
    k = moment.n_params
    if n < 3:
        raise Unsupported("need at least 3 units for the shared-unit cross term")

    sigma1 = _mean_jacobian(moment, sample, theta)

    phi = moment.fn(sample.variables, theta)  # (n(n-1), K)
    mat = np.zeros((n, n, k))
    mat[sample.index[:, 0], sample.index[:, 1]] = phi
    phi_tilde = 0.5 * (mat + mat.transpose(1, 0, 2))  # symmetric, zero diagonal

    s = phi_tilde.sum(axis=1)  # (n, K): S_u = sum over partners
    q = np.einsum("uak,ual->ukl", phi_tilde, phi_tilde)  # per-unit own products

    n_pairs = n * (n - 1) // 2
    n_triples = n * (n - 1) * (n - 2) // 6
    sigma3 = 0.5 * q.sum(axis=0) / n_pairs
    sigma2 = (np.einsum("uk,ul->kl", s, s) - q.sum(axis=0)) / (6.0 * n_triples)

    inv = np.linalg.inv(sigma1)
    middle = 4.0 * sigma2 + (2.0 / (n - 1)) * (sigma3 - 2.0 * sigma2)
    cov = inv @ middle @ inv.T / n
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov).copy()
    clamped = bool(np.any(diag < 0))
    if clamped:
        np.fill_diagonal(cov, np.clip(diag, 0.0, None))
    return VarianceEstimate(cov, sigma1, sigma2, sigma3, "graham", clamped)


def naive_dyad_robust(moment, sample: PolyadicSample, theta_hat) -> VarianceEstimate:
    """Sandwich treating all observed dyads as independent."""
    if not moment.just_identified:
        raise ParamError("naive variance requires a just-identified moment")
    theta = np.asarray(theta_hat, dtype=np.float64)
    n_obs = sample.n_obs
    sigma1 = _mean_jacobian(moment, sample, theta)
    phi = moment.fn(sample.variables, theta)
    meat = phi.T @ phi / n_obs
    inv = np.linalg.inv(sigma1)
    cov = inv @ meat @ inv.T / n_obs
    cov = 0.5 * (cov + cov.T)
    return VarianceEstimate(cov, sigma1, np.zeros_like(meat), meat, "naive-dyad")


def delta_method_interval(gamma_hat, gradient, sigma_hat, level) -> tuple:
    """gamma_hat +/- z * sqrt(G' Cov(theta_hat) G).

    ``sigma_hat`` may be a VarianceEstimate or a covariance matrix already on
    the estimator scale (no extra 1/n factor is applied here).
    """
    check_level(level)
    cov = sigma_hat.covariance if isinstance(sigma_hat, VarianceEstimate) else np.asarray(sigma_hat)
    g = np.atleast_1d(np.asarray(gradient, dtype=np.float64))
    if not np.all(np.isfinite(g)):
        raise ParamError("gradient must be finite")
    var = float(g @ cov @ g)
    half = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0) * np.sqrt(max(var, 0.0))
    return float(gamma_hat - half), float(gamma_hat + half)
