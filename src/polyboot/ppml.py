"""PPML as one damped Newton over a block of weight rows.

The bootstrap engine solves a block of draws at once (``ppml_newton``), and
the point estimate is the one-row case. Each row takes the decisions it
would take solved alone: the same start, stopping rule, step halvings and
failure reasons.
"""

from __future__ import annotations

import numpy as np

from .data_model import PolyadicSample
from .errors import DataError, SingularDesign, SolverError
from .estimators import EstimatorSpec, normal_equations, regressors

# float64 values a PPML block budgets per draw and observation: the Newton's
# few live (rows, N) arrays, with headroom so that a block stays cache-sized
PPML_ROW_FLOATS = 24

def _max_norm(m):
    """Each row's max |m|, or inf where the row is not finite."""
    return np.where(np.isfinite(m).all(axis=1), np.abs(m).max(axis=1), np.inf)


def _solve_rows(jac, rhs):
    """Solve jac_r step_r = rhs_r for each row: ``(steps (R, K), singular
    (R,))``. When the stacked solve raises, each row is solved alone and a row
    that raises is singular."""
    steps, singular = np.zeros(rhs.shape), np.zeros(len(jac), bool)
    try:
        steps[:] = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        for r in range(len(jac)):
            try:
                steps[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                singular[r] = True
    return steps, singular


def ppml_newton(spec: EstimatorSpec, sample: PolyadicSample):
    """PPML as one damped Newton over a block of weight rows: ``solve(weights
    (R, N))`` gives ``row(r) -> (theta, info)`` for its rows, which raises a
    failed row's error.

    A row starts at the weighted OLS of log(y + 1) on the regressors, stops
    once its moment residual's max norm is at most 1e-8, and halves a Newton
    step up to 40 times until that norm falls. Rows leave the block as they
    converge or fail, so each takes the decisions it would take alone.
    """
    y = sample.column(spec.y)
    if np.any(y < 0):
        raise DataError("ppml requires a nonnegative dependent variable")
    if not np.any(y > 0):
        raise SolverError("ppml is undefined for an all-zero dependent variable")
    x = regressors(sample, spec.x, spec.intercept)
    k = x.shape[1]
    features, finish = normal_equations(x, np.log1p(y))
    xx, xt = features[:, : k * k], np.ascontiguousarray(x.T)
    max_iter, tol = spec.settings.max_iter, 1e-8

    def residual(w, theta):
        mu = theta @ xt
        with np.errstate(over="ignore"):
            np.exp(mu, out=mu)
        e = np.subtract(y, mu)
        e *= w
        return e @ x, mu

    def solve(weights):
        theta, singular = finish(weights @ features)
        iterations = np.zeros(len(weights), int)
        errors = {
            int(r): SingularDesign("ppml design is collinear") for r in np.flatnonzero(singular)
        }
        live = np.flatnonzero(~singular)  # the rows still iterating, and their state
        w, th = weights[live], theta[live]
        m, mu = residual(w, th)
        failed = np.zeros(len(live), bool)
        for it in range(max_iter + 1):
            norm = _max_norm(m)
            done = norm <= tol
            theta[live[done]], iterations[live[done]] = th[done], it
            if (done | failed).any():
                keep = ~(done | failed)
                live, w, th, m, mu, norm = (v[keep] for v in (live, w, th, m, mu, norm))
            if it == max_iter or not live.size:
                for r, residual_norm in zip(live, np.abs(m).max(axis=1)):
                    message = f"ppml did not converge (residual {residual_norm:.3e})"
                    errors[int(r)] = SolverError(message, residual=float(residual_norm))
                break
            step, failed = _solve_rows(-((w * mu) @ xx).reshape(-1, k, k), -m)
            t, search = np.ones(len(live)), np.flatnonzero(~failed)
            for tries in range(40):
                if not search.size:
                    break
                whole = not tries and len(search) == len(live)  # a full step for every row
                cand = th + step if whole else th[search] + t[search, None] * step[search]
                m_new, mu_new = residual(w if whole else w[search], cand)
                better = _max_norm(m_new) < norm[search]
                ok = search[better]
                if len(ok) == len(live):
                    th, m, mu = cand, m_new, mu_new
                else:
                    th[ok], m[ok], mu[ok] = cand[better], m_new[better], mu_new[better]
                search = search[~better]
                t[search] *= 0.5
            for r in np.flatnonzero(failed):
                errors[int(live[r])] = SolverError("singular ppml Jacobian", residual=norm[r])
            for r in search:
                errors[int(live[r])] = SolverError("ppml line search stalled", residual=norm[r])
            failed[search] = True

        def row(r):
            if r in errors:
                raise errors[r]
            return theta[r], {"iterations": int(iterations[r])}

        return row

    return solve
