"""PPML as one damped Newton over a block of weight rows.

``ppml_newton`` is PPML's block kernel (``estimators.block_kernel``): it
solves a block of weight rows at once and returns their thetas, errors and
infos; the point estimate is the one-row case. Each row follows the rules
it would follow alone: the same start, stopping rule, step halvings and
failure reasons, applied to sums that round with the rows of its block.
The engine sizes its blocks by the one row budget of the weight-row
kernels, ``weights.ROW_FLOATS``.
"""

from __future__ import annotations

import numpy as np

from . import estimators  # its solver limits, read when a kernel is built
from .data_model import PolyadicSample
from .errors import DataError, SingularDesign, SolverError
from .estimators import EstimatorSpec, normal_equations, regressors


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
    (R, N))`` gives the block result ``(theta, errors, infos)`` of
    ``estimators.block_kernel``, info ``iterations``.

    A row starts at the weighted OLS of log(y + 1) on the regressors, stops
    once its moment residual's max norm is at most ``estimators.PPML_TOL``,
    and halves a Newton step up to 40 times until that norm falls; it fails
    after ``estimators.MAX_ITER`` steps. Rows leave the block as they
    converge or fail, so each follows its own rules. An evaluation is one product of
    w exp(x'theta) with [x | x_a x_b, a <= b]: sum w y x (taken with the start)
    less its first K columns is the moment, its others the Jacobian, mirrored.
    """
    y = sample.column(spec.y)
    if np.any(y < 0):
        raise DataError("ppml requires a nonnegative dependent variable")
    if not np.any(y > 0):
        raise SolverError("ppml is undefined for an all-zero dependent variable")
    x = regressors(sample, spec.x, spec.intercept)
    k = x.shape[1]
    start, finish = normal_equations(x, np.log1p(y))
    start = np.column_stack([start, x * y[:, None]])  # the start's sums, then sum w y x
    i, j = np.triu_indices(k)
    design, xt = np.column_stack([x, x[:, i] * x[:, j]]), np.ascontiguousarray(x.T)
    max_iter, tol = estimators.MAX_ITER, estimators.PPML_TOL

    def evaluate(w, wyx, theta):  # the moments and the Jacobians' upper triangles
        wmu = theta @ xt
        with np.errstate(over="ignore"):
            np.exp(wmu, out=wmu)
        wmu *= w
        sums = wmu @ design
        return wyx - sums[:, :k], sums[:, k:]

    def solve(weights):
        sums = weights @ start
        theta, singular = finish(sums[:, :-k])
        iterations = np.zeros(len(weights), int)
        errors = {
            int(r): SingularDesign("ppml design is collinear") for r in np.flatnonzero(singular)
        }
        live = np.flatnonzero(~singular)  # the rows still iterating, and their state
        w, wyx, th = weights[live], sums[live, -k:], theta[live]
        m, h = evaluate(w, wyx, th)
        failed = np.zeros(len(live), bool)
        for it in range(max_iter + 1):
            norm = _max_norm(m)
            done = norm <= tol
            theta[live[done]], iterations[live[done]] = th[done], it
            if (done | failed).any():
                keep = ~(done | failed)
                live, w, wyx, th, m, h, norm = (v[keep] for v in (live, w, wyx, th, m, h, norm))
            if it == max_iter or not live.size:
                for r, residual_norm in zip(live, np.abs(m).max(axis=1)):
                    message = f"ppml did not converge (residual {residual_norm:.3e})"
                    errors[int(r)] = SolverError(message, residual=float(residual_norm))
                break
            jac = np.empty((len(live), k, k))
            jac[:, i, j] = jac[:, j, i] = h
            step, failed = _solve_rows(jac, m)
            t, search = np.ones(len(live)), np.flatnonzero(~failed)
            for tries in range(40):
                if not search.size:
                    break
                # a full step for every row takes a view of the weights, not a copy
                rows = slice(None) if not tries and len(search) == len(live) else search
                cand = th[rows] + t[rows, None] * step[rows]
                m_new, h_new = evaluate(w[rows], wyx[rows], cand)
                better = _max_norm(m_new) < norm[search]
                ok = search[better]
                if len(ok) == len(live):
                    th, m, h = cand, m_new, h_new
                else:
                    th[ok], m[ok], h[ok] = cand[better], m_new[better], h_new[better]
                search = search[~better]
                t[search] *= 0.5
            for r in np.flatnonzero(failed):
                errors[int(live[r])] = SolverError("singular ppml Jacobian", residual=norm[r])
            for r in search:
                errors[int(live[r])] = SolverError("ppml line search stalled", residual=norm[r])
            failed[search] = True
        return theta, errors, {r: {"iterations": it} for r, it in enumerate(iterations.tolist())}

    return solve
