"""Overidentified linear-IV GMM as one solver over a block of draws.

For psi = (y - r'theta) z the residual is e = u'a with u = (y - r'c, r),
a = (1, c - theta) and c a fixed center, so the mean moment (sum w z u') a,
the centered covariance sum w e^2 z z' - psibar psibar' and the acm
covariance (sum w e^2) sum w z z' are polynomials in theta. The weighted
sums of the features u z and, as the mode needs them, the pair products
of u z (centered rounds) or of z and of u (acm rounds) are their
coefficients, and every step after them is K x K or L x L algebra over all
the draws of a block. Each row takes the decisions ``estimators.gmm``
would take on it alone.
"""

from __future__ import annotations

import numpy as np

from .data_model import PolyadicSample
from .errors import SolverError
from .estimators import EstimatorSpec, build_moment, regressors
from .gmm_weights import invert_psd
from .ppml import solve_rows

HALVINGS = 0.5 ** np.arange(40)  # the step lengths a line search tries, in order

# A sample whose features would take more bytes than this keeps the per-row
# path: the features grow as (K L)^2 per observation in centered rounds,
# where per-row GMM holds K + L + 1 values per observation.
FEATURE_BYTES = 4 * 2**20

# Values a draw holds per observation and feature in the engine's blocks:
# its weights, their temporaries and its sums.
IV_ROW_FLOATS = 8


def _outer(a, b):
    """Row-wise outer products, flattened: (N, I), (N, J) -> (N, I * J)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _pairs(a):
    """The products a_i a_j, i <= j, of each row: (N, D) -> (N, D (D + 1) / 2)."""
    i, j = np.triu_indices(a.shape[1])
    return a[:, i] * a[:, j]


def _symmetric(sums, d):
    """Sums of ``_pairs`` products (R, D (D + 1) / 2) as matrices (R, D, D)."""
    i, j = np.triu_indices(d)
    full = np.empty((len(sums), d, d))
    full[:, i, j] = sums
    full[:, j, i] = sums
    return full


def _gauss_newton(b, a, omega, theta, settings, center):
    """Gauss-Newton on q = m' omega m, m = b - a (theta - center), for each
    row of b (R, L), a (R, L, K) and omega (R, L, L) from its start theta
    (R, K): ``(theta, q, converged)``, as ``estimators._gauss_newton``."""
    at = np.swapaxes(a, 1, 2)
    hess = at @ omega @ a  # the moment is linear: J = -a at every theta

    def gradient(rows):
        return -(at[rows] @ (omega[rows] @ m[rows, :, None]))[:, :, 0]

    theta, live = theta.copy(), np.arange(len(b))
    m = b - np.einsum("rlk,rk->rl", a, theta - center)
    q = ((m[:, None] @ omega)[:, 0] * m).sum(axis=1)  # (m' omega) m, as per row
    converged = np.zeros(len(b), bool)
    for _ in range(settings.max_iter):
        grad = gradient(live)
        stop = np.abs(grad).max(axis=1) <= settings.foc_tol
        converged[live[stop]] = True
        live, grad = live[~stop], grad[~stop]
        if not live.size:
            break
        step, singular = solve_rows(hess[live], -grad)
        step[singular] = -grad[singular]
        search = np.arange(len(live))
        for lengths in (HALVINGS[:1], HALVINGS[1:]):  # the full step, then all its halvings
            rows = live[search]
            with np.errstate(over="ignore", invalid="ignore"):
                cand = theta[rows, None] + lengths[:, None] * step[search, None]
                m_new = b[rows, None] - np.einsum("rlk,rtk->rtl", a[rows], cand - center)
                q_new = ((m_new @ omega[rows]) * m_new).sum(axis=2)
            q_new[~np.isfinite(m_new).all(axis=2)] = np.inf
            better = q_new < q[rows, None]
            moved = better.any(axis=1)
            first, picked = better.argmax(axis=1)[moved], np.flatnonzero(moved)
            rows, search = rows[moved], search[~moved]
            theta[rows], m[rows], q[rows] = (v[picked, first] for v in (cand, m_new, q_new))
            if not search.size:
                break
        live = np.delete(live, search)  # no step length lowered q: these rows stall
    else:
        converged[live] = np.abs(gradient(live)).max(axis=1) <= settings.foc_tol
    return theta, q, converged


def _minimize(b, a, omega, init, settings, center):
    """Gauss-Newton from init (R, K), when given, and from zeros, which wins
    where it converged to a strictly lower q than a converged init, as in
    ``estimators._minimize_gmm``: ``(theta, q, converged)``."""
    zeros = np.zeros((len(b), a.shape[2]))
    if init is None:
        return _gauss_newton(b, a, omega, zeros, settings, center)
    both = (np.concatenate([v, v]) for v in (b, a, omega))
    solved = _gauss_newton(*both, np.concatenate([init, zeros]), settings, center)
    (theta, theta0), (q, q0), (ok, ok0) = (np.split(v, 2) for v in solved)
    take = ok0 & (~ok | (q0 < q))
    return np.where(take[:, None], theta0, theta), np.where(take, q0, q), ok | ok0


def linear_iv_gmm(spec: EstimatorSpec, sample: PolyadicSample):
    """Linear-IV GMM as a function of weighted feature sums: ``(features
    (N, F), finish)``, where ``finish(sums (R, F))`` for the sums of R weight
    rows gives ``row(r) -> (theta, info)``, which raises a failed row's
    error. None unless ``spec`` is the builtin linear-IV moment with more
    instruments than regressors and its features are finite and within
    FEATURE_BYTES."""
    builtin = spec.kind == "gmm" and spec.moment is None and spec.builtin_moment == "linear-iv"
    if not builtin or len(spec.instruments) <= len(spec.x):
        return None  # user moments, other builtins and just-identified systems run per row
    settings, mode = spec.settings, spec.gmm_mode
    acm = mode == "iterated" and spec.weight_style == "acm"
    p, l = len(spec.x) + int(spec.intercept) + 1, len(spec.instruments) + int(spec.intercept)
    widths = [p * l]  # u z, then what the re-weighting rounds need
    if mode != "one-step":
        widths += [l * (l + 1) // 2, p * (p + 1) // 2] if acm else [p * l * (p * l + 1) // 2]
    if 8 * sample.n_obs * sum(widths) > FEATURE_BYTES:
        return None
    build_moment(spec, sample)  # the per-row path's column checks
    y, r = sample.column(spec.y), regressors(sample, spec.x, spec.intercept)
    z = regressors(sample, spec.instruments, spec.intercept)
    # centered at the unweighted one-step estimate, e^2 = (u'a)^2 escapes the
    # cancellation in y^2 - 2 y r'theta + (r'theta)^2
    center = np.linalg.lstsq(z.T @ r, z.T @ y, rcond=None)[0]
    u = np.column_stack([y - r @ center, r])
    uz = _outer(u, z)
    extra = [] if mode == "one-step" else [_pairs(z), _pairs(u)] if acm else [_pairs(uz)]
    features = np.hstack([uz, *extra])
    if not np.isfinite(features).all():
        return None  # a product overflows where the per-row moments need not
    rounds = {"one-step": 0, "two-step": 1, "iterated": settings.iter_max}[mode]

    def finish(sums):
        n = len(sums)
        first, *rest = np.split(sums, np.cumsum(widths)[:-1], axis=1)
        first = first.reshape(n, p, l)
        if acm:
            zz, uu = _symmetric(rest[0], l), _symmetric(rest[1], p)
        elif rest:
            quartic = _symmetric(rest[0], p * l).reshape(n, p, l, p, l)
        b, a = first[:, 0], np.swapaxes(first[:, 1:], 1, 2)
        theta, infos = np.full((n, p - 1), np.nan), [{} for _ in range(n)]
        errors, traces, live = {}, [[] for _ in range(n)], np.arange(n)

        def drop(ok, error, *arrays):
            """Rows of live where not ok leave, failing with error(position)."""
            nonlocal live
            if error is not None:
                errors.update((int(live[j]), error(j)) for j in np.flatnonzero(~ok))
            live = live[ok]
            return [v[ok] for v in arrays]

        def not_minimized(j):
            return SolverError("GMM minimization did not reach the first-order conditions")

        # a row with non-finite sums (a degenerate draw's NaN row) never iterates
        drop(np.isfinite(first).all(axis=(1, 2)), not_minimized)
        init = settings.init if settings.init is None else np.tile(settings.init, (len(live), 1))
        eye = np.broadcast_to(np.eye(l), (len(live), l, l))
        th, _, ok = _minimize(b[live], a[live], eye, init, settings, center)
        (th,) = drop(ok, not_minimized, th)
        theta[live] = th
        for it in range(1, rounds + 1):
            if not live.size:
                break
            coef = np.hstack([np.ones((len(live), 1)), center - th])  # e = u'coef
            if acm:
                s2 = np.einsum("rp,rpq,rq->r", coef, uu[live], coef)
                cov = s2[:, None, None] * zz[live]
            else:
                psibar = b[live] - np.einsum("rlk,rk->rl", a[live], th - center)
                e2zz = np.einsum("rp,rpiqj,rq->rij", coef, quartic[live], coef)
                cov = e2zz - psibar[:, :, None] * psibar[:, None, :]
            omega, ridged, singular = invert_psd(cov)
            ok = ~np.isin(np.arange(len(live)), list(singular))
            th, omega, ridged = drop(ok, singular.get, th, omega, ridged)
            new, q, ok = _minimize(b[live], a[live], omega, th, settings, center)
            th, new, q, ridged = drop(ok, not_minimized, th, new, q, ridged)
            theta[live] = new
            if mode == "two-step":
                for i, flag in zip(live, ridged):
                    infos[i] = {"weight_matrix_ridged": bool(flag)}
                break
            for i, value in zip(live, q):
                traces[i].append(float(value))
            done = np.linalg.norm(new - th, axis=1) <= settings.iter_tol
            for i in live[done]:
                infos[i] = {"iterations": it, "objective_trace": traces[i]}
            (th,) = drop(~done, None, new)
        if mode == "iterated":
            drop(np.zeros(len(live), bool), lambda j: SolverError(
                "iterated GMM did not reach a fixed point", trace=traces[live[j]]
            ))

        def row(i):
            if i in errors:
                raise errors[i]
            return theta[i], infos[i]

        return row

    return features, finish
