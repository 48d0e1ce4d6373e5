"""Independent oracle implementations used only by the test suite.

These deliberately avoid the package's own code paths: the scaled OLS runs
a least-squares fit on rescaled data, the PPML oracles are a from-scratch
IRLS loop and a damped Newton on one weight row, the shared-unit cross term
is a literal triple loop, and the GMM oracles are a grid search plus
golden-section refinement and a closed-form linear-IV GMM built from direct
weighted sums over the observations, in floats and, for one and two steps,
in exact rational arithmetic. The stacked just-identified system is an
independent formulation of two-step GMM built on the package's moment
functions: its root, found by the package's ``gauss_newton``, reproduces
``gmm``'s two-step estimate (acceptance criterion 3). ``relabeled`` permutes
a sample's unit ids for the invariance tests.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from polyboot.errors import SolverError
from polyboot.estimators import MomentFunction, moment_mean_jacobian, observation_jacobian

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scaled_ols(y, x, w):
    """OLS on data rescaled by sqrt(w): the weighted least squares fit."""
    s = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * s[:, None], y * s, rcond=None)
    return beta


def irls_ppml(y, x, w, max_iter=200, tol=1e-12):
    """Iteratively reweighted least squares for the exponential mean model."""
    eta = np.log(np.mean(y[y > 0])) * np.ones(len(y)) if np.any(y > 0) else np.zeros(len(y))
    theta = np.zeros(x.shape[1])
    for _ in range(max_iter):
        mu = np.exp(eta)
        z = eta + (y - mu) / mu
        ww = w * mu
        s = np.sqrt(ww)
        beta, *_ = np.linalg.lstsq(x * s[:, None], z * s, rcond=None)
        eta_new = x @ beta
        if np.max(np.abs(eta_new - eta)) < tol:
            return beta
        theta, eta = beta, eta_new
    return theta


def newton_ppml(y, x, w, max_iter=100):
    """Damped Newton PPML on one weight row, written out on its own:
    ``(theta, iterations, failure reason or None)``.

    Starts at the weighted OLS of log(y + 1) (collinear when its Gram matrix
    is not finite or has condition number >= 1e12), stops at a residual max
    norm <= 1e-8 and halves a step up to 40 times until the norm falls.
    """
    gram = x.T @ (w[:, None] * x)
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) >= 1e12:
        return None, 0, "SingularDesign: ppml design is collinear"
    theta = np.linalg.solve(gram, x.T @ (w * np.log1p(y)))

    def residual(t):
        with np.errstate(over="ignore"):
            mu = np.exp(x @ t)
        return (w * (y - mu)) @ x, mu

    m, mu = residual(theta)
    for it in range(max_iter):
        norm = np.max(np.abs(m)) if np.all(np.isfinite(m)) else np.inf
        if norm <= 1e-8:
            return theta, it, None
        jac = -(x.T @ ((w * mu)[:, None] * x))
        try:
            step = np.linalg.solve(jac, -m)
        except np.linalg.LinAlgError:
            return None, it, "SolverError: singular ppml Jacobian"
        t = 1.0
        for _ in range(40):
            cand = theta + t * step
            m_new, mu_new = residual(cand)
            new_norm = np.max(np.abs(m_new)) if np.all(np.isfinite(m_new)) else np.inf
            if new_norm < norm:
                theta, m, mu = cand, m_new, mu_new
                break
            t *= 0.5
        else:
            return None, it, "SolverError: ppml line search stalled"
    norm = float(np.max(np.abs(m)))
    if norm <= 1e-8:
        return theta, max_iter, None
    return None, max_iter, f"SolverError: ppml did not converge (residual {norm:.3e})"


def linear_gmm(y, r, z, w, mode="two-step", style="centered", iter_tol=1e-8, iter_max=50):
    """Linear-IV GMM on one weight row in closed form: ``(theta, rounds)``.

    Each minimization is theta = (A' Omega A)^{-1} A' Omega b with
    A = sum w z r' and b = sum w z y. The weight matrix is rebuilt from the
    observations at the latest theta: the inverse of sum w (psi - psibar)
    (psi - psibar)', or for iterated acm of (sum w e^2) sum w z z'. Iterated
    rounds stop once theta moves by at most iter_tol; None when they never do.
    """
    a, b = z.T @ (w[:, None] * r), z.T @ (w * y)

    def argmin(omega):
        return np.linalg.solve(a.T @ omega @ a, a.T @ omega @ b)

    def omega_at(theta):
        e = y - r @ theta
        if mode == "iterated" and style == "acm":
            return np.linalg.inv((w @ (e * e)) * (z.T @ (w[:, None] * z)))
        psi = e[:, None] * z
        centered = psi - w @ psi
        return np.linalg.inv(centered.T @ (w[:, None] * centered))

    theta = argmin(np.eye(z.shape[1]))
    if mode == "one-step":
        return theta, 0
    for rounds in range(1, (iter_max if mode == "iterated" else 1) + 1):
        new = argmin(omega_at(theta))
        moved = np.linalg.norm(new - theta)
        theta = new
        if mode == "two-step" or moved <= iter_tol:
            return theta, rounds
    return None, iter_max


def _exact_solve(m, v):
    """Solve m x = v in exact rational arithmetic, by Gauss-Jordan."""
    rows = [list(row) + [rhs] for row, rhs in zip(m, v)]
    for c in range(len(rows)):
        p = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def exact_linear_gmm(y, r, z, w, mode="two-step"):
    """One-step or two-step ``linear_gmm`` (centered weight matrix) on the
    float inputs taken as exact rationals, rounded to float once at the end:
    the answer to the rounding, however ill-conditioned A is."""
    y, w = [Fraction(v) for v in y.tolist()], [Fraction(v) for v in w.tolist()]
    r = [[Fraction(v) for v in row] for row in r.tolist()]
    z = [[Fraction(v) for v in row] for row in z.tolist()]
    cols = range(len(z[0]))
    a = [[sum(wi * zi[p] * ri[q] for wi, zi, ri in zip(w, z, r)) for q in range(len(r[0]))]
         for p in cols]
    b = [sum(wi * zi[p] * yi for wi, zi, yi in zip(w, z, y)) for p in cols]

    def argmin(cov):
        # (Omega A)' A d = (Omega A)' b, with Omega A solved from cov
        oa = a if cov is None else list(zip(*[_exact_solve(cov, col) for col in zip(*a)]))
        gram = [[sum(oa[p][i] * a[p][j] for p in cols) for j in range(len(a[0]))]
                for i in range(len(a[0]))]
        return _exact_solve(gram, [sum(oa[p][i] * b[p] for p in cols) for i in range(len(a[0]))])

    theta = argmin(None)
    if mode == "two-step":
        psi = [[(yi - sum(x * t for x, t in zip(ri, theta))) * zp for zp in zi]
               for yi, ri, zi in zip(y, r, z)]
        mean = [sum(wi * p[j] for wi, p in zip(w, psi)) for j in cols]
        theta = argmin([[sum(wi * (p[i] - mean[i]) * (p[j] - mean[j]) for wi, p in zip(w, psi))
                         for j in cols] for i in cols])
    return np.array([float(t) for t in theta])


def stacked_two_step_moment(moment) -> MomentFunction:
    """The two-step GMM estimator as one just-identified system.

    Parameters are packed as [theta1 (K), theta2 (K), m (L), Omega (L*L,
    the centered moment covariance at theta1), G1 (L*K), G2 (L*K)]. The
    final block imposes the step-2 first-order condition
    G2' Omega^{-1} psi(theta2) = 0, so the theta2 component of the root
    reproduces two-step GMM.
    """
    L, K = moment.n_moments, moment.n_params
    dim = 2 * K + L + L * L + 2 * L * K

    def unpack(params):
        i = 0
        theta1 = params[i : i + K]
        i += K
        theta2 = params[i : i + K]
        i += K
        m = params[i : i + L]
        i += L
        omega = params[i : i + L * L].reshape(L, L)
        i += L * L
        g1 = params[i : i + L * K].reshape(L, K)
        i += L * K
        g2 = params[i : i + L * K].reshape(L, K)
        return theta1, theta2, m, omega, g1, g2

    def fn(variables, params):
        theta1, theta2, m, omega, g1, g2 = unpack(params)
        n = variables.shape[0]
        psi1 = moment.fn(variables, theta1)
        psi2 = moment.fn(variables, theta2)
        j1 = observation_jacobian(moment, variables, theta1)
        j2 = observation_jacobian(moment, variables, theta2)
        omega_s = 0.5 * (omega + omega.T)
        try:
            a = np.linalg.solve(omega_s, g2)
        except np.linalg.LinAlgError:
            raise SolverError("stacked system: covariance block not invertible") from None
        centered = psi1 - m
        blocks = [
            (g1[None, :, :] - j1).reshape(n, L * K),
            psi1 @ g1,
            centered,
            (omega[None, :, :] - centered[:, :, None] * centered[:, None, :]).reshape(n, L * L),
            (g2[None, :, :] - j2).reshape(n, L * K),
            psi2 @ a,
        ]
        return np.concatenate(blocks, axis=1)

    return MomentFunction(f"stacked({moment.name})", dim, dim, fn)


def stacked_init(moment, sample, weights, theta_init=None) -> np.ndarray:
    """Consistent starting point for the stacked system at a given theta."""
    K, L = moment.n_params, moment.n_moments
    theta = np.zeros(K) if theta_init is None else np.asarray(theta_init, dtype=np.float64)
    psi = moment.fn(sample.variables, theta)
    m = weights @ psi
    centered = psi - m
    omega = centered.T @ (weights[:, None] * centered)
    g = moment_mean_jacobian(moment, sample.variables, weights, theta)
    return np.concatenate([theta, theta, m, omega.ravel(), g.ravel(), g.ravel()])


def phi_tilde_matrix(moment, sample, theta):
    """Direction-symmetrized moment contributions via an explicit dict lookup."""
    phi = moment.fn(sample.variables, np.asarray(theta, dtype=float))
    lookup = {}
    for row, (i, j) in enumerate(sample.index.tolist()):
        lookup[(i, j)] = phi[row]
    n = sample.n_units
    k = phi.shape[1]
    out = np.zeros((n, n, k))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out[i, j] = 0.5 * (lookup[(i, j)] + lookup[(j, i)])
    return out


def triple_loop_sigma2(phi_tilde):
    """Literal loop over unordered triples, symmetrized shared-unit products."""
    n, _, k = phi_tilde.shape
    total = np.zeros((k, k))

    def sym(a, b):
        return 0.5 * (np.outer(a, b) + np.outer(b, a))

    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for s in range(j + 1, n):
                total += (
                    sym(phi_tilde[i, j], phi_tilde[i, s])
                    + sym(phi_tilde[i, j], phi_tilde[j, s])
                    + sym(phi_tilde[i, s], phi_tilde[j, s])
                ) / 3.0
    return total / math.comb(n, 3)


def pair_loop_sigma3(phi_tilde):
    n, _, k = phi_tilde.shape
    total = np.zeros((k, k))
    for i in range(n - 1):
        for j in range(i + 1, n):
            total += np.outer(phi_tilde[i, j], phi_tilde[i, j])
    return total / math.comb(n, 2)


def grid_golden_minimize(objective, lo, hi, n_grid=400, tol=1e-12):
    """Coarse grid scan, then golden-section refinement of the best cell."""
    grid = np.linspace(lo, hi, n_grid)
    values = [objective(t) for t in grid]
    k = int(np.argmin(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_grid - 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def exchangeable_mean_variance(n, sigma_c, sigma_eps):
    """Variance of the dyadic mean when y_ij = C_i + C_j + eps_ij."""
    return 4.0 * sigma_c**2 / n + sigma_eps**2 / (n * (n - 1))


def relabeled(sample, permutation):
    """``sample`` with unit u renamed ``permutation[u]``; labels and groups follow."""
    perm = np.asarray(permutation, dtype=np.int64)
    assert sorted(perm.tolist()) == list(range(sample.n_units)), "not a permutation"
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(sample.n_units)
    groups = sample.group_of_unit
    return dataclasses.replace(
        sample,
        unit_labels=tuple(sample.unit_labels[u] for u in inverse),
        index=perm[sample.index],
        group_of_unit=None if groups is None else tuple(groups[u] for u in inverse),
    )
