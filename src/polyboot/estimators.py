"""Weighted structural estimators: mean, OLS, PPML, and the GMM family.

Every builtin moment is a residual times an instrument, psi = (y - mu) z:
the mean is y - theta (z = 1), OLS (y - x'theta) x, PPML (y - exp(x'theta)) x
and linear-IV GMM (y - r'theta) z. Every estimator is a pure function of a
sample and a normalized weight vector, so the same code path serves the
uniform-weight point estimate and every resampling draw. Mean and OLS are
closed forms in weighted feature sums, defined once in
``linear_statistic``: the point estimate is its one-row case, and the
bootstrap engine finishes a block of draws with one batched normal-equation
solve. PPML (``ppml.ppml_newton``, a damped Newton in which each row takes
the steps it would take alone) and linear-IV GMM (``linear_iv.linear_iv_gmm``,
one exact weighted solve per re-weighting round) solve a block of weight
rows at once; the point estimate is the one-row case. ``gmm`` is the
per-row GMM of user moments and the other builtins, one-step, two-step
(centered weight matrix re-estimated at the step-1 solution) or iterated,
with the weight matrices of ``gmm_weights``; just-identified systems are
solved as moment roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data_model import PolyadicSample
from .errors import (
    DataError,
    ParamError,
    SingularDesign,
    SolverError,
)
from .gmm_weights import acm_weight_matrix, centered_weight_matrix

COND_LIMIT = 1e12


@dataclass(frozen=True)
class MomentFunction:
    """Moment equations psi mapping (observation variables, theta) -> R^L.

    ``fn`` is vectorized over observations: (variables (N, V), theta (K,))
    -> (N, L). ``jacobian``, when given, returns per-observation L x K
    derivative blocks and must match finite differences to 1e-5 relative; it
    drives the solvers' Newton and Gauss-Newton steps as well as the analytic
    variance, and without it both use central differences.
    ``residual_instrument`` exposes the (e, Z) decomposition required by the
    acm-style weight matrix.
    """

    name: str
    n_moments: int
    n_params: int
    fn: object
    jacobian: object = None
    residual_instrument: object = None

    def __post_init__(self):
        if self.n_moments < self.n_params:
            raise ParamError("need at least as many moments as parameters (L >= K)")

    @property
    def just_identified(self) -> bool:
        return self.n_moments == self.n_params


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and limits of the per-row solvers. Builtin linear-IV GMM
    minimizes in closed form, so ``init``, ``foc_tol`` and ``max_iter`` do
    not affect it; ``iter_tol`` and ``iter_max`` bound its iterated rounds."""

    foc_tol: float = 1e-8
    root_tol: float = 1e-10
    max_iter: int = 100
    iter_tol: float = 1e-8
    iter_max: int = 50
    init: tuple | None = None


@dataclass(frozen=True)
class EstimatorSpec:
    """Declarative description of the estimator functional.

    ``kind`` is one of ``mean``, ``ols``, ``ppml``, ``gmm``. For GMM either
    pass a ready ``moment`` or name a builtin (``ols``, ``ppml``,
    ``linear-iv``) resolved against the sample's columns.
    """

    kind: str
    column: str | None = None
    y: str | None = None
    x: tuple = ()
    intercept: bool = False
    moment: MomentFunction | None = None
    builtin_moment: str | None = None
    instruments: tuple = ()
    gmm_mode: str = "two-step"
    weight_style: str = "centered"
    settings: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "instruments", tuple(self.instruments))
        if self.kind == "mean":
            if not self.column:
                raise ParamError("mean estimator needs a column")
        elif self.kind in ("ols", "ppml"):
            if not self.y or (len(self.x) < 1 and not self.intercept):
                raise ParamError(f"{self.kind} needs a y column and >= 1 regressor")
        elif self.kind == "gmm":
            if self.moment is None and self.builtin_moment is None:
                raise ParamError("gmm needs a moment function")
            if self.gmm_mode not in ("one-step", "two-step", "iterated"):
                raise ParamError(f"unknown gmm mode {self.gmm_mode!r}")
            if self.weight_style not in ("centered", "acm"):
                raise ParamError(f"unknown weight style {self.weight_style!r}")
        else:
            raise ParamError(f"unknown estimator kind {self.kind!r}")

    def param_names(self) -> tuple:
        if self.kind == "mean":
            return (self.column,)
        if self.kind in ("ols", "ppml"):
            return (("intercept",) if self.intercept else ()) + self.x
        k = self.moment.n_params if self.moment is not None else None
        if k is None:
            k = len(self.x) + (1 if self.intercept else 0)
        return tuple(f"theta{i}" for i in range(k))


# ---------------------------------------------------------------------------
# moment builders


def _indices(variable_names, columns):
    names = list(variable_names)
    out = []
    for c in columns:
        if c not in names:
            raise DataError(f"unknown variable column {c!r}")
        out.append(names.index(c))
    return out


def _design(variables, cols, intercept):
    x = variables[:, cols]
    if intercept:
        x = np.column_stack([np.ones(len(x)), x])
    return x


def _residual_instrument_moment(
    name, variable_names, y, regressors, instruments, intercept, exp_mean=False
) -> MomentFunction:
    """psi = (y - mu) z with mu = r'theta, or exp(r'theta) for ``exp_mean``.

    ``instruments=None`` instruments the regressors with themselves (z = r).
    """
    (jy,) = _indices(variable_names, [y])
    jr = _indices(variable_names, regressors)
    jz = None if instruments is None else _indices(variable_names, instruments)
    k = len(jr) + (1 if intercept else 0)
    n_mom = k if jz is None else len(jz) + (1 if intercept else 0)
    if n_mom < k:
        raise ParamError("need at least as many instruments as regressors")

    # solvers call the moment many times on one sample's read-only variables:
    # (variables, (r, z)) of the latest, replaced by one assignment so that
    # threads can share it
    last = (None, None)

    def design(variables):
        nonlocal last
        seen, rz = last
        if seen is not variables:
            r = _design(variables, jr, intercept)
            rz = r, r if jz is None else _design(variables, jz, intercept)
            if not variables.flags.writeable:
                last = variables, rz
        return rz

    def parts(variables, theta):
        r, z = design(variables)
        mu = r @ theta
        if exp_mean:
            with np.errstate(over="ignore"):
                mu = np.exp(mu)
        return variables[:, jy] - mu, mu, r, z

    def fn(variables, theta):
        e, _, _, z = parts(variables, theta)
        return e[:, None] * z

    def jac(variables, theta):
        if exp_mean:
            _, mu, r, z = parts(variables, theta)
            return -(mu[:, None, None] * z[:, :, None] * r[:, None, :])
        r, z = design(variables)  # a linear moment's Jacobian does not need theta
        return -z[:, :, None] * r[:, None, :]

    def resid_instr(variables, theta):
        e, _, _, z = parts(variables, theta)
        return e, z

    return MomentFunction(name, n_mom, k, fn, jacobian=jac, residual_instrument=resid_instr)


def mean_moment(variable_names, column) -> MomentFunction:
    """psi = x - theta (the intercept-only OLS); the root is the weighted mean."""
    return _residual_instrument_moment("mean", variable_names, column, (), None, True)


def ols_moment(variable_names, y, x_columns, intercept=False) -> MomentFunction:
    """psi = (y - x'theta) x."""
    return _residual_instrument_moment("ols", variable_names, y, x_columns, None, intercept)


def ppml_moment(variable_names, y, x_columns, intercept=False) -> MomentFunction:
    """psi = (y - exp(x'theta)) x, the pseudo-Poisson first-order condition."""
    return _residual_instrument_moment("ppml", variable_names, y, x_columns, None, intercept, True)


def linear_iv_moment(variable_names, y, regressors, instruments, intercept=False) -> MomentFunction:
    """psi = (y - r'theta) z with L = len(instruments) (+ intercept)."""
    return _residual_instrument_moment(
        "linear-iv", variable_names, y, regressors, instruments, intercept
    )


def build_moment(spec: EstimatorSpec, sample: PolyadicSample) -> MomentFunction:
    """Resolve the estimator's moment equations against the sample's columns:
    ``spec.kind``, or for GMM a ready ``spec.moment`` or ``spec.builtin_moment``."""
    if spec.kind == "gmm" and spec.moment is not None:
        return spec.moment
    kind = spec.builtin_moment if spec.kind == "gmm" else spec.kind
    names = sample.variable_names
    if spec.kind == "mean":  # not a GMM builtin: a mean spec names a column, not y and x
        return mean_moment(names, spec.column)
    if kind in ("ols", "ppml"):
        build = ols_moment if kind == "ols" else ppml_moment
        return build(names, spec.y, spec.x, spec.intercept)
    if kind == "linear-iv":
        return linear_iv_moment(names, spec.y, spec.x, spec.instruments, spec.intercept)
    raise ParamError(f"unknown builtin moment {kind!r}")


# ---------------------------------------------------------------------------
# moment arithmetic


def moment_mean(moment, variables, weights, theta) -> np.ndarray:
    return weights @ moment.fn(variables, theta)


def moment_mean_jacobian(moment, variables, weights, theta) -> np.ndarray:
    """d/dtheta of the weighted mean moment, (L, K)."""
    return np.einsum("n,nlk->lk", weights, observation_jacobian(moment, variables, theta))


def observation_jacobian(moment, variables, theta) -> np.ndarray:
    """Per-observation Jacobian blocks (N, L, K): the moment's own ``jacobian``,
    or central differences with step 1e-6 (1 + |theta_j|) when it has none."""
    if moment.jacobian is not None:
        return moment.jacobian(variables, theta)
    n, k = variables.shape[0], moment.n_params
    out = np.empty((n, moment.n_moments, k))
    for j in range(k):
        h = 1e-6 * (1.0 + abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        out[:, :, j] = (moment.fn(variables, tp) - moment.fn(variables, tm)) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# closed-form estimators


def regressors(sample: PolyadicSample, x_columns, intercept=False) -> np.ndarray:
    """The C-ordered (N, K) regressor matrix, with a leading column of ones for an intercept."""
    cols = _indices(sample.variable_names, x_columns)
    return np.ascontiguousarray(_design(sample.variables, cols, intercept))


def solve_normal_equations(grams, rhs) -> tuple:
    """Solve gram_r theta_r = rhs_r for a stack of R systems, grams (R, K, K)
    and rhs (R, K): ``(theta (R, K), singular (R,))``. A row whose gram is
    non-finite or has condition number >= COND_LIMIT is singular and NaN."""
    singular = ~np.isfinite(grams).all(axis=(1, 2))
    singular[~singular] = np.linalg.cond(grams[~singular]) >= COND_LIMIT
    ok, theta = ~singular, np.full(rhs.shape, np.nan)
    theta[ok] = np.linalg.solve(grams[ok], rhs[ok][:, :, None])[:, :, 0]
    return theta, singular


def normal_equations(x, y):
    """Weighted OLS of y on x (N, K) as weighted feature sums: ``(features
    [vec(x x'), x y] (N, K*K + K), finish)``, where ``finish(sums (R, F))``
    gives ``(theta (R, K), singular (R,))`` for R rows at once."""
    n, k = x.shape
    features = np.empty((n, k * k + k))
    np.multiply(x[:, :, None], x[:, None, :], out=features[:, : k * k].reshape(n, k, k))
    np.multiply(x, y[:, None], out=features[:, k * k :])

    def finish(sums):
        return solve_normal_equations(sums[:, : k * k].reshape(-1, k, k), sums[:, k * k :])

    return features, finish


def linear_statistic(spec: EstimatorSpec, sample: PolyadicSample):
    """Mean and OLS as functions of weighted feature sums s = sum_k w_k f_k,
    f = y for the mean and ``normal_equations`` for OLS: ``(features (N, F),
    finish)`` as there, or None for the other estimators."""
    if spec.kind == "mean":
        return sample.column(spec.column)[:, None], lambda sums: (sums, np.zeros(len(sums), bool))
    if spec.kind != "ols":
        return None
    return normal_equations(regressors(sample, spec.x, spec.intercept), sample.column(spec.y))


def linear_row(theta, singular, r) -> tuple:
    """Row r of a ``finish`` result as (theta, info); a singular row raises."""
    if singular[r]:
        raise SingularDesign("weighted Gram matrix is numerically singular")
    return theta[r], {}


# ---------------------------------------------------------------------------
# solvers


def solve_z(moment, sample, weights, init=None, settings=None) -> tuple:
    """Newton root of the just-identified weighted moment; (theta, iterations).

    Uses the moment's Jacobian (central differences only when the moment has
    none, see ``observation_jacobian``), a halving line search on residual
    increase, and declares convergence at max-norm <= root_tol.
    """
    settings = settings or SolverSettings()
    if not moment.just_identified:
        raise ParamError("solve_z requires a just-identified moment (L = K)")
    variables, w = sample.variables, weights.weights
    theta = np.zeros(moment.n_params) if init is None else np.asarray(init, dtype=np.float64).copy()

    def merit(m):
        return float(m @ m) if np.all(np.isfinite(m)) else np.inf

    m = moment_mean(moment, variables, w, theta)
    for it in range(settings.max_iter):
        if np.all(np.isfinite(m)) and np.max(np.abs(m)) <= settings.root_tol:
            return theta, it
        jac = moment_mean_jacobian(moment, variables, w, theta)
        grad = jac.T @ m  # gradient of the squared-residual merit (up to 2x)
        try:
            step = np.linalg.solve(jac, -m)
        except np.linalg.LinAlgError:
            step = None
        if step is None or step @ grad >= 0:
            # Newton direction unavailable or not a descent direction
            step = -grad
            if not np.any(step):
                raise SolverError(
                    "stationary point of the moment residual", residual=float(np.max(np.abs(m)))
                )
        base = merit(m)
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            m_new = moment_mean(moment, variables, w, cand)
            if merit(m_new) < base:
                theta, m = cand, m_new
                break
            t *= 0.5
        else:
            raise SolverError(
                "Newton line search stalled", residual=float(np.max(np.abs(m)))
            )
    norm = float(np.max(np.abs(m)))
    if norm <= settings.root_tol:
        return theta, settings.max_iter
    raise SolverError(f"moment root not found (residual {norm:.3e})", residual=norm)


def _gauss_newton(moment, variables, w, weight_matrix, init, settings):
    """Minimize psibar' W psibar from one start; returns (theta, Q, converged)."""
    theta = np.asarray(init, dtype=np.float64).copy()
    wm = weight_matrix

    def q_of(m):
        return float(m @ wm @ m)

    m = moment_mean(moment, variables, w, theta)
    q = q_of(m)
    converged = False
    for _ in range(settings.max_iter):
        jac = moment_mean_jacobian(moment, variables, w, theta)
        grad = jac.T @ (wm @ m)
        if np.max(np.abs(grad)) <= settings.foc_tol:
            converged = True
            break
        hess = jac.T @ wm @ jac
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        t = 1.0
        improved = False
        for _ in range(40):
            cand = theta + t * step
            m_new = moment_mean(moment, variables, w, cand)
            q_new = q_of(m_new) if np.all(np.isfinite(m_new)) else np.inf
            if q_new < q:
                theta, m, q = cand, m_new, q_new
                improved = True
                break
            t *= 0.5
        if not improved:
            # stuck at a point with a nonzero gradient: treat as stalled
            break
    else:
        jac = moment_mean_jacobian(moment, variables, w, theta)
        converged = np.max(np.abs(jac.T @ (wm @ m))) <= settings.foc_tol
    return theta, q, converged


def _minimize_gmm(moment, sample, weights, weight_matrix, settings):
    """Multi-start Gauss-Newton on the GMM quadratic form."""
    starts = [np.zeros(moment.n_params)]
    if settings.init is not None:
        starts.insert(0, np.asarray(settings.init, dtype=np.float64))
    best = None
    for start in starts:
        theta, q, ok = _gauss_newton(
            moment, sample.variables, weights.weights, weight_matrix, start, settings
        )
        if ok and (best is None or q < best[1]):
            best = (theta, q)
    if best is None:
        raise SolverError("GMM minimization did not reach the first-order conditions")
    return best[0]


def gmm(moment, sample, weights, settings=None, mode="two-step", weight_style="centered") -> tuple:
    """GMM in ``mode`` (one-step, two-step or iterated); returns (theta, info).

    One-step minimizes with the identity weight matrix. Each re-weighting round
    then re-estimates the weight matrix at the latest theta and minimizes again
    from there: two-step GMM is one centered round (info:
    ``weight_matrix_ridged``), iterated GMM runs rounds with the
    ``weight_style`` (centered or acm) matrix until theta moves by at most
    iter_tol (info: ``iterations``, ``objective_trace``). Just-identified
    systems are solved directly as moment roots, where the weight matrix is
    irrelevant. ``evaluate_estimator`` and the bootstrap solve the builtin
    linear-IV moment with ``linear_iv.linear_iv_gmm`` instead, where
    ``settings.init``, ``foc_tol`` and ``max_iter`` play no part.
    """
    if mode not in ("one-step", "two-step", "iterated") or weight_style not in ("centered", "acm"):
        raise ParamError(f"unknown gmm mode {mode!r} or weight style {weight_style!r}")
    settings = settings or SolverSettings()
    if moment.just_identified:
        theta, iters = solve_z(moment, sample, weights, init=settings.init, settings=settings)
        if mode == "iterated":
            return theta, {"iterations": 1, "objective_trace": []}
        return theta, {"iterations": iters} if mode == "two-step" else {}
    iterated = mode == "iterated"
    if iterated and weight_style == "acm" and moment.residual_instrument is None:
        raise ParamError("acm-style iteration needs a residual x instrument moment")
    theta = _minimize_gmm(moment, sample, weights, np.eye(moment.n_moments), settings)
    if mode == "one-step":
        return theta, {}
    reweight = acm_weight_matrix if iterated and weight_style == "acm" else centered_weight_matrix
    trace = []
    rounds = settings.iter_max if iterated else 1
    for it in range(1, rounds + 1):
        omega = reweight(moment, sample, weights, theta)
        theta_new = _minimize_gmm(
            moment, sample, weights, omega.matrix, replace(settings, init=tuple(theta))
        )
        if not iterated:
            return theta_new, {"weight_matrix_ridged": omega.ridged}
        m = moment_mean(moment, sample.variables, weights.weights, theta_new)
        trace.append(float(m @ omega.matrix @ m))
        delta = np.linalg.norm(theta_new - theta)
        theta = theta_new
        if delta <= settings.iter_tol:
            return theta, {"iterations": it, "objective_trace": trace}
    raise SolverError("iterated GMM did not reach a fixed point", trace=trace)


# ---------------------------------------------------------------------------
# stacked just-identified representation of two-step GMM


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
    w = weights.weights
    m = w @ psi
    centered = psi - m
    omega = centered.T @ (w[:, None] * centered)
    g = moment_mean_jacobian(moment, sample.variables, w, theta)
    return np.concatenate([theta, theta, m, omega.ravel(), g.ravel(), g.ravel()])


# ---------------------------------------------------------------------------
# dispatch


def evaluate_estimator(spec: EstimatorSpec, sample: PolyadicSample, weights) -> tuple:
    """Apply the estimator functional to a weighted empirical distribution.

    Returns (theta as 1-d array, info dict with solver metadata).
    """
    linear = linear_statistic(spec, sample)
    if linear is not None:
        features, finish = linear
        return linear_row(*finish((weights.weights @ features)[None]), 0)
    from .linear_iv import linear_iv_gmm  # these kernels build on this module
    from .ppml import ppml_newton

    if spec.kind == "ppml":
        return ppml_newton(spec, sample)(weights.weights[None])(0)
    iv = linear_iv_gmm(spec, sample)
    if iv is not None:
        return iv(weights.weights[None])(0)
    return gmm(
        build_moment(spec, sample), sample, weights, spec.settings, spec.gmm_mode, spec.weight_style
    )
