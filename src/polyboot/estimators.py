"""Weighted structural estimators: mean, OLS, PPML, and the GMM family.

Every builtin moment is a residual times an instrument, psi = (y - mu) z:
the mean is y - theta (z = 1), OLS (y - x'theta) x, PPML (y - exp(x'theta)) x
and linear-IV GMM (y - r'theta) z. Every estimator is a pure function of a
sample and a normalized weight vector (N,), with one block form over R
weight rows at once, ``block_kernel``; the ``bootstrap`` module docstring
tells how the engine applies it. Mean and OLS are closed forms in weighted
feature sums (``linear_statistic``), PPML a damped Newton per row, one
weighted product per evaluation (``ppml.ppml_newton``), and the builtin
linear IV one exact weighted solve per re-weighting round
(``linear_iv.linear_iv_gmm``). ``gmm`` is the per-row GMM of user moments,
one-step, two-step or iterated, with the weight matrices of
``gmm_weights``; each of its minimizations, and a just-identified moment's
root, is one least-squares Gauss-Newton (``gauss_newton``) with a stop
relative to theta. The solvers' tolerances and limits are the module
constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import PolyadicSample
from .errors import (
    DRAW_FAILURES,
    DataError,
    ParamError,
    SingularDesign,
    SolverError,
)
from .gmm_weights import acm_weight_matrix, centered_weight_matrix
from .weights import ROW_FLOATS

COND_LIMIT = 1e12
STEP_TOL = 1e-10  # gauss_newton: the largest step at a solution, relative to 1 + max|theta|
# gauss_newton: a step within STALLED bounds ends the row if it does not descend, and a
# root's moment must vanish to within STALLED * STEP_TOL of the size of its terms
STALLED = 1e3
MAX_ITER = 100  # Newton steps of PPML, Gauss-Newton steps of gauss_newton
ITER_TOL = 1e-8  # iterated GMM: the largest change in theta at a fixed point
ITER_MAX = 50  # iterated GMM: re-weighting rounds


@dataclass(frozen=True)
class MomentFunction:
    """Moment equations psi mapping (observation variables, theta) -> R^L.

    ``fn`` is vectorized over observations: (variables (N, V), theta (K,))
    -> (N, L). ``jacobian``, when given, returns per-observation L x K
    derivative blocks and must match finite differences to 1e-5 relative; it
    drives ``gauss_newton``'s steps as well as the analytic variance, and
    without it both use central differences.
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
class EstimatorSpec:
    """Declarative description of the estimator functional.

    ``kind`` is one of ``mean``, ``ols``, ``ppml``, ``gmm``. For GMM either
    pass a ready ``moment`` or name the builtin ``linear-iv``, resolved
    against the sample's columns.
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
            b = self.builtin_moment
            if b in ("ols", "ppml"):
                raise ParamError(f'{b} is EstimatorSpec(kind="{b}"), not a GMM builtin moment')
            if b not in (None, "linear-iv"):
                raise ParamError(f"unknown builtin moment {b!r}")
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
        k = len(self.x) + bool(self.intercept) if self.moment is None else self.moment.n_params
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

    def design(variables):
        r = _design(variables, jr, intercept)
        return r, r if jz is None else _design(variables, jz, intercept)

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
    ``spec.kind``, or for GMM a ready ``spec.moment`` or the builtin linear IV."""
    if spec.kind == "gmm" and spec.moment is not None:
        return spec.moment
    names = sample.variable_names
    if spec.kind == "mean":
        return mean_moment(names, spec.column)
    if spec.kind in ("ols", "ppml"):
        build = ols_moment if spec.kind == "ols" else ppml_moment
        return build(names, spec.y, spec.x, spec.intercept)
    return linear_iv_moment(names, spec.y, spec.x, spec.instruments, spec.intercept)


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
    finish)``, where ``finish(sums (R, F))`` gives the block result of
    ``block_kernel`` (every row from its sums, so ``weights_of`` is unused)."""
    if spec.kind == "mean":
        return sample.column(spec.column)[:, None], lambda sums, weights_of=None: (sums, {}, {})
    x, y = regressors(sample, spec.x, spec.intercept), sample.column(spec.y)
    features, solve = normal_equations(x, y)

    def finish(sums, weights_of=None):
        theta, singular = solve(sums)
        reason = "weighted Gram matrix is numerically singular"
        return theta, {int(r): SingularDesign(reason) for r in np.flatnonzero(singular)}, {}

    return features, finish


# ---------------------------------------------------------------------------
# solvers


def gauss_newton(moment, sample, weights, factor=None, init=None) -> tuple:
    """Minimize |S'm(theta)|^2 for the weighted mean moment m, S a weight-matrix
    factor (Omega = S S', None for the identity), from ``init`` or zero:
    ``(theta, iterations)``.

    Each step d is the least-squares solution of S'J d = -S'm, never forming
    J' Omega J; with L = K and S = I it is the Newton step J d = -m, solved
    by LU, so a just-identified moment is solved for its root. A singular J
    or rank-deficient S'J has no such step and fails the row with
    SolverError. The row converges, taking that last step, once max|d| <=
    STEP_TOL (1 + max|theta|), or once a step within STALLED times that
    bound does not lower the objective: near a minimum the fall of the
    objective is second order in d and sinks below its rounding, while the
    step is still exact to first order. A longer step is halved until the
    objective falls, and the row fails when 40 halvings do not lower it or
    after MAX_ITER steps. A root search's answer must also zero m to within
    STALLED STEP_TOL of the size of its terms, sum_n w_n |psi_n| +
    |J| |theta|, or the row fails: a small step alone does not make a root.
    """
    variables, root = sample.variables, factor is None and moment.just_identified

    def residual(t):
        m = moment_mean(moment, variables, weights, t)
        r = m if factor is None else factor.T @ m
        return r, float(r @ r) if np.all(np.isfinite(r)) else np.inf

    def solution(t, jac, it):
        if root:
            psi = moment.fn(variables, t)
            m, terms = weights @ psi, weights @ np.abs(psi) + np.abs(jac) @ np.abs(t)
            if not np.all(np.abs(m) <= STALLED * STEP_TOL * terms):
                norm = float(np.max(np.abs(m)))
                raise SolverError(f"moment root not found (residual {norm:.3e})", residual=norm)
        return t, it

    theta = np.zeros(moment.n_params) if init is None else np.array(init, dtype=np.float64)
    r, q = residual(theta)
    for it in range(MAX_ITER):
        a = moment_mean_jacobian(moment, variables, weights, theta)
        a = a if factor is None else factor.T @ a
        if not (np.isfinite(q) and np.all(np.isfinite(a))):
            raise SolverError("Gauss-Newton objective or Jacobian is not finite")
        if root:
            try:
                d = np.linalg.solve(a, -r)
            except np.linalg.LinAlgError:
                d = None
        else:
            d, _, rank, _ = np.linalg.lstsq(a, -r, rcond=None)
            d = d if rank == moment.n_params else None
        if d is None:
            raise SolverError("Gauss-Newton Jacobian is rank deficient")
        step, bound = np.max(np.abs(d)), STEP_TOL * (1.0 + np.max(np.abs(theta)))
        if step <= bound:
            return solution(theta + d, a, it)
        short = step <= STALLED * bound
        for t in 0.5 ** np.arange(1 if short else 40):
            r_new, q_new = residual(theta + t * d)
            if q_new < q:
                theta, r, q = theta + t * d, r_new, q_new
                break
        else:
            if short:
                return solution(theta + d, a, it)
            raise SolverError(f"Gauss-Newton line search stalled (step {step:.3e})")
    raise SolverError(f"Gauss-Newton did not converge in {MAX_ITER} steps")


def gmm(moment, sample, weights, mode="two-step", weight_style="centered") -> tuple:
    """GMM in ``mode`` (one-step, two-step or iterated); returns (theta, info).

    Every minimization is ``gauss_newton``. One-step minimizes with the
    identity weight matrix. Each re-weighting round then re-estimates the
    weight matrix's factor at the latest theta and minimizes again from
    there: two-step GMM is one centered round (info:
    ``weight_matrix_ridged``), iterated GMM runs up to ITER_MAX rounds with
    the ``weight_style`` (centered or acm) matrix until theta moves by at
    most ITER_TOL (info: ``iterations``, ``objective_trace``, each round's
    |S'm|^2). A just-identified system's one-step estimate is its moment
    root, which every weight matrix keeps (info: the root's Gauss-Newton
    ``iterations`` for two-step). ``evaluate_estimator`` and the bootstrap
    solve the builtin linear-IV moment in closed form with
    ``linear_iv.linear_iv_gmm`` instead.
    """
    if mode not in ("one-step", "two-step", "iterated") or weight_style not in ("centered", "acm"):
        raise ParamError(f"unknown gmm mode {mode!r} or weight style {weight_style!r}")
    iterated, just = mode == "iterated", moment.just_identified
    if iterated and weight_style == "acm" and moment.residual_instrument is None and not just:
        raise ParamError("acm-style iteration needs a residual x instrument moment")
    theta, iters = gauss_newton(moment, sample, weights)
    if just:
        if iterated:
            return theta, {"iterations": 1, "objective_trace": []}
        return theta, {"iterations": iters} if mode == "two-step" else {}
    if mode == "one-step":
        return theta, {}
    reweight = acm_weight_matrix if iterated and weight_style == "acm" else centered_weight_matrix
    trace = []
    for it in range(1, (ITER_MAX if iterated else 1) + 1):
        factor, ridged = reweight(moment, sample, weights, theta)
        theta_new, _ = gauss_newton(moment, sample, weights, factor, init=theta)
        if not iterated:
            return theta_new, {"weight_matrix_ridged": ridged}
        r = factor.T @ moment_mean(moment, sample.variables, weights, theta_new)
        trace.append(float(r @ r))
        delta = np.linalg.norm(theta_new - theta)
        theta = theta_new
        if delta <= ITER_TOL:
            return theta, {"iterations": it, "objective_trace": trace}
    raise SolverError("iterated GMM did not reach a fixed point", trace=trace)


# ---------------------------------------------------------------------------
# dispatch


def _per_row_gmm(spec, sample):
    """``gmm`` on each weight row alone, the block kernel of user moments."""
    moment = build_moment(spec, sample)

    def solve(weights):
        theta, errors, infos = np.full((len(weights), moment.n_params), np.nan), {}, {}
        for r, w in enumerate(weights):
            try:
                theta[r], infos[r] = gmm(moment, sample, w, spec.gmm_mode, spec.weight_style)
            except DRAW_FAILURES as exc:
                errors[r] = exc
        return theta, errors, infos

    return solve


def block_kernel(spec: EstimatorSpec, sample: PolyadicSample) -> tuple:
    """The estimator over a block of weight rows: ``(row_floats, solve,
    linear)``, where ``solve(weights (R, N))`` gives ``(theta (R, K), errors,
    infos)``. errors maps each failed row to its draw failure, and only the
    other rows' theta and info are estimates; infos maps a row to its solver
    metadata, {} when absent. A row's result is fixed for a fixed block
    (``bootstrap`` module docstring). ``row_floats`` is the float64 values a
    block budgets per row and observation: ``weights.ROW_FLOATS`` for PPML
    and the builtin linear IV, 1 otherwise. ``linear`` is the factorized
    form ``(features, finish)``, features (N, F) or, for linear IV, a
    function that builds them only when ``weights.dense_features`` takes the
    sample (the point estimate never does): ``finish(sums, weights_of)``
    gives the block result from the rows' weighted feature sums, and may
    solve some rows from their weights, ``weights_of(rows)``. It is
    ``linear_statistic``'s for mean and OLS, ``linear_iv_gmm``'s for linear
    IV when its dense features fit, and None otherwise.
    """
    from .linear_iv import linear_iv_gmm  # these kernels build on this module
    from .ppml import ppml_newton

    if spec.kind in ("mean", "ols"):
        features, finish = linear = linear_statistic(spec, sample)
        return 1, lambda weights: finish(weights @ features), linear
    if spec.kind == "ppml":
        return ROW_FLOATS, ppml_newton(spec, sample), None
    if spec.moment is None:  # the builtin linear IV
        return ROW_FLOATS, *linear_iv_gmm(spec, sample)
    return 1, _per_row_gmm(spec, sample), None


def evaluate_estimator(spec: EstimatorSpec, sample: PolyadicSample, weights, solve=None) -> tuple:
    """Apply the estimator functional to the weight vector ``weights`` (N,):
    the one-row case of ``block_kernel``, which raises a failed row's error.
    ``solve`` is that kernel's, when the caller has built it already.

    Returns (theta as 1-d array, info dict with solver metadata).
    """
    solve = solve or block_kernel(spec, sample)[1]
    theta, errors, infos = solve(np.asarray(weights, float)[None])
    if errors:
        raise errors[0]
    return theta[0], infos.get(0, {})
