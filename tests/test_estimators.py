import numpy as np
import pytest

import polyboot as pb
from polyboot.errors import DataError, ParamError, SingularDesign, SingularWeightMatrix, SolverError
from polyboot.estimators import (
    block_kernel, moment_mean, moment_mean_jacobian, observation_jacobian,
)
from polyboot.fixtures import overidentified_iv_sample
from conftest import random_dyadic_sample, weighted_mean, weighted_ols, weighted_ppml
import oracles


def rand_weights(sample, seed, b=0):
    return pb.weights_for_draw(sample, "bayes", seed=seed, b=b)


# -------------------------------------------------------------- weighted mean


def test_weighted_mean_uniform():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=np.array([[0, 1], [1, 0], [0, 2], [2, 0]]),
        variables=np.array([[1.0], [2.0], [3.0], [4.0]]),
        variable_names=("y",),
    )
    assert weighted_mean(s, pb.uniform_weights(s), "y") == pytest.approx(2.5)


def test_weighted_mean_point_mass(dyad_sample):
    w = np.zeros(6)
    w[3] = 1.0
    assert weighted_mean(dyad_sample, w, "y") == dyad_sample.variables[3, 0]


def test_weighted_mean_product_weights_hand_oracle(dyad_sample):
    v = np.array([1.0, 2.0, 3.0])
    w = pb.product_weights(dyad_sample, np.log(v)[None, :])[0]
    # direct enumeration over the six dyads
    expected = sum(
        v[i] * v[j] * dyad_sample.variables[r, 0]
        for r, (i, j) in enumerate(dyad_sample.index.tolist())
    ) / sum(v[i] * v[j] for i, j in dyad_sample.index.tolist())
    assert weighted_mean(dyad_sample, w, "y") == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------- weighted OLS


def test_ols_exact_line_weight_invariant(exact_line):
    for b in range(5):
        theta = weighted_ols(exact_line, rand_weights(exact_line, 21, b), "y", ("x",))
        assert theta[0] == pytest.approx(2.0, abs=1e-12)


def test_ols_uniform_matches_lstsq():
    rng = np.random.default_rng(3)
    s = random_dyadic_sample(rng, 6)
    theta = weighted_ols(s, pb.uniform_weights(s), "y", ("x",), intercept=True)
    design = np.column_stack([np.ones(s.n_obs), s.column("x")])
    ref, *_ = np.linalg.lstsq(design, s.column("y"), rcond=None)
    assert np.allclose(theta, ref, atol=1e-12)


def test_ols_matches_scaled_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        s = random_dyadic_sample(rng, 5 + trial % 4)
        w = rand_weights(s, 100 + trial)
        theta = weighted_ols(s, w, "y", ("x",), intercept=True)
        design = np.column_stack([np.ones(s.n_obs), s.column("x")])
        ref = oracles.scaled_ols(s.column("y"), design, w)
        assert np.max(np.abs(theta - ref)) < 1e-10


def test_ols_singular_design(dyad_sample):
    s = pb.PolyadicSample(
        order=2,
        unit_labels=dyad_sample.unit_labels,
        index=dyad_sample.index,
        variables=np.column_stack([np.arange(6.0), np.ones(6), 2 * np.ones(6)]),
        variable_names=("y", "c1", "c2"),
    )
    with pytest.raises(SingularDesign):
        weighted_ols(s, pb.uniform_weights(s), "y", ("c1", "c2"))


# --------------------------------------------------------------- weighted PPML


def poisson_sample(seed=5, n=6):
    rng = np.random.default_rng(seed)
    s = random_dyadic_sample(rng, n, columns=("x",))
    mu = np.exp(0.4 + 0.8 * s.column("x"))
    y = rng.poisson(mu).astype(float)
    return pb.PolyadicSample(
        order=2,
        unit_labels=s.unit_labels,
        index=s.index,
        variables=np.column_stack([y, s.column("x")]),
        variable_names=("y", "x"),
    )


def test_ppml_exact_exponential_fit():
    rng = np.random.default_rng(6)
    s = random_dyadic_sample(rng, 5, columns=("x",))
    y = np.exp(s.column("x"))
    s2 = pb.PolyadicSample(
        order=2, unit_labels=s.unit_labels, index=s.index,
        variables=np.column_stack([y, s.column("x")]), variable_names=("y", "x"),
    )
    for b in range(3):
        theta, _ = weighted_ppml(s2, rand_weights(s2, 31, b), "y", ("x",))
        assert theta[0] == pytest.approx(1.0, abs=1e-9)


def test_ppml_intercept_only_log_mean(dyad_sample):
    c = 3.7
    s = pb.PolyadicSample(
        order=2, unit_labels=dyad_sample.unit_labels, index=dyad_sample.index,
        variables=np.full((6, 2), c), variable_names=("y", "one"),
    )
    theta, _ = weighted_ppml(s, pb.uniform_weights(s), "y", (), intercept=True)
    assert theta[0] == pytest.approx(np.log(c), abs=1e-10)


def test_ppml_matches_irls_oracle():
    s = poisson_sample()
    w = rand_weights(s, 41)
    theta, _ = weighted_ppml(s, w, "y", ("x",), intercept=True)
    design = np.column_stack([np.ones(s.n_obs), s.column("x")])
    ref = oracles.irls_ppml(s.column("y"), design, w)
    assert np.max(np.abs(theta - ref)) < 1e-6
    moment = pb.ppml_moment(s.variable_names, "y", ("x",), intercept=True)
    resid = moment_mean(moment, s.variables, w, theta)
    assert np.max(np.abs(resid)) <= 1e-8


def test_ppml_all_zero_y(dyad_sample):
    s = pb.PolyadicSample(
        order=2, unit_labels=dyad_sample.unit_labels, index=dyad_sample.index,
        variables=np.column_stack([np.zeros(6), np.arange(6.0)]),
        variable_names=("y", "x"),
    )
    with pytest.raises(SolverError):
        weighted_ppml(s, pb.uniform_weights(s), "y", ("x",), intercept=True)


# ------------------------------------------------------------ moment rule


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("kind", ["mean", "ols", "ppml", "linear-iv"])
def test_builtin_moments_are_residual_times_instrument(kind, intercept):
    # every builtin is psi = e z with e = y - mu: fn, jacobian and the
    # (e, z) split against the formulas written out per estimator
    names = ("y", "a", "b", "c", "d")
    v = np.random.default_rng(15).standard_normal((40, 5))
    v[:, 0] = np.abs(v[:, 0])
    ones = [np.ones(40)] if intercept else []

    def design(*cols):
        return np.column_stack(ones + [v[:, list(cols)]])

    if kind == "mean":
        moment = pb.mean_moment(names, "c")
        y, r, z = v[:, 3], np.ones((40, 1)), np.ones((40, 1))
    elif kind == "linear-iv":
        moment = pb.linear_iv_moment(names, "y", ("a",), ("b", "c", "d"), intercept)
        y, r, z = v[:, 0], design(1), design(2, 3, 4)
    else:
        build = pb.ols_moment if kind == "ols" else pb.ppml_moment
        moment = build(names, "y", ("a", "b"), intercept)
        y, r, z = v[:, 0], design(1, 2), design(1, 2)
    assert (moment.name, moment.n_moments, moment.n_params) == (kind, z.shape[1], r.shape[1])
    theta = np.linspace(-0.4, 0.5, moment.n_params)
    mu = np.exp(r @ theta) if kind == "ppml" else r @ theta
    e = y - mu
    if kind == "ppml":
        jac = -(mu[:, None, None] * z[:, :, None] * r[:, None, :])
    else:
        jac = -z[:, :, None] * r[:, None, :]
    assert np.array_equal(moment.fn(v, theta), e[:, None] * z)
    assert np.array_equal(moment.jacobian(v, theta), jac)
    got_e, got_z = moment.residual_instrument(v, theta)
    assert np.array_equal(got_e, e) and np.array_equal(got_z, z)


@pytest.mark.parametrize("intercept", [False, True])
def test_linear_iv_needs_as_many_instruments_as_regressors(intercept):
    with pytest.raises(ParamError, match="at least as many instruments as regressors"):
        pb.linear_iv_moment(("y", "a", "b", "c"), "y", ("a", "b"), ("c",), intercept)
    s = random_dyadic_sample(np.random.default_rng(3), 4, columns=("y", "a", "b", "c"))
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("a", "b"), instruments=("c",),
        intercept=intercept,
    )
    with pytest.raises(ParamError, match="at least as many instruments as regressors"):
        pb.evaluate_estimator(spec, s, pb.uniform_weights(s))


@pytest.mark.parametrize("role", ["y", "x", "instruments"])
def test_linear_iv_kernel_rejects_an_unknown_column(role):
    s = random_dyadic_sample(np.random.default_rng(3), 4, columns=("y", "a", "b", "c"))
    columns = {"y": "y", "x": ("a",), "instruments": ("b", "c")}
    columns[role] = "nope" if role == "y" else ("nope",) + columns[role][1:]
    spec = pb.EstimatorSpec(kind="gmm", builtin_moment="linear-iv", **columns)
    with pytest.raises(DataError, match="unknown variable column 'nope'"):
        pb.evaluate_estimator(spec, s, pb.uniform_weights(s))


@pytest.mark.parametrize("kind", ["ols", "ppml"])
def test_builtin_gmm_moment_is_only_linear_iv(kind):
    # OLS and PPML are estimator kinds, each with its own block kernel
    with pytest.raises(ParamError, match=f'kind="{kind}"'):
        pb.EstimatorSpec(kind="gmm", builtin_moment=kind, y="y", x=("x",))
    with pytest.raises(ParamError, match="unknown builtin moment 'probit'"):
        pb.EstimatorSpec(kind="gmm", builtin_moment="probit", y="y", x=("x",))


# ------------------------------------------------------- centered weight matrix


def two_point_sample(values):
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.asarray(values, dtype=float)[:, None],
        variable_names=("y",),
    )


def test_centered_weight_matrix_unit_variance():
    s = two_point_sample([+1.0, -1.0])
    moment = pb.mean_moment(s.variable_names, "y")
    factor, ridged = pb.centered_weight_matrix(moment, s, pb.uniform_weights(s), np.array([0.0]))
    assert (factor @ factor.T)[0, 0] == pytest.approx(1.0, abs=1e-12) and not ridged


def test_centered_weight_matrix_constant_psi_singular():
    s = two_point_sample([2.0, 2.0])
    moment = pb.mean_moment(s.variable_names, "y")
    with pytest.raises(SingularWeightMatrix):
        pb.centered_weight_matrix(moment, s, pb.uniform_weights(s), np.array([0.0]))


def test_centered_weight_matrix_homogeneity():
    rng = np.random.default_rng(7)
    s = random_dyadic_sample(rng, 5, columns=("y",))
    base = pb.mean_moment(s.variable_names, "y")
    c = 3.0
    scaled = pb.MomentFunction("scaled", 1, 1, lambda v, t: c * base.fn(v, t))
    w = pb.uniform_weights(s)
    s1 = pb.centered_weight_matrix(base, s, w, np.array([0.0]))[0]
    s2 = pb.centered_weight_matrix(scaled, s, w, np.array([0.0]))[0]
    assert np.allclose(s2 @ s2.T, s1 @ s1.T / c**2, rtol=1e-12)


# ---------------------------------------------------------------------- GMM


def test_two_step_just_identified_equals_ols():
    rng = np.random.default_rng(8)
    s = random_dyadic_sample(rng, 6)
    w = rand_weights(s, 51)
    moment = pb.ols_moment(s.variable_names, "y", ("x",), intercept=True)
    theta, info = pb.gmm(moment, s, w)
    ref = weighted_ols(s, w, "y", ("x",), intercept=True)
    assert np.max(np.abs(theta - ref)) < 1e-10
    assert set(info) == {"iterations"}  # the Newton iterations of the moment root


def test_just_identified_nonlinear_root():
    # psi = x - exp(theta): root is log of the weighted mean
    rng = np.random.default_rng(9)
    s = random_dyadic_sample(rng, 5, columns=("x",))
    s = pb.PolyadicSample(
        order=2, unit_labels=s.unit_labels, index=s.index,
        variables=np.abs(s.variables) + 0.5, variable_names=("x",),
    )
    moment = pb.MomentFunction(
        "expmean", 1, 1, lambda v, t: (v[:, 0] - np.exp(t[0]))[:, None]
    )
    w = rand_weights(s, 61)
    theta, _ = pb.gmm(moment, s, w)
    m = moment_mean(moment, s.variables, w, theta)
    assert np.max(np.abs(m)) <= 1e-8
    assert theta[0] == pytest.approx(np.log(weighted_mean(s, w, "x")), abs=1e-9)


def test_two_step_matches_grid_oracle(iv_sample):
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
        instruments=("z1", "z2", "z3"),
    )
    moment = pb.build_moment(spec, iv_sample)
    variables = iv_sample.variables
    for b in range(3):
        w = rand_weights(iv_sample, 71, b)

        def obj_identity(t):
            m = moment_mean(moment, variables, w, np.array([t]))
            return float(m @ m)

        t1 = oracles.grid_golden_minimize(obj_identity, -5.0, 8.0)
        factor, _ = pb.centered_weight_matrix(moment, iv_sample, w, np.array([t1]))

        def obj_step2(t):
            r = factor.T @ moment_mean(moment, variables, w, np.array([t]))
            return float(r @ r)

        ref = oracles.grid_golden_minimize(obj_step2, -5.0, 8.0)
        theta, info = pb.gmm(moment, iv_sample, w, mode="two-step")
        assert abs(theta[0] - ref) < 1e-5
        assert info == {"weight_matrix_ridged": False}


def test_iterated_just_identified_single_iteration():
    rng = np.random.default_rng(10)
    s = random_dyadic_sample(rng, 6)
    w = rand_weights(s, 81)
    moment = pb.ols_moment(s.variable_names, "y", ("x",))
    theta, info = pb.gmm(moment, s, w, mode="iterated")
    assert info == {"iterations": 1, "objective_trace": []}
    assert np.allclose(theta, weighted_ols(s, w, "y", ("x",)), atol=1e-10)


def test_iterated_fixed_point_and_foc(iv_sample):
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
        instruments=("z1", "z2", "z3"),
    )
    moment = pb.build_moment(spec, iv_sample)
    w = rand_weights(iv_sample, 91)
    for style in ("centered", "acm"):
        theta, info = pb.gmm(moment, iv_sample, w, mode="iterated", weight_style=style)
        trace = info["objective_trace"]
        assert set(info) == {"iterations", "objective_trace"}
        assert len(trace) == info["iterations"] >= 1
        assert np.all(np.diff(trace) <= 1e-10)  # objective non-increasing
        reweight = pb.centered_weight_matrix if style == "centered" else pb.acm_weight_matrix
        factor, _ = reweight(moment, iv_sample, w, theta)
        # a round restarted from the fixed point moves less than the tolerance
        theta2, _ = pb.gauss_newton(moment, iv_sample, w, factor, init=theta)
        assert np.linalg.norm(theta2 - theta) < 1e-6
        m = moment_mean(moment, iv_sample.variables, w, theta)
        jac = pb.estimators.moment_mean_jacobian(moment, iv_sample.variables, w, theta)
        assert np.max(np.abs(jac.T @ factor @ (factor.T @ m))) <= 1e-6


def test_gmm_rejects_unknown_mode_and_weight_style(iv_sample):
    moment = pb.linear_iv_moment(iv_sample.variable_names, "y", ("r",), ("z1", "z2"))
    w = pb.uniform_weights(iv_sample)
    with pytest.raises(ParamError, match="unknown gmm mode"):
        pb.gmm(moment, iv_sample, w, mode="three-step")
    with pytest.raises(ParamError, match="weight style"):
        pb.gmm(moment, iv_sample, w, mode="iterated", weight_style="identity")


# --------------------------------------------------------------- gauss_newton


def test_gauss_newton_mean_moment(dyad_sample):
    w = rand_weights(dyad_sample, 101)
    moment = pb.mean_moment(dyad_sample.variable_names, "y")
    theta, _ = pb.gauss_newton(moment, dyad_sample, w)
    assert theta[0] == pytest.approx(weighted_mean(dyad_sample, w, "y"), abs=1e-10)


def test_gauss_newton_ppml_moment_matches_irls():
    # the just-identified PPML moment's root, with no limit patched
    s = poisson_sample(seed=12)
    x = pb.estimators.regressors(s, ("x",), intercept=True)
    moment = pb.ppml_moment(s.variable_names, "y", ("x",), intercept=True)
    for b in range(3):
        w = rand_weights(s, 111, b)
        theta, _ = pb.gauss_newton(moment, s, w)
        expected = oracles.irls_ppml(s.column("y"), x, w)
        assert np.all(np.abs(theta - expected) <= 1e-10 * np.abs(expected))


def test_gauss_newton_linear_closed_form():
    rng = np.random.default_rng(13)
    s = random_dyadic_sample(rng, 5)
    w = rand_weights(s, 121)
    moment = pb.ols_moment(s.variable_names, "y", ("x",))
    theta, iterations = pb.gauss_newton(moment, s, w)
    x, y = s.column("x"), s.column("y")
    ref = float((w * x * y).sum() / (w * x * x).sum())
    assert theta[0] == pytest.approx(ref, abs=1e-10)
    assert iterations == 1  # a linear moment's first step lands on its root


def square_moment(shift, analytic):
    # m = c - theta^2, c the weighted mean of y + shift: J = -2 theta is zero at
    # the zero start, whether or not c has a root
    def fn(variables, theta):
        return variables[:, :1] + shift - theta[0] ** 2

    def jacobian(variables, theta):
        return np.full((variables.shape[0], 1, 1), -2.0 * theta[0])

    return pb.MomentFunction("c-minus-square", 1, 1, fn, jacobian if analytic else None)


@pytest.mark.parametrize("analytic", [False, True], ids=["differences", "analytic"])
@pytest.mark.parametrize("shift", [-5.0, 5.0])
def test_gauss_newton_fails_where_the_jacobian_vanishes(dyad_sample, shift, analytic):
    moment = square_moment(shift, analytic)
    spec = pb.EstimatorSpec(kind="gmm", moment=moment)
    rows = np.stack([rand_weights(dyad_sample, 141, b) for b in range(4)])
    theta, errors, infos = block_kernel(spec, dyad_sample)[1](rows)
    assert sorted(errors) == [0, 1, 2, 3] and np.all(np.isnan(theta)) and infos == {}
    assert {str(e) for e in errors.values()} == {"Gauss-Newton Jacobian is rank deficient"}
    if shift < 0:  # no root: a start beside the stationary point fails too
        with pytest.raises(SolverError):
            pb.gauss_newton(moment, dyad_sample, rows[0], init=[0.3])


def test_gauss_newton_rejects_a_small_step_away_from_the_root(dyad_sample):
    # a Jacobian 1e13 too steep makes the first step tiny: it is no root
    def jacobian(variables, theta):
        return np.full((variables.shape[0], 1, 1), -1e13)

    mean = pb.mean_moment(dyad_sample.variable_names, "y")
    moment = pb.MomentFunction("steep-mean", 1, 1, mean.fn, jacobian)
    with pytest.raises(SolverError, match="moment root not found"):
        pb.gauss_newton(moment, dyad_sample, rand_weights(dyad_sample, 151))


# ---------------------------------------------------------- stacking + misc


def test_stacked_system_matches_two_step(iv_sample):
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
        instruments=("z1", "z2", "z3"),
    )
    moment = pb.build_moment(spec, iv_sample)
    stacked = oracles.stacked_two_step_moment(moment)
    for b in range(3):
        w = rand_weights(iv_sample, 131, b)
        theta1, info = pb.gmm(moment, iv_sample, w, mode="one-step")
        assert info == {}
        init = oracles.stacked_init(moment, iv_sample, w, theta_init=theta1)
        root, _ = pb.gauss_newton(stacked, iv_sample, w, init=init)
        theta2, _ = pb.gmm(moment, iv_sample, w)
        assert abs(root[moment.n_params] - theta2[0]) < 1e-6


def test_analytic_jacobians_match_finite_differences():
    rng = np.random.default_rng(14)
    s = random_dyadic_sample(rng, 5)
    iv = random_dyadic_sample(rng, 5, columns=("y", "r", "z1", "z2"))
    theta2 = np.array([0.3, -0.7])
    for sample, moment in (
        (s, pb.ols_moment(s.variable_names, "y", ("x",), intercept=True)),
        (s, pb.ppml_moment(s.variable_names, "y", ("x",), intercept=True)),
        (iv, pb.linear_iv_moment(iv.variable_names, "y", ("r",), ("z1", "z2"), intercept=True)),
    ):
        bare = pb.MomentFunction(moment.name, moment.n_moments, moment.n_params, moment.fn)
        analytic = moment.jacobian(sample.variables, theta2)
        numeric = observation_jacobian(bare, sample.variables, theta2)
        assert np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic))) < 1e-5
        w = rand_weights(sample, 141)
        analytic = moment_mean_jacobian(moment, sample.variables, w, theta2)
        numeric = moment_mean_jacobian(bare, sample.variables, w, theta2)
        assert np.max(np.abs(analytic - numeric) / (1.0 + np.abs(analytic))) < 1e-5


def test_gmm_point_estimate_converges_on_hard_iv_sample():
    # With finite-difference Jacobians, per-row Gauss-Newton with an absolute
    # gradient stop stalled here; the analytic Jacobian reaches the minimum.
    iv = overidentified_iv_sample(seed=8618596000576588736, n=30)
    for mode in ("two-step", "iterated"):
        spec = pb.EstimatorSpec(
            kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
            instruments=("z1", "z2", "z3"), gmm_mode=mode,
        )
        theta, _ = pb.evaluate_estimator(spec, iv, pb.uniform_weights(iv))
        assert np.all(np.isfinite(theta))
        assert theta[0] == pytest.approx(1.39829223, abs=1e-6)


def test_permutation_invariance_of_gmm(iv_sample):
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
        instruments=("z1", "z2", "z3"),
    )
    perm = list(range(iv_sample.n_units))[::-1]
    relabeled = oracles.relabeled(iv_sample, perm)
    t1, _ = pb.evaluate_estimator(spec, iv_sample, pb.uniform_weights(iv_sample))
    t2, _ = pb.evaluate_estimator(spec, relabeled, pb.uniform_weights(relabeled))
    assert np.allclose(t1, t2, atol=1e-8)
