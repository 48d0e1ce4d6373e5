"""The closed-form linear-IV GMM kernel (``linear_iv.linear_iv_gmm``): its
draws against the closed-form oracle and per-row ``gmm``, and its failure
paths, each crafted row alone and inside a block."""

import dataclasses
import warnings

import numpy as np
import pytest

import polyboot as pb
from polyboot import bootstrap, estimators, linear_iv, weights
from polyboot.errors import DegenerateDraw, SingularDesign, SingularWeightMatrix, SolverError
from polyboot.fixtures import overidentified_iv_sample
from conftest import row_of
import oracles

IV = dict(kind="gmm", builtin_moment="linear-iv", y="y", x=("r",), instruments=("z1", "z2", "z3"))
SINGULAR = "SingularDesign: linear-IV GMM least-squares system is numerically singular"
NOT_FINITE = "SolverError: Gauss-Newton objective or Jacobian is not finite"
# per-row Gauss-Newton on these crafted rows, which the kernel solves: with
# MAX_ITER = 0 it takes no step and fails; y and r near 1e7 stalled it when it
# stopped on an absolute gradient bound, and its relative stop solves them
GAUSS_NEWTON = {"first-order conditions": "SolverError: Gauss-Newton did not converge in 0 steps",
                "stalled line search": None}
MODES = [("one-step", "centered"), ("two-step", "centered"), ("two-step", "acm"),
         ("iterated", "acm"), ("iterated", "centered")]


def outcome(evaluate):
    """``(theta, info)``, or the reason a failed draw records."""
    try:
        return evaluate()
    except (SolverError, SingularWeightMatrix, SingularDesign) as exc:
        return f"{type(exc).__name__}: {exc}"


def per_row(spec, sample, w):
    moment = pb.build_moment(spec, sample)
    return outcome(lambda: pb.gmm(moment, sample, w, spec.gmm_mode, spec.weight_style))


def user_moment(spec, sample):
    """``spec`` with its builtin moment passed as a user moment, which runs
    per-row ``gmm``."""
    return dataclasses.replace(spec, builtin_moment=None, moment=pb.build_moment(spec, sample))


def kernel(spec, sample, rows):
    """The weight-row kernel's result for the weight rows (R, N), row by row."""
    return row_of(linear_iv.linear_iv_gmm(spec, sample)[0](rows))


def sparse_iv_sample(n=30):
    """``overidentified_iv_sample(n)`` on every fifth dyad: N = 174 < n**2 / 4,
    so its draws take the weight-row kernel."""
    s = overidentified_iv_sample(n=n)
    kept = np.arange(0, s.n_obs, 5)
    return pb.PolyadicSample(2, s.unit_labels, s.index[kept], s.variables[kept], s.variable_names)


def no_per_row_gmm(monkeypatch):
    """Make ``evaluate_estimator`` fail if it reaches the per-row ``gmm``."""
    def per_row_gmm(*args, **kwargs):
        raise AssertionError("the per-row gmm was called")

    monkeypatch.setattr(estimators, "gmm", per_row_gmm)


def assert_same_outcome(got, expected, tol):
    """Failures give the same reason; estimates agree to ``tol`` relative
    with the same info, objective traces to 1e-12 relative."""
    assert isinstance(got, str) == isinstance(expected, str), (got, expected)
    if isinstance(expected, str):
        assert got == expected
        return
    (theta, info), (theta_ref, info_ref) = got, expected
    assert np.all(np.abs(theta - theta_ref) <= tol * np.abs(theta_ref))
    assert set(info) == set(info_ref)
    for key, value in info.items():
        if key == "objective_trace":
            assert np.allclose(value, info_ref[key], rtol=1e-12, atol=0)
        else:
            assert value == info_ref[key]


def assert_oracle(spec, sample, w, theta, info):
    """The draw is within 1e-12 of ``oracles.linear_gmm`` with as many rounds."""
    y, r = sample.column("y"), estimators.regressors(sample, spec.x, spec.intercept)
    z = estimators.regressors(sample, spec.instruments, spec.intercept)
    expected, rounds = oracles.linear_gmm(y, r, z, w, spec.gmm_mode, spec.weight_style)
    assert np.all(np.abs(theta - expected) <= 1e-12 * np.abs(expected))
    if spec.gmm_mode == "iterated":
        assert info["iterations"] == rounds


@pytest.mark.parametrize("scheme", ["bayes", "pigeonhole", "prior"])
@pytest.mark.parametrize("mode, style", MODES)
def test_batched_linear_iv_equals_per_row_gmm_and_oracle(scheme, mode, style):
    spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style)
    tol = 1e-12
    # the factorized form on the two dense samples, the weight-row kernel on the sparse one
    samples = [(overidentified_iv_sample(n=12), 40, True),
               (overidentified_iv_sample(n=30), 16, True), (sparse_iv_sample(), 16, False)]
    for s, n_draws, dense in samples:
        alpha = s.n_units / 2 if scheme == "prior" else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "BLOCK_BYTES", 8 * 7 * weights.ROW_FLOATS * s.n_obs)
            built = estimators.block_kernel(spec, s)
            linear = built[2]
            factorized = linear is not None and weights.dense_features(s, linear[0]) is not None
            assert factorized == dense
            if not dense:
                assert bootstrap._block_estimator(s, n_draws, built)[0] == 7  # blocks of 7 draws
            res = pb.run_bootstrap(s, spec, scheme, n_draws=n_draws, seed=9, alpha=alpha)
        draws, failures = [], []
        for b in range(n_draws):
            try:
                w = pb.weights_for_draw(s, scheme, 9, b, alpha=alpha)
            except DegenerateDraw as exc:
                failures.append((b, f"DegenerateDraw: {exc}"))
                continue
            draws.append((w, per_row(spec, s, w)))
        assert res.failures == tuple(failures) and len(res.draws) == len(draws)
        for theta, info, (w, expected) in zip(res.draws, res.draw_metadata, draws):
            assert_oracle(spec, s, w, theta, info)
            assert_same_outcome((theta, info), expected, tol)


def test_degenerate_rows_keep_their_place_in_a_block(iv_sample):
    spec = pb.EstimatorSpec(**IV)
    built = estimators.block_kernel(spec, iv_sample)
    _, for_block = bootstrap._block_estimator(iv_sample, 7, built)
    log_units = np.zeros((7, iv_sample.n_units))  # equal unit values: uniform weights
    log_units[[2, 5]] = -np.inf
    failed = {2: "an earlier reason"}
    row = row_of(for_block(log_units, None, failed))
    assert failed == {2: "an earlier reason", 5: "every observed tuple has zero weight"}
    expected = per_row(spec, iv_sample, pb.uniform_weights(iv_sample))
    for r in (0, 1, 3, 4, 6):
        assert_same_outcome(row(r), expected, 1e-12)


@pytest.mark.parametrize(
    "mode, style, intercept, seed, n_marked",
    [("two-step", "centered", False, 1, 72), ("two-step", "centered", False, 2, 71),
     ("iterated", "acm", True, 1, 177), ("iterated", "acm", True, 2, 184)],
)
def test_cancelling_rows_are_solved_from_their_weight_rows(mode, style, intercept, seed, n_marked):
    # prior alpha = 0.05 piles each draw's weight onto a few dyads, where the
    # expanded e^2 = yc^2 - 2 d yc r + d^2 r^2 of the factorized form cancels:
    # unmarked, two-step draws at seed 2 moved by up to 3e-9 relative, and
    # iterated acm with an intercept failed 3 to 4 rows that the weight rows solve
    s, n_draws = overidentified_iv_sample(n=12), 200
    spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style, intercept=intercept)
    rows = pb.weights_for_block(s, "prior", seed, 0, n_draws, 0.05)  # no draw is degenerate
    features, finish = linear_iv.linear_iv_gmm(spec, s)[1]
    draws = weights.log_draws(s, "prior", seed, 0, n_draws, 0.05, {})
    sums = weights.product_sums(s, weights.dense_features(s, features), *draws, {})
    marked = []
    finish(sums, lambda cancelled: marked.extend(cancelled) or rows[cancelled])
    assert len(marked) == n_marked  # the rows whose diagonal keeps < CANCELLATION of its terms
    blocks = bootstrap._block_estimator(s, n_draws, estimators.block_kernel(spec, s))
    got = row_of(bootstrap._run_draws(s, "prior", n_draws, seed, 0.05, None, blocks))
    alone, block = kernel(spec, s, rows[marked]), kernel(spec, s, rows)
    for b in range(n_draws):
        expected, result = outcome(lambda: block(b)), outcome(lambda: got(b))
        if b not in marked:
            assert_same_outcome(result, expected, 1e-10)
            continue
        # the weight-row kernel's result for the marked rows, bit for bit; their
        # near-singular weight matrices let the objective traces move with the
        # rows solved beside them
        assert repr(result) == repr(outcome(lambda: alone(marked.index(b))))
        assert isinstance(result, str) == isinstance(expected, str)
        if isinstance(result, str):
            assert result == expected
        else:
            assert np.all(np.abs(result[0] - expected[0]) <= 1e-10 * np.abs(expected[0]))



def test_features_are_built_only_where_the_dense_path_reads_them(monkeypatch):
    spec = pb.EstimatorSpec(**IV, gmm_mode="iterated", weight_style="centered")
    built, linear_iv_gmm = [], linear_iv.linear_iv_gmm

    def counted(spec, sample):
        solve, (features, finish) = linear_iv_gmm(spec, sample)
        return solve, (lambda: built.append(sample) or features(), finish)

    monkeypatch.setattr(linear_iv, "linear_iv_gmm", counted)
    dense, sparse = overidentified_iv_sample(n=12), sparse_iv_sample()
    for s in (dense, sparse):
        pb.evaluate_estimator(spec, s, pb.uniform_weights(s))
    pb.run_bootstrap(sparse, spec, "bayes", n_draws=8, seed=1)
    assert built == []  # the point estimates and the sparse sample's weight rows
    pb.run_bootstrap(dense, spec, "bayes", n_draws=8, seed=1)
    assert built == [dense]

def crafted_sample():
    """``overidentified_iv_sample(n=4)`` whose first two dyads have y = 0,
    r = 1 and -1, and the same instruments: with half the weight on each,
    A = sum w z r' is zero. On its third dyad r = 1 and z = (1, 0, 0): with
    all the weight there, theta fits it exactly."""
    s = overidentified_iv_sample(n=4)
    v = s.variables.copy()
    v[0], v[1], v[2] = [0, 1, 1, 2, 3], [0, -1, 1, 2, 3], [0.5, 1, 1, 0, 0]
    return dataclasses.replace(s, variables=v)


def failure_case(name, monkeypatch):
    """(sample, spec, weight rows, expected reason per row or None), with the
    solver limits the case needs patched in."""
    s = crafted_sample()
    n = s.n_obs
    uniform, tilted = np.full(n, 1 / n), np.arange(n) / (n * (n - 1) / 2)
    pair, one = np.zeros((2, n))
    pair[:2], one[2] = 0.5, 1.0
    if name == "singular least squares":
        return s, pb.EstimatorSpec(**IV), [pair, uniform], [SINGULAR, None]
    if name == "first-order conditions":
        monkeypatch.setattr(estimators, "MAX_ITER", 0)
        return s, pb.EstimatorSpec(**IV), [uniform, tilted], [None] * 2
    if name == "stalled line search":
        # y and r near 1e7: the gradient's rounding is far above 1e-8
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, :2] *= 1e7
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 3))
        return s, pb.EstimatorSpec(**IV), rows, [None] * 3
    if name in ("non-finite covariance", "non-finite acm covariance"):
        # y near 1e160: the squared residuals overflow
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, 0] *= 1e160
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 3))
        reason = "SingularWeightMatrix: non-finite moment covariance"
        # acm: the covariance and its terms' magnitudes are both inf, so inf <= inf
        mode = dict(gmm_mode="iterated", weight_style="acm") if "acm" in name else {}
        return s, pb.EstimatorSpec(**IV, **mode), rows, [reason] * 3
    if name == "no positive eigenvalue":
        # theta fits the one dyad exactly, so its estimate minimizes every
        # weighted objective: the kernel keeps it, where per-row gmm fails
        exact_fit = (np.array([0.5]), {"weight_matrix_ridged": True})
        return s, pb.EstimatorSpec(**IV), [one, uniform], [exact_fit, None]
    if name == "ridged":
        # an instrument that is zero everywhere: its covariance row is zero
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, 4] = 0
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 4))
        return s, pb.EstimatorSpec(**IV), rows, [None] * 4
    assert name == "iter_max"
    monkeypatch.setattr(estimators, "ITER_MAX", 1)
    spec = pb.EstimatorSpec(**IV, gmm_mode="iterated")
    reason = "SolverError: iterated GMM did not reach a fixed point"
    return s, spec, [uniform, tilted], [reason] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # per-row gmm on y near 1e160 and 1e7
@pytest.mark.parametrize(
    "name",
    ["singular least squares", "non-finite covariance", "non-finite acm covariance",
     "no positive eigenvalue", "ridged", "first-order conditions", "stalled line search",
     "iter_max"],
)
def test_crafted_rows_fail_as_they_would_alone(monkeypatch, name):
    s, spec, rows, reasons = failure_case(name, monkeypatch)
    rows = np.array(rows + [np.full(s.n_obs, np.nan)])  # a degenerate draw's row
    reasons = reasons + [SINGULAR]
    block = kernel(spec, s, rows)
    for i, (w, reason) in enumerate(zip(rows, reasons)):
        alone = kernel(spec, s, rows[i : i + 1])
        for got in (outcome(lambda: block(i)), outcome(lambda: alone(0))):
            if isinstance(reason, tuple):
                assert_same_outcome(got, reason, 1e-15)
            elif reason is not None:
                assert got == reason
            elif name in GAUSS_NEWTON:
                assert_oracle(spec, s, w, *got)
            else:
                assert_same_outcome(got, per_row(spec, s, w), 1e-12)
                assert name != "ridged" or got[1] == {"weight_matrix_ridged": True}
    if name == "iter_max":  # per-row gmm fails alike
        for w, reason in zip(rows[:-1], reasons):
            assert per_row(spec, s, w) == reason
    if name == "no positive eigenvalue":
        no_positive = "SingularWeightMatrix: moment covariance has no positive eigenvalue"
        assert per_row(spec, s, rows[0]) == no_positive
    if name == "non-finite covariance":  # per-row Gauss-Newton's objective overflows first
        for w in rows[:-1]:
            assert per_row(spec, s, w) == NOT_FINITE
    if name in GAUSS_NEWTON:  # user moments run per-row Gauss-Newton
        user = user_moment(spec, s)
        for w in rows[:-1]:
            got = outcome(lambda: pb.evaluate_estimator(user, s, w))
            if GAUSS_NEWTON[name]:
                assert got == GAUSS_NEWTON[name]
            else:
                assert_same_outcome(got, kernel(spec, s, w[None])(0), 1e-12)


def test_a_singular_weight_matrix_fails_its_row_without_a_warning(monkeypatch):
    # invert_psd marks row 1 of the block singular and leaves its factor infinite
    s = overidentified_iv_sample(n=5)
    solve = linear_iv.linear_iv_gmm(pb.EstimatorSpec(**IV), s)[0]
    rows = pb.weights_for_block(s, "bayes", 3, 0, 3)
    theta, errors, infos = solve(rows)
    invert_psd = linear_iv.invert_psd

    def one_row_bad(cov):
        factor, ridged, bad = invert_psd(cov)
        factor[1], bad[1] = np.inf, SingularWeightMatrix("marked")
        return factor, ridged, bad

    monkeypatch.setattr(linear_iv, "invert_psd", one_row_bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_theta, got_errors, got_infos = solve(rows)
    assert errors == {} and list(got_errors) == [1] and str(got_errors[1]) == "marked"
    assert isinstance(got_errors[1], SingularWeightMatrix)
    assert np.array_equal(got_theta[[0, 2]], theta[[0, 2]])
    assert all(got_infos[r] == infos[r] for r in (0, 2))


def test_a_covariance_whose_floor_underflows_has_no_positive_eigenvalue():
    # a centered covariance that is rounding near the subnormals: its largest
    # eigenvalue 3e-314 floors at 0, which left its factor infinite and
    # _argmin's product invalid (two-step, "missing", prior 0.01, n = 3, seed 500)
    cov = np.stack([np.eye(3), np.diag([-4.9e-32, 0.0, 3.3e-314])])
    factor, _, bad = linear_iv.invert_psd(cov)
    assert list(bad) == [1] and isinstance(bad[1], SingularWeightMatrix)
    assert str(bad[1]) == "moment covariance has no positive eigenvalue"
    assert np.array_equal(factor[0], np.eye(3))


def test_duplicated_instruments_solve_alike_alone_and_in_a_block():
    # z3 = z2: the centered covariance is singular and the weight matrix
    # ridged, which left Gauss-Newton's outcome to rounding
    s = overidentified_iv_sample(n=5)
    v = s.variables.copy()
    v[:, 4] = v[:, 3]
    s = dataclasses.replace(s, variables=v)
    spec = pb.EstimatorSpec(**IV)
    rows = pb.weights_for_block(s, "bayes", 3, 0, 4)
    block = kernel(spec, s, rows)
    for i in range(len(rows)):
        got, alone = outcome(lambda: block(i)), outcome(lambda: kernel(spec, s, rows[i : i + 1])(0))
        assert not isinstance(got, str) and not isinstance(alone, str), (got, alone)
        assert got[1] == alone[1] == {"weight_matrix_ridged": True}
        # the ridged direction carries up to 1e12 times the others' weight;
        # through the factor S'A its near-zero components stay near zero
        assert np.abs(got[0] - alone[0]) <= 1e-12 * np.abs(alone[0])


@pytest.mark.parametrize("mode", ["one-step", "two-step"])
def test_uncentered_columns_with_an_intercept_solve_to_their_conditioning(mode):
    # with an intercept, a regressor and instruments 60 standard deviations
    # from zero give A = sum w z r' a condition number above 1e6, so A'A's
    # passes COND_LIMIT; the kernel solves S'A d = S'b and never forms A'A
    s = overidentified_iv_sample(n=6)
    v = s.variables.copy()
    v[:, 1:] += 60 * v[:, 1:].std(axis=0)
    s = dataclasses.replace(s, variables=v)
    spec = pb.EstimatorSpec(**IV, intercept=True, gmm_mode=mode)
    y, r = s.column("y"), estimators.regressors(s, spec.x, True)
    z = estimators.regressors(s, spec.instruments, True)
    assert np.linalg.cond(z.T @ r) > 1e6
    rows = pb.weights_for_block(s, "bayes", 3, 0, 3)
    block = kernel(spec, s, rows)
    for i, w in enumerate(rows):
        theta, _ = block(i)
        expected = oracles.exact_linear_gmm(y, r, z, w, mode)
        assert np.all(np.abs(theta - expected) <= 1e-8 * np.abs(expected))
        got, _ = per_row(spec, s, w)
        assert np.all(np.abs(got - expected) <= 1e-8 * np.abs(expected))


@pytest.mark.parametrize("shift", [40, 60, 80, 100])
def test_user_moment_far_from_zero_reaches_the_exact_minimizer(shift):
    # a stop on an absolute gradient bound left per-row two-step GMM up to
    # 9.4e-7 from the minimizer here, or failed the row; the step stop is
    # relative to theta
    s = overidentified_iv_sample(n=8)
    v = s.variables.copy()
    v[:, 1:] += shift * v[:, 1:].std(axis=0)
    s = dataclasses.replace(s, variables=v)
    spec = pb.EstimatorSpec(**IV, intercept=True)
    y, r = s.column("y"), estimators.regressors(s, spec.x, True)
    z = estimators.regressors(s, spec.instruments, True)
    user = user_moment(spec, s)
    for w in pb.weights_for_block(s, "bayes", 3, 0, 3):
        theta, _ = pb.evaluate_estimator(user, s, w)
        expected = oracles.exact_linear_gmm(y, r, z, w)
        assert np.all(np.abs(theta - expected) <= 1e-8 * np.abs(expected))


def test_point_estimate_is_the_kernels_one_row_case(iv_sample):
    for mode, style in MODES:
        spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style)
        w = pb.uniform_weights(iv_sample)
        theta, info = pb.evaluate_estimator(spec, iv_sample, w)
        row = kernel(spec, iv_sample, w[None])
        assert np.array_equal(theta, row(0)[0]) and info == row(0)[1]
        assert_oracle(spec, iv_sample, w, theta, info)
        assert_same_outcome((theta, info), per_row(spec, iv_sample, w), 1e-12)


@pytest.mark.parametrize("mode, style", MODES)
def test_just_identified_iv_takes_the_kernel_and_user_moments_run_per_row(
    monkeypatch, iv_sample, mode, style
):
    just = pb.EstimatorSpec(**{**IV, "instruments": ("z1",)}, gmm_mode=mode, weight_style=style)
    rows = pb.weights_for_block(iv_sample, "bayes", 5, 0, 12)
    expected = [per_row(just, iv_sample, w) for w in rows]
    no_per_row_gmm(monkeypatch)
    res = pb.run_bootstrap(iv_sample, just, "bayes", n_draws=12, seed=5)
    assert not res.failures
    for theta, info, (theta_ref, info_ref) in zip(res.draws, res.draw_metadata, expected):
        assert np.all(np.abs(theta - theta_ref) <= 1e-10 * np.abs(theta_ref))
        assert info == info_ref
    user = user_moment(pb.EstimatorSpec(**IV), iv_sample)
    with pytest.raises(AssertionError, match="the per-row gmm was called"):
        pb.evaluate_estimator(user, iv_sample, pb.uniform_weights(iv_sample))


def test_wide_specs_take_the_kernel(monkeypatch):
    # one regressor and 13 instruments, each with an intercept: p l = 3 * 14
    # on 870 rows, past the 4 MB of quartic features that kept such a spec
    # on the per-row path
    s = overidentified_iv_sample(n=30, extra=10)
    spec = pb.EstimatorSpec(**{**IV, "instruments": s.variable_names[2:]}, intercept=True)
    no_per_row_gmm(monkeypatch)
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=3, seed=4)
    assert not res.failures
    for b, info in enumerate(res.draw_metadata):
        w = pb.weights_for_draw(s, "bayes", 4, b)
        assert_oracle(spec, s, w, res.draws[b], info)
        assert_same_outcome((res.draws[b], info), per_row(spec, s, w), 1e-12)


@pytest.mark.parametrize("intercept", [False, True])
def test_two_step_acm_is_iterated_acm_on_both_kernel_forms(iv_sample, intercept):
    # iterated acm keeps round 1's minimizer, and two-step acm is that round
    two, iterated = (pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style="acm", intercept=intercept)
                     for mode in ("two-step", "iterated"))
    rows = pb.weights_for_block(iv_sample, "bayes", 6, 0, 10)

    def both_forms(spec):
        solve, (features, finish) = linear_iv.linear_iv_gmm(spec, iv_sample)
        return solve(rows), finish(rows @ features(), lambda redo: rows[redo])

    for (theta, errors, infos), (theta_it, errors_it, infos_it) in zip(
        both_forms(two), both_forms(iterated)
    ):
        assert errors == errors_it == {} and np.array_equal(theta, theta_it)
        assert infos == {r: {"weight_matrix_ridged": False} for r in range(len(rows))}
        assert all(info["iterations"] == 2 for info in infos_it.values())
        for w, t in zip(rows, theta):
            per_row_theta, _ = per_row(two, iv_sample, w)
            assert np.all(np.abs(per_row_theta - t) <= 1e-12 * np.abs(t))
    # the point estimate: two-step acm is no longer two-step centered
    w = pb.uniform_weights(iv_sample)
    centered = dataclasses.replace(two, weight_style="centered")
    theta = pb.evaluate_estimator(two, iv_sample, w)[0]
    assert np.array_equal(theta, pb.evaluate_estimator(iterated, iv_sample, w)[0])
    assert not np.array_equal(theta, pb.evaluate_estimator(centered, iv_sample, w)[0])


@pytest.mark.parametrize("style", ["acm", "centered"])
def test_an_exact_fit_is_an_iterated_fixed_point(style):
    # the "no positive eigenvalue" row: all the weight on a dyad that the
    # one-step estimate fits exactly, where every weighted objective is 0
    s = crafted_sample()
    one = np.zeros(s.n_obs)
    one[2] = 1.0
    rows = np.array([np.full(s.n_obs, 1 / s.n_obs), one])
    spec = pb.EstimatorSpec(**IV, gmm_mode="iterated", weight_style=style)
    expected = (np.array([0.5]), {"iterations": 1, "objective_trace": [0.0]})
    for got in (kernel(spec, s, rows)(1), kernel(spec, s, rows[1:])(0)):
        assert_same_outcome(got, expected, 1e-15)
