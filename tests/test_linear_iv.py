"""The closed-form linear-IV GMM kernel (``linear_iv.linear_iv_gmm``): its
draws against the closed-form oracle and per-row ``gmm``, and its failure
paths, each crafted row alone and inside a block."""

import dataclasses

import numpy as np
import pytest

import polyboot as pb
from polyboot import bootstrap, estimators, linear_iv, weights
from polyboot.errors import DegenerateDraw, SingularDesign, SingularWeightMatrix, SolverError
from polyboot.fixtures import overidentified_iv_sample
import oracles

IV = dict(kind="gmm", builtin_moment="linear-iv", y="y", x=("r",), instruments=("z1", "z2", "z3"))
SINGULAR = "SingularDesign: linear-IV GMM least-squares system is numerically singular"
NOT_MINIMIZED = "SolverError: GMM minimization did not reach the first-order conditions"
# per-row Gauss-Newton fails these crafted rows short of its first-order
# conditions: with max_iter = 0 steps, and with its line search stalled
GAUSS_NEWTON = ("first-order conditions", "stalled line search")
MODES = [("one-step", "centered"), ("two-step", "centered"), ("iterated", "acm"),
         ("iterated", "centered")]


def outcome(evaluate):
    """``(theta, info)``, or the reason a failed draw records."""
    try:
        return evaluate()
    except (SolverError, SingularWeightMatrix, SingularDesign) as exc:
        return f"{type(exc).__name__}: {exc}"


def per_row(spec, sample, w):
    moment = pb.build_moment(spec, sample)
    return outcome(
        lambda: pb.gmm(
            moment, sample, pb.ObservationWeights(w), spec.settings, spec.gmm_mode,
            spec.weight_style,
        )
    )


def user_moment(spec, sample):
    """``spec`` with its builtin moment passed as a user moment, which runs
    per-row ``gmm``."""
    return dataclasses.replace(spec, builtin_moment=None, moment=pb.build_moment(spec, sample))


def kernel(spec, sample, rows):
    """The kernel's ``row`` function for the weight rows (R, N)."""
    return linear_iv.linear_iv_gmm(spec, sample)(rows)


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
    # per-row iterated centered rounds may end on either of two starts whose
    # objectives tie to rounding, so per-row draws agree to its tolerance
    tol = 1e-8 if (mode, style) == ("iterated", "centered") else 1e-12
    for n, n_draws in ((12, 40), (30, 16)):
        s = overidentified_iv_sample(n=n)
        alpha = s.n_units / 2 if scheme == "prior" else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "BLOCK_BYTES", 8 * 7 * linear_iv.IV_ROW_FLOATS * s.n_obs)
            assert bootstrap._block_estimator(s, spec, n_draws)[0] == 7  # blocks of 7 draws
            res = pb.run_bootstrap(s, spec, scheme, n_draws=n_draws, seed=9, alpha=alpha)
        draws, failures = [], []
        for b in range(n_draws):
            try:
                w = pb.weights_for_draw(s, scheme, 9, b, alpha=alpha).weights
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
    _, for_block = bootstrap._block_estimator(iv_sample, spec, 7)
    log_units = np.zeros((7, iv_sample.n_units))  # equal unit values: uniform weights
    log_units[[2, 5]] = -np.inf
    failed = {2: "an earlier reason"}
    row = for_block(log_units, None, failed)
    assert failed == {2: "an earlier reason", 5: "every observed tuple has zero weight"}
    expected = per_row(spec, iv_sample, pb.uniform_weights(iv_sample).weights)
    for r in (0, 1, 3, 4, 6):
        assert_same_outcome(row(r), expected, 1e-12)


def crafted_sample():
    """``overidentified_iv_sample(n=4)`` whose first two dyads have y = 0,
    r = 1 and -1, and the same instruments: with half the weight on each,
    A = sum w z r' is zero. On its third dyad r = 1 and z = (1, 0, 0): with
    all the weight there, theta fits it exactly."""
    s = overidentified_iv_sample(n=4)
    v = s.variables.copy()
    v[0], v[1], v[2] = [0, 1, 1, 2, 3], [0, -1, 1, 2, 3], [0.5, 1, 1, 0, 0]
    return dataclasses.replace(s, variables=v)


def failure_case(name):
    """(sample, spec, weight rows, expected reason per row or None)."""
    s = crafted_sample()
    n = s.n_obs
    uniform, tilted = np.full(n, 1 / n), np.arange(n) / (n * (n - 1) / 2)
    pair, one = np.zeros((2, n))
    pair[:2], one[2] = 0.5, 1.0
    if name == "singular least squares":
        return s, pb.EstimatorSpec(**IV), [pair, uniform], [SINGULAR, None]
    if name == "first-order conditions":
        spec = pb.EstimatorSpec(**IV, settings=pb.SolverSettings(max_iter=0))
        return s, spec, [uniform, tilted], [None] * 2
    if name == "stalled line search":
        # y and r near 1e7: the gradient's rounding stays far above foc_tol
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, :2] *= 1e7
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 3))
        return s, pb.EstimatorSpec(**IV), rows, [None] * 3
    if name == "non-finite covariance":
        # y near 1e160: the squared residuals overflow
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, 0] *= 1e160
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 3))
        reason = "SingularWeightMatrix: non-finite moment covariance"
        return s, pb.EstimatorSpec(**IV), rows, [reason] * 3
    if name == "no positive eigenvalue":
        spec = pb.EstimatorSpec(**IV)
        reason = "SingularWeightMatrix: moment covariance has no positive eigenvalue"
        return s, spec, [one, uniform], [reason, None]
    if name == "ridged":
        # an instrument that is zero everywhere: its covariance row is zero
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, 4] = 0
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 4))
        return s, pb.EstimatorSpec(**IV), rows, [None] * 4
    assert name == "iter_max"
    spec = pb.EstimatorSpec(**IV, gmm_mode="iterated", settings=pb.SolverSettings(iter_max=1))
    reason = "SolverError: iterated GMM did not reach a fixed point"
    return s, spec, [uniform, tilted], [reason] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # per-row gmm on y near 1e160 and 1e7
@pytest.mark.parametrize(
    "name",
    ["singular least squares", "non-finite covariance", "no positive eigenvalue", "ridged",
     "first-order conditions", "stalled line search", "iter_max"],
)
def test_crafted_rows_fail_as_they_would_alone(name):
    s, spec, rows, reasons = failure_case(name)
    rows = np.array(rows + [np.full(s.n_obs, np.nan)])  # a degenerate draw's row
    reasons = reasons + [SINGULAR]
    block = kernel(spec, s, rows)
    for i, (w, reason) in enumerate(zip(rows, reasons)):
        alone = kernel(spec, s, rows[i : i + 1])
        for got in (outcome(lambda: block(i)), outcome(lambda: alone(0))):
            if reason is not None:
                assert got == reason
            elif name in GAUSS_NEWTON:
                assert_oracle(spec, s, w, *got)
            else:
                assert_same_outcome(got, per_row(spec, s, w), 1e-12)
                assert name != "ridged" or got[1] == {"weight_matrix_ridged": True}
    if name in ("no positive eigenvalue", "iter_max"):  # per-row gmm fails alike
        for w, reason in zip(rows[:-1], reasons):
            assert reason is None or per_row(spec, s, w) == reason
    if name == "non-finite covariance":  # per-row Gauss-Newton's objective overflows first
        for w in rows[:-1]:
            assert per_row(spec, s, w) == NOT_MINIMIZED
    if name in GAUSS_NEWTON:  # user moments keep per-row Gauss-Newton, which fails these rows
        user = user_moment(spec, s)
        for w in rows[:-1]:
            got = outcome(lambda: pb.evaluate_estimator(user, s, pb.ObservationWeights(w)))
            assert got == NOT_MINIMIZED


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
    block, reached = kernel(spec, s, rows), 0
    for i, w in enumerate(rows):
        theta, _ = block(i)
        expected = oracles.exact_linear_gmm(y, r, z, w, mode)
        assert np.all(np.abs(theta - expected) <= 1e-8 * np.abs(expected))
        got = per_row(spec, s, w)
        if got != NOT_MINIMIZED:  # Gauss-Newton's stop is on the gradient, not on theta
            reached += 1
            assert np.all(np.abs(theta - got[0]) <= 1e-6 * np.abs(got[0]))
    assert reached


def test_point_estimate_is_the_kernels_one_row_case(iv_sample):
    for mode, style in MODES:
        spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style)
        w = pb.uniform_weights(iv_sample)
        theta, info = pb.evaluate_estimator(spec, iv_sample, w)
        row = kernel(spec, iv_sample, w.weights[None])
        assert np.array_equal(theta, row(0)[0]) and info == row(0)[1]
        assert_oracle(spec, iv_sample, w.weights, theta, info)
        tol = 1e-8 if style == "centered" and mode == "iterated" else 1e-12
        assert_same_outcome((theta, info), per_row(spec, iv_sample, w.weights), tol)


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
    ols = pb.EstimatorSpec(kind="gmm", builtin_moment="ols", y="y", x=("r",))
    for spec in (user, ols):
        assert linear_iv.linear_iv_gmm(spec, iv_sample) is None


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
        w = pb.weights_for_draw(s, "bayes", 4, b).weights
        assert_oracle(spec, s, w, res.draws[b], info)
        assert_same_outcome((res.draws[b], info), per_row(spec, s, w), 1e-12)
