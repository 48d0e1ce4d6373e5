"""The batched linear-IV GMM kernel (``linear_iv.linear_iv_gmm``): its draws
against per-row ``gmm`` and a closed-form oracle, and its failure paths, each
crafted row alone and inside a block."""

import dataclasses

import numpy as np
import pytest

import polyboot as pb
from polyboot import bootstrap, linear_iv, weights
from polyboot.errors import DegenerateDraw, SingularWeightMatrix, SolverError
from polyboot.fixtures import overidentified_iv_sample
import oracles

IV = dict(kind="gmm", builtin_moment="linear-iv", y="y", x=("r",), instruments=("z1", "z2", "z3"))
NOT_MINIMIZED = "SolverError: GMM minimization did not reach the first-order conditions"


def outcome(evaluate):
    """``(theta, info)``, or the reason a failed draw records."""
    try:
        return evaluate()
    except (SolverError, SingularWeightMatrix) as exc:
        return f"{type(exc).__name__}: {exc}"


def per_row(spec, sample, w):
    moment = pb.build_moment(spec, sample)
    return outcome(
        lambda: pb.gmm(
            moment, sample, pb.ObservationWeights(w), spec.settings, spec.gmm_mode,
            spec.weight_style,
        )
    )


def kernel(spec, sample, rows):
    """The kernel's ``row`` function for the weight rows (R, N)."""
    features, finish = linear_iv.linear_iv_gmm(spec, sample)
    return finish(rows @ features)


def block_bytes(spec, sample, rows):
    """A BLOCK_BYTES that puts ``rows`` draws in each of the engine's IV blocks."""
    features, _ = linear_iv.linear_iv_gmm(spec, sample)
    return 8 * rows * linear_iv.IV_ROW_FLOATS * (sample.n_obs + features.shape[1])


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


@pytest.mark.parametrize("scheme", ["bayes", "pigeonhole", "prior"])
@pytest.mark.parametrize(
    "mode, style",
    [("one-step", "centered"), ("two-step", "centered"), ("iterated", "acm"),
     ("iterated", "centered")],
)
def test_batched_linear_iv_equals_per_row_gmm_and_oracle(scheme, mode, style):
    s = overidentified_iv_sample(n=12)
    spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style)
    alpha = s.n_units / 2 if scheme == "prior" else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "BLOCK_BYTES", block_bytes(spec, s, 7))
        assert bootstrap._block_estimator(s, spec, 40)[0] == 7  # 40 draws in blocks of 7
        res = pb.run_bootstrap(s, spec, scheme, n_draws=40, seed=9, alpha=alpha)
    # iterated centered rounds may end on either of two starts whose
    # objectives tie to rounding, so those draws agree to the solver's tolerance
    tol = 1e-8 if (mode, style) == ("iterated", "centered") else 1e-12
    y, r, z = s.column("y"), s.variables[:, 1:2], s.variables[:, 2:]
    draws, failures = [], []
    for b in range(40):
        try:
            w = pb.weights_for_draw(s, scheme, 9, b, alpha=alpha).weights
        except DegenerateDraw as exc:
            failures.append((b, f"DegenerateDraw: {exc}"))
            continue
        expected = per_row(spec, s, w)
        assert not isinstance(expected, str)
        draws.append(expected)
        theta, rounds = oracles.linear_gmm(y, r, z, w, mode, style)
        assert np.all(np.abs(theta - expected[0]) <= tol * np.abs(theta))
        if mode == "iterated":
            assert expected[1]["iterations"] == rounds
    assert res.failures == tuple(failures) and len(res.draws) == len(draws)
    for theta, info, expected in zip(res.draws, res.draw_metadata, draws):
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
    the moment is zero at every theta."""
    s = overidentified_iv_sample(n=4)
    v = s.variables.copy()
    v[0], v[1] = [0, 1, 1, 2, 3], [0, -1, 1, 2, 3]
    return dataclasses.replace(s, variables=v)


def failure_case(name):
    """(sample, spec, weight rows, expected reason per row or None)."""
    s = crafted_sample()
    n = s.n_obs
    uniform, tilted, pair = np.full(n, 1 / n), np.arange(n) / (n * (n - 1) / 2), np.zeros(n)
    pair[:2] = 0.5
    if name == "non-finite covariance":
        # from the start 1e160 the zero moment keeps theta there, and the
        # residuals -+1e160 overflow the covariance
        spec = pb.EstimatorSpec(**IV, settings=pb.SolverSettings(init=(1e160,)))
        return s, spec, [pair], ["SingularWeightMatrix: non-finite moment covariance"]
    if name == "no positive eigenvalue":
        spec = pb.EstimatorSpec(**IV)
        reason = "SingularWeightMatrix: moment covariance has no positive eigenvalue"
        return s, spec, [np.zeros(n), uniform], [reason, None]
    if name == "ridged":
        # an instrument that is zero everywhere: its covariance row is zero
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, 4] = 0
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 4))
        return s, pb.EstimatorSpec(**IV), rows, [None] * 4
    if name == "first-order conditions":
        spec = pb.EstimatorSpec(**IV, settings=pb.SolverSettings(max_iter=0))
        return s, spec, [uniform, tilted], [NOT_MINIMIZED] * 2
    if name == "stalled line search":
        # y and r near 1e7: the gradient's rounding stays far above foc_tol
        s = overidentified_iv_sample(n=5)
        v = s.variables.copy()
        v[:, :2] *= 1e7
        s = dataclasses.replace(s, variables=v)
        rows = list(pb.weights_for_block(s, "bayes", 3, 0, 3))
        return s, pb.EstimatorSpec(**IV), rows, [NOT_MINIMIZED] * 3
    assert name == "iter_max"
    spec = pb.EstimatorSpec(**IV, gmm_mode="iterated", settings=pb.SolverSettings(iter_max=1))
    reason = "SolverError: iterated GMM did not reach a fixed point"
    return s, spec, [uniform, tilted], [reason] * 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the per-row path on NaN and 1e160
@pytest.mark.parametrize(
    "name",
    ["non-finite covariance", "no positive eigenvalue", "ridged", "first-order conditions",
     "stalled line search", "iter_max"],
)
def test_crafted_rows_fail_as_they_would_alone(monkeypatch, name):
    s, spec, rows, reasons = failure_case(name)
    rows = np.array(rows + [np.full(s.n_obs, np.nan)])  # a degenerate draw's row
    reasons = reasons + [NOT_MINIMIZED]
    solved = []
    gauss_newton = linear_iv._gauss_newton

    def finite_only(b, a, *args):
        solved.append(np.isfinite(b).all() and np.isfinite(a).all())
        return gauss_newton(b, a, *args)

    monkeypatch.setattr(linear_iv, "_gauss_newton", finite_only)
    block = kernel(spec, s, rows)
    for i, (w, reason) in enumerate(zip(rows, reasons)):
        expected = per_row(spec, s, w)
        assert (expected if isinstance(expected, str) else None) == reason
        alone = kernel(spec, s, rows[i : i + 1])
        for got in (outcome(lambda: block(i)), outcome(lambda: alone(0))):
            assert_same_outcome(got, expected, 1e-12)
            if name == "ridged" and reason is None:
                assert got[1] == {"weight_matrix_ridged": True}
    assert solved and all(solved)  # the NaN row never iterates


def test_point_estimate_is_the_kernels_one_row_case(iv_sample):
    for mode, style in [("two-step", "centered"), ("iterated", "centered"), ("iterated", "acm")]:
        spec = pb.EstimatorSpec(**IV, gmm_mode=mode, weight_style=style)
        w = pb.uniform_weights(iv_sample)
        theta, info = pb.evaluate_estimator(spec, iv_sample, w)
        row = kernel(spec, iv_sample, w.weights[None])
        assert np.array_equal(theta, row(0)[0]) and info == row(0)[1]
        tol = 1e-8 if style == "centered" and mode == "iterated" else 1e-12
        assert_same_outcome((theta, info), per_row(spec, iv_sample, w.weights), tol)


def test_user_moments_and_just_identified_systems_run_per_row(iv_sample):
    just = pb.EstimatorSpec(**{**IV, "instruments": ("z1",)})
    moment = pb.build_moment(pb.EstimatorSpec(**IV), iv_sample)
    user = pb.EstimatorSpec(kind="gmm", moment=moment)
    ols = pb.EstimatorSpec(kind="gmm", builtin_moment="ols", y="y", x=("r",))
    for spec in (just, user, ols):
        assert linear_iv.linear_iv_gmm(spec, iv_sample) is None


def test_specs_whose_features_pass_the_bound_run_per_row(monkeypatch):
    # one regressor and 13 instruments, each with an intercept: p l = 3 * 14,
    # and the two-step features u z and their pair products take
    # 8 * 870 * (42 + 42 * 43 / 2) bytes, 6.6 MB; the acm features
    # u z, z z' and u u' stay near 1 MB
    s = overidentified_iv_sample(n=30, extra=10)
    spec = pb.EstimatorSpec(**{**IV, "instruments": s.variable_names[2:]}, intercept=True)
    assert linear_iv.linear_iv_gmm(spec, s) is None
    acm = dataclasses.replace(spec, gmm_mode="iterated", weight_style="acm")
    assert linear_iv.linear_iv_gmm(acm, s)[0].nbytes < 1.1 * 2**20
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=3, seed=4)
    for b, info in enumerate(res.draw_metadata):
        w = pb.weights_for_draw(s, "bayes", 4, b).weights
        assert_same_outcome((res.draws[b], info), per_row(spec, s, w), 1e-12)
    # the bound is on the features' bytes, checked before they are built
    small = overidentified_iv_sample(n=6)
    two_step = pb.EstimatorSpec(**IV)
    nbytes = linear_iv.linear_iv_gmm(two_step, small)[0].nbytes
    monkeypatch.setattr(linear_iv, "FEATURE_BYTES", nbytes)
    assert linear_iv.linear_iv_gmm(two_step, small) is not None
    monkeypatch.setattr(linear_iv, "FEATURE_BYTES", nbytes - 1)
    monkeypatch.setattr(linear_iv, "_outer", None)  # never called
    assert linear_iv.linear_iv_gmm(two_step, small) is None
