import numpy as np
import pytest

import polyboot as pb
from polyboot.errors import CounterfactualError, ParamError
from conftest import random_dyadic_sample


def bootstrap_mean(seed=1, n=6, draws=201):
    rng = np.random.default_rng(seed)
    s = random_dyadic_sample(rng, n, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    return s, pb.run_bootstrap(s, spec, "bayes", n_draws=draws, seed=seed)


def test_identity_reproduces_theta_draws():
    s, res = bootstrap_mean()
    g = pb.resolve_counterfactual("identity:1")
    preds = pb.propagate(s, res, g)
    assert np.array_equal(preds.draws, res.draws)
    assert preds.dropped == 0


def test_constant_g():
    s, res = bootstrap_mean(seed=2)
    g = pb.CounterfactualFn("const", 1, lambda sample, theta: np.array([7.0]))
    preds = pb.propagate(s, res, g)
    assert np.all(preds.draws == 7.0)


def test_toy_growth_matches_hand_evaluation():
    s, res = bootstrap_mean(seed=3, draws=41)
    g = pb.resolve_counterfactual("toy-growth:y")
    preds = pb.propagate(s, res, g)
    col_mean = float(np.mean(s.column("y")))
    assert np.allclose(preds.draws[:, 0], np.exp(res.draws[:, 0] * col_mean), atol=1e-14)



def test_toy_growth_reads_its_column_once_per_sample(monkeypatch):
    s, res = bootstrap_mean(seed=3, draws=41)
    reads, column = [], pb.PolyadicSample.column

    def counted(sample, name):
        reads.append(name)
        return column(sample, name)

    monkeypatch.setattr(pb.PolyadicSample, "column", counted)
    preds = pb.propagate(s, res, pb.resolve_counterfactual("toy-growth:y"))
    assert reads == ["y"]
    col_mean = float(np.mean(column(s, "y")))
    expected = [np.exp(theta * col_mean) for theta in res.draws[:, 0]]
    assert preds.draws[:, 0].tolist() == expected

def test_failure_at_point_estimate():
    s, res = bootstrap_mean(seed=4)
    g = pb.CounterfactualFn("bad", 1, lambda sample, theta: np.array([np.nan]))
    with pytest.raises(CounterfactualError):
        pb.propagate(s, res, g)


def test_nonfinite_draws_dropped_and_counted():
    s, res = bootstrap_mean(seed=5, draws=100)
    cutoff = np.quantile(res.draws[:, 0], 0.75)
    assert res.point_estimate[0] <= cutoff  # g stays finite at the point estimate

    def fn(sample, theta):
        return np.array([np.nan if theta[0] > cutoff else theta[0]])

    g = pb.CounterfactualFn("partial", 1, fn)
    preds = pb.propagate(s, res, g)
    assert preds.dropped == int(np.sum(res.draws[:, 0] > cutoff))
    assert preds.draws.shape[0] + preds.dropped == res.draws.shape[0]


def test_g_raising_on_a_draw_is_dropped_and_counted():
    s, res = bootstrap_mean(seed=10, draws=100)
    cutoff = np.quantile(res.draws[:, 0], 0.8)
    assert res.point_estimate[0] <= cutoff

    def fn(sample, theta):
        if theta[0] > cutoff:
            return np.array([1.0 / 0.0])  # ZeroDivisionError on the high draws
        return theta[:1]

    preds = pb.propagate(s, res, pb.CounterfactualFn("raises", 1, fn))
    assert preds.dropped == int(np.sum(res.draws[:, 0] > cutoff)) > 0
    assert np.array_equal(preds.draws[:, 0], res.draws[res.draws[:, 0] <= cutoff, 0])


def test_g_wrong_shape_on_a_draw_is_dropped_and_counted():
    s, res = bootstrap_mean(seed=11, draws=100)
    cutoff = np.quantile(res.draws[:, 0], 0.8)
    assert res.point_estimate[0] <= cutoff

    def fn(sample, theta):
        return np.array([theta[0], theta[0]]) if theta[0] > cutoff else theta[:1]

    preds = pb.propagate(s, res, pb.CounterfactualFn("reshapes", 1, fn))
    assert preds.dropped == int(np.sum(res.draws[:, 0] > cutoff)) > 0
    assert preds.draws.shape == (res.draws.shape[0] - preds.dropped, 1)


def test_summarize_exceedance():
    preds = pb.PredictionDraws(
        point=np.array([1.0]), draws=np.array([[-1.0], [1.0], [3.0]]), dropped=0
    )
    summary = pb.summarize(preds, 0.5, thresholds=[0.0])
    p, se = summary.exceedance[0.0]
    assert p[0] == pytest.approx(2.0 / 3.0)
    assert se[0] == pytest.approx(np.sqrt((2 / 3) * (1 / 3) / 3))

    positive = pb.PredictionDraws(
        point=np.array([1.0]), draws=np.abs(np.random.default_rng(0).standard_normal((50, 1))) + 0.1,
        dropped=0,
    )
    p, _ = pb.summarize(positive, 0.5, thresholds=[0.0]).exceedance[0.0]
    assert p[0] == 1.0

    symmetric = pb.PredictionDraws(
        point=np.array([0.0]),
        draws=np.concatenate([-np.arange(1.0, 100.0), np.arange(1.0, 100.0)])[:, None],
        dropped=0,
    )
    p, _ = pb.summarize(symmetric, 0.5, thresholds=[0.0]).exceedance[0.0]
    assert abs(p[0] - 0.5) < 0.05


def test_summarize_skewness_matches_scipy():
    from scipy.stats import skew

    rng = np.random.default_rng(3)
    draws = np.column_stack([
        rng.gamma(2.0, size=400) * 1e3 + 5.0,  # right-skewed, large offset
        -rng.exponential(size=400),  # left-skewed
        np.full(400, 2.5),  # constant: no spread, skewness undefined
    ])
    preds = pb.PredictionDraws(point=np.zeros(3), draws=draws, dropped=0)
    got = pb.summarize(preds, 0.9).skewness
    assert np.allclose(got[:2], skew(draws[:, :2], axis=0), rtol=1e-14, atol=0.0)
    assert np.isnan(got[2])


def test_monotone_g_maps_quantiles_exactly():
    # with B = 201 draws, the 2.5/97.5 quantile positions are integers, so a
    # strictly increasing map commutes with the empirical quantiles exactly
    s, res = bootstrap_mean(seed=7, draws=201)
    g = pb.CounterfactualFn("exp", 1, lambda sample, theta: np.array([np.exp(theta[0])]))
    preds = pb.propagate(s, res, g)
    ci_theta = pb.credible_interval(res, 0.95)
    summary = pb.summarize(preds, 0.95)
    assert summary.interval.lower[0] == np.exp(ci_theta.lower[0])
    assert summary.interval.upper[0] == np.exp(ci_theta.upper[0])


def test_summarize_needs_two_rows():
    preds = pb.PredictionDraws(point=np.array([1.0]), draws=np.array([[1.0]]), dropped=0)
    with pytest.raises(ParamError):
        pb.summarize(preds, 0.9)
