import numpy as np
import pytest

import polyboot as pb
from polyboot.errors import Unsupported
from conftest import random_dyadic_sample, weighted_ols
import oracles


def mean_sample(values, n):
    return pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=pb.full_index_set(n, 2),
        variables=np.asarray(values, dtype=float)[:, None],
        variable_names=("y",),
    )


def test_constant_data_zero_variance():
    s = mean_sample(np.full(12, 4.2), 4)
    moment = pb.mean_moment(s.variable_names, "y")
    est = pb.graham_variance(moment, s, np.array([4.2]))
    assert est.covariance[0, 0] == pytest.approx(0.0, abs=1e-24)


def test_accumulator_matches_triple_loop_n3():
    s = mean_sample(np.arange(6.0), 3)
    moment = pb.mean_moment(s.variable_names, "y")
    theta = np.array([s.variables.mean()])
    est = pb.graham_variance(moment, s, theta)
    phi_tilde = oracles.phi_tilde_matrix(moment, s, theta)
    assert np.max(np.abs(est.sigma2 - oracles.triple_loop_sigma2(phi_tilde))) < 1e-14
    assert np.max(np.abs(est.sigma3 - oracles.pair_loop_sigma3(phi_tilde))) < 1e-14


def test_accumulator_matches_triple_loop_vector_moment():
    rng = np.random.default_rng(42)
    for trial in range(8):
        s = random_dyadic_sample(rng, int(rng.integers(4, 9)))
        moment = pb.ols_moment(s.variable_names, "y", ("x",), intercept=True)
        theta = weighted_ols(s, pb.uniform_weights(s), "y", ("x",), intercept=True)
        est = pb.graham_variance(moment, s, theta)
        phi_tilde = oracles.phi_tilde_matrix(moment, s, theta)
        assert np.max(np.abs(est.sigma2 - oracles.triple_loop_sigma2(phi_tilde))) < 1e-12


def test_iid_dyads_sigma2_vanishes_and_variance_tracks_sampling():
    # no unit effects: phi are iid, the shared-unit cross term is centered
    # near zero (it absorbs a -sigma^2/N term from estimating theta, hence
    # n large enough that 4/n is inside the tolerance), and the estimate
    # tracks the true sampling variance
    rng = np.random.default_rng(7)
    n = 40
    estimates, variances, sigma2s = [], [], []
    for _ in range(500):
        s = mean_sample(rng.standard_normal(n * (n - 1)), n)
        theta = np.array([s.variables.mean()])
        estimates.append(theta[0])
        est = pb.graham_variance(pb.mean_moment(("y",), "y"), s, theta)
        variances.append(est.covariance[0, 0])
        sigma2s.append(est.sigma2[0, 0])
    empirical = np.var(estimates, ddof=1)
    assert abs(np.mean(sigma2s)) < 0.005  # order 1/N, far below Var(phi) = 0.5
    assert abs(np.mean(variances) - empirical) / empirical < 0.20


def test_strong_unit_effects_naive_understates():
    sample = pb.generate_synthetic(pb.mean_unit_effects_dgp(40), seed=1, r=0)
    moment = pb.mean_moment(sample.variable_names, "y")
    theta = np.array([sample.variables.mean()])
    graham = pb.graham_variance(moment, sample, theta)
    naive = pb.naive_dyad_robust(moment, sample, theta)
    assert naive.covariance[0, 0] / graham.covariance[0, 0] < 0.5


def test_naive_zero_residuals():
    s = mean_sample(np.full(6, 1.5), 3)
    est = pb.naive_dyad_robust(pb.mean_moment(("y",), "y"), s, np.array([1.5]))
    assert est.covariance[0, 0] == pytest.approx(0.0, abs=1e-24)


def test_naive_matches_textbook_robust_mean_variance():
    rng = np.random.default_rng(8)
    s = mean_sample(rng.standard_normal(20), 5)
    y = s.variables[:, 0]
    theta = np.array([y.mean()])
    est = pb.naive_dyad_robust(pb.mean_moment(("y",), "y"), s, theta)
    textbook = np.mean((y - y.mean()) ** 2) / len(y)
    assert est.covariance[0, 0] == pytest.approx(textbook, rel=1e-12)


def test_symmetrization_invariance():
    rng = np.random.default_rng(9)
    s = mean_sample(rng.standard_normal(20), 5)
    y = s.variables[:, 0]
    # replace each direction by the pair average: same phi-tilde, same estimate
    sym = np.empty_like(y)
    lookup = {(i, j): r for r, (i, j) in enumerate(s.index.tolist())}
    for (i, j), r in lookup.items():
        sym[r] = 0.5 * (y[r] + y[lookup[(j, i)]])
    s_sym = mean_sample(sym, 5)
    theta = np.array([y.mean()])
    a = pb.graham_variance(pb.mean_moment(("y",), "y"), s, theta)
    b = pb.graham_variance(pb.mean_moment(("y",), "y"), s_sym, theta)
    assert np.allclose(a.covariance, b.covariance, atol=1e-15)


def test_affine_equivariance():
    rng = np.random.default_rng(10)
    s = random_dyadic_sample(rng, 6)
    base = pb.ols_moment(s.variable_names, "y", ("x",))
    theta = weighted_ols(s, pb.uniform_weights(s), "y", ("x",))
    c = 4.0
    scaled = pb.MomentFunction(
        "scaled", 1, 1, lambda v, t: c * base.fn(v, t),
        jacobian=lambda v, t: c * base.jacobian(v, t),
    )
    a = pb.graham_variance(base, s, theta)
    b = pb.graham_variance(scaled, s, theta)
    assert np.allclose(a.covariance, b.covariance, rtol=1e-9)


def test_unsupported_shapes():
    rng = np.random.default_rng(11)
    s = random_dyadic_sample(rng, 4)
    missing = pb.PolyadicSample(
        order=2, unit_labels=s.unit_labels, index=s.index[:-1],
        variables=s.variables[:-1], variable_names=s.variable_names,
    )
    moment = pb.mean_moment(s.variable_names, "y")
    with pytest.raises(Unsupported, match="full index set"):
        pb.graham_variance(moment, missing, np.array([0.0]))
    from polyboot.fixtures import triadic_sample

    with pytest.raises(Unsupported, match="dyadic"):
        pb.graham_variance(pb.mean_moment(("y",), "y"), triadic_sample(), np.array([0.0]))
    # naive handles the missing-dyad sample fine
    pb.naive_dyad_robust(moment, missing, np.array([float(missing.variables.mean())]))


# ------------------------------------------------------------------ delta method


def test_delta_identity():
    cov = np.array([[0.04]])
    lo, hi = pb.delta_method_interval(1.0, [1.0], cov, 0.95)
    z = 1.959963984540054
    assert lo == pytest.approx(1.0 - z * 0.2, abs=1e-12)
    assert hi == pytest.approx(1.0 + z * 0.2, abs=1e-12)


def test_delta_zero_gradient():
    lo, hi = pb.delta_method_interval(2.5, [0.0, 0.0], np.eye(2), 0.9)
    assert lo == hi == 2.5


def test_delta_chain_rule_square():
    # g(theta) = theta^2 at theta-hat = 2 with SE 0.1: 4 +/- 1.96 * 0.4
    lo, hi = pb.delta_method_interval(4.0, [4.0], np.array([[0.01]]), 0.95)
    z = 1.959963984540054
    assert lo == pytest.approx(4.0 - z * 0.4, abs=1e-9)
    assert hi == pytest.approx(4.0 + z * 0.4, abs=1e-9)
