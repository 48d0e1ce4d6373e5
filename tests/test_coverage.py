import dataclasses
from pathlib import Path

import numpy as np
import pytest

import polyboot as pb
from polyboot.coverage import _materialize
from conftest import random_dyadic_sample
import oracles


def two_unit_sample():
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[1.0], [2.0]]),
        variable_names=("y",),
    )


# -------------------------------------------------------- pigeonhole DGP


def test_identity_counts_reproduce_sample():
    s = two_unit_sample()
    out = _materialize(s, np.array([1, 1]))
    assert out.unit_labels == s.unit_labels
    assert np.array_equal(out.index, s.index)
    assert np.array_equal(out.variables, s.variables)


def test_all_mass_on_one_unit_is_degenerate():
    s = two_unit_sample()
    assert _materialize(s, np.array([2, 0])) is None


def test_counts_products_give_multiplicities():
    rng = np.random.default_rng(0)
    s = random_dyadic_sample(rng, 3, columns=("y",))
    out = _materialize(s, np.array([2, 1, 0]))
    # ordered pair (0,1) appears 2x, (1,0) 2x, pairs with unit 2 vanish
    assert out.n_obs == 4
    lookup = {(i, j): r for r, (i, j) in enumerate(s.index.tolist())}
    values = sorted(out.variables[:, 0].tolist())
    expected = sorted(
        [s.variables[lookup[(0, 1)], 0]] * 2 + [s.variables[lookup[(1, 0)], 0]] * 2
    )
    assert values == expected
    # copies of the duplicated unit share no dyad
    assert out.n_units == 3
    a0, a1 = 0, 1  # the two copies of source unit 0
    assert not any({a0, a1} == {i, j} for i, j in out.index.tolist())


def test_pigeonhole_dgp_retries_until_usable():
    s = two_unit_sample()
    out = pb.pigeonhole_dgp_resample(s, seed=1, r=0)
    assert out.n_obs >= 1


def test_pigeonhole_dgp_reproducible():
    rng = np.random.default_rng(1)
    s = random_dyadic_sample(rng, 5, columns=("y",))
    a = pb.pigeonhole_dgp_resample(s, seed=3, r=4)
    b = pb.pigeonhole_dgp_resample(s, seed=3, r=4)
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.variables, b.variables)


# ----------------------------------------------------------- synthetic DGP


def test_constant_link_gives_constant_rows():
    dgp = pb.SyntheticDGP(
        name="const", n_units=4, latent_dim=1, noise_dim=0, variable_names=("y",),
        latent_sampler=lambda g, n, d: g.standard_normal((n, d)),
        link=lambda ci, cj, eps: np.full((len(ci), 1), 3.0),
    )
    s = pb.generate_synthetic(dgp, seed=0, r=0)
    assert np.all(s.variables == 3.0)


def test_sender_effect_only():
    dgp = pb.SyntheticDGP(
        name="sender", n_units=5, latent_dim=1, noise_dim=0, variable_names=("y",),
        latent_sampler=lambda g, n, d: g.standard_normal((n, d)),
        link=lambda ci, cj, eps: ci[:, :1],
    )
    s = pb.generate_synthetic(dgp, seed=0, r=0)
    y = s.column("y")
    for u in range(5):
        sender_rows = s.index[:, 0] == u
        assert np.ptp(y[sender_rows]) == 0.0


def test_generate_reproducible_across_calls():
    dgp = pb.mean_unit_effects_dgp(6)
    a = pb.generate_synthetic(dgp, seed=5, r=3)
    b = pb.generate_synthetic(dgp, seed=5, r=3)
    assert np.array_equal(a.variables, b.variables)
    c = pb.generate_synthetic(dgp, seed=5, r=4)
    assert not np.array_equal(a.variables, c.variables)


def test_unit_effects_mean_sampling_sd_matches_closed_form():
    n, sigma_c, sigma_eps = 10, 1.0, 0.3
    dgp = pb.mean_unit_effects_dgp(n, sigma_c, sigma_eps)
    means = [
        float(pb.generate_synthetic(dgp, seed=6, r=r).variables.mean()) for r in range(2000)
    ]
    sd = np.std(means, ddof=1)
    target = np.sqrt(oracles.exchangeable_mean_variance(n, sigma_c, sigma_eps))
    assert abs(sd - target) / target < 0.05


# ------------------------------------------------------------- run_coverage


def test_exact_fit_coverage_is_one():
    dgp = pb.SyntheticDGP(
        name="line", n_units=5, latent_dim=1, noise_dim=0, variable_names=("y", "x"),
        latent_sampler=lambda g, n, d: g.uniform(0.5, 1.5, (n, d)),
        link=lambda ci, cj, eps: np.column_stack(
            [2.0 * (ci[:, 0] + cj[:, 0]), ci[:, 0] + cj[:, 0]]
        ),
        analytic_truth=(2.0,),
    )
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="ols", y="y", x=("x",)),
        methods=("bayes",),
        n_replications=5,
        n_bootstrap=50,
        seed=7,
        dgp=dgp,
    )
    report = pb.run_coverage(cfg)
    assert report.method("bayes").coverage == 1.0


def test_single_replication_coverage_in_unit_set():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "naive"),
        n_replications=1,
        n_bootstrap=80,
        seed=8,
        dgp=pb.mean_unit_effects_dgp(8),
    )
    report = pb.run_coverage(cfg)
    for m in report.methods:
        assert m.coverage in (0.0, 1.0)


def test_reproducible_report():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "pigeonhole", "naive"),
        n_replications=4,
        n_bootstrap=60,
        seed=9,
        dgp=pb.mean_unit_effects_dgp(8),
    )
    a = pb.run_coverage(cfg)
    b = pb.run_coverage(cfg)
    assert a.to_dict() == b.to_dict()


def test_graham_skipped_on_missing_dyads():
    # pigeonhole resamples nearly always duplicate a unit, leaving within-copy
    # dyads unobserved, so the dyadic-robust variance is inapplicable
    rng = np.random.default_rng(2)
    source = random_dyadic_sample(rng, 6, columns=("y",))
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("graham", "naive"),
        n_replications=6,
        seed=10,
        source_sample=source,
    )
    report = pb.run_coverage(cfg)
    graham = report.method("graham")
    assert graham.skipped_reason is not None
    assert report.method("naive").n_evaluated == 6


def test_pigeonhole_truth_is_source_estimate():
    rng = np.random.default_rng(3)
    source = random_dyadic_sample(rng, 6, columns=("y",))
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("naive",),
        n_replications=2,
        seed=11,
        source_sample=source,
    )
    report = pb.run_coverage(cfg)
    assert report.truth == pytest.approx(float(source.variables.mean()))


def test_plugin_truth_for_dgp_without_analytic_value():
    dgp = dataclasses.replace(pb.mean_unit_effects_dgp(8), analytic_truth=None)
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("naive",),
        n_replications=1,
        seed=12,
        dgp=dgp,
    )
    report = pb.run_coverage(cfg)
    # plug-in reference at ~1e6 dyads: SD of the mean is about 2/sqrt(1001)
    assert abs(report.truth) < 0.2


def test_truth_recovery_over_replications():
    # averaging pigeonhole-DGP point estimates approaches the source estimate
    rng = np.random.default_rng(4)
    source = random_dyadic_sample(rng, 10, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    estimates = []
    for r in range(2000):
        data = pb.pigeonhole_dgp_resample(source, seed=13, r=r)
        theta, _ = pb.evaluate_estimator(spec, data, pb.uniform_weights(data))
        estimates.append(theta[0])
    truth = float(source.variables.mean())
    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(np.mean(estimates) - truth) < 3 * se


def test_fixture_regeneration_is_exact(tmp_path):
    from polyboot.fixtures import FIXTURE_NAMES, make_fixture

    for name in FIXTURE_NAMES:
        p1 = make_fixture(name, seed=3, out_dir=tmp_path / "a")
        p2 = make_fixture(name, seed=3, out_dir=tmp_path / "b")
        assert Path(p1).read_text() == Path(p2).read_text()
