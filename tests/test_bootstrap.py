import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot.errors import BootstrapError, ParamError, SingularDesign
from polyboot.fixtures import overidentified_iv_sample, ratio_of_means_sample, triadic_sample
from conftest import random_dyadic_sample


def make_result(draws, point=None):
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    return pb.BootstrapResult(
        point_estimate=np.zeros(draws.shape[1]) if point is None else np.asarray(point),
        draws=draws,
        method="bayes",
        seed=0,
        n_draws_requested=draws.shape[0],
        param_names=tuple(f"t{i}" for i in range(draws.shape[1])),
        failures=(),
        draw_metadata=(),
    )


# --------------------------------------------------------------- run_bootstrap


def test_exact_fit_invariant_to_weights():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[2.0, 1.0], [6.0, 3.0]]),  # y = 2x
        variable_names=("y", "x"),
    )
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",))
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=50, seed=5)
    assert np.allclose(res.draws, 2.0, atol=1e-10)
    assert res.failed_draw_count == 0


def test_bootstrap_mean_centers_on_point_estimate():
    rng = np.random.default_rng(1)
    s = random_dyadic_sample(rng, 8, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=1000, seed=6)
    se = res.draws[:, 0].std(ddof=1) / np.sqrt(res.draws.shape[0])
    assert abs(res.draws[:, 0].mean() - res.point_estimate[0]) < 3 * se


def test_pigeonhole_zero_weights_seen_and_failures_counted():
    rng = np.random.default_rng(2)
    s = random_dyadic_sample(rng, 6, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    res = pb.run_bootstrap(s, spec, "pigeonhole", n_draws=300, seed=7)
    assert res.failed_draw_count >= 0
    zero_hit = any(
        np.any(pb.weights_for_draw(s, "pigeonhole", 7, b) == 0.0) for b in range(50)
    )
    assert zero_hit


def test_bayes_never_degenerate_even_with_missing_dyads():
    rng = np.random.default_rng(3)
    full = random_dyadic_sample(rng, 5, columns=("y",))
    s = pb.PolyadicSample(
        order=2, unit_labels=full.unit_labels, index=full.index[:7],
        variables=full.variables[:7], variable_names=("y",),
    )
    spec = pb.EstimatorSpec(kind="mean", column="y")
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=400, seed=8)
    assert res.failed_draw_count == 0


def test_systematic_failures_raise_bootstrap_error():
    # only the (a, b) pair is observed out of three units: pigeonhole draws
    # frequently miss it entirely
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[1.0], [2.0]]),
        variable_names=("y",),
    )
    spec = pb.EstimatorSpec(kind="mean", column="y")
    with pytest.raises(BootstrapError):
        pb.run_bootstrap(s, spec, "pigeonhole", n_draws=200, seed=9)


def test_reproducible_and_thread_invariant():
    rng = np.random.default_rng(4)
    s = random_dyadic_sample(rng, 6)
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
    a = pb.run_bootstrap(s, spec, "bayes", n_draws=64, seed=10, threads=1)
    b = pb.run_bootstrap(s, spec, "bayes", n_draws=64, seed=10, threads=4)
    c = pb.run_bootstrap(s, spec, "bayes", n_draws=64, seed=10, threads=None)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.draws, c.draws)


# ------------------------------------------------------------ credible_interval


def test_interval_linear_interpolation():
    res = make_result(np.arange(1.0, 101.0))
    ci = pb.credible_interval(res, 0.9)
    assert ci.lower[0] == pytest.approx(5.95)
    assert ci.upper[0] == pytest.approx(95.05)


def test_interval_constant_draws():
    res = make_result(np.full(50, 3.3))
    ci = pb.credible_interval(res, 0.5)
    assert ci.lower[0] == ci.upper[0] == pytest.approx(3.3)


def test_interval_symmetric_about_median():
    draws = np.concatenate([-np.arange(1.0, 51.0), np.arange(1.0, 51.0)])
    ci = pb.credible_interval(make_result(draws), 0.5)
    assert ci.lower[0] == pytest.approx(-ci.upper[0], abs=1e-12)


def test_interval_needs_two_draws():
    with pytest.raises(ParamError):
        pb.credible_interval(make_result([1.0]), 0.9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60),
    st.floats(0.05, 0.5),
    st.floats(0.55, 0.99),
)
def test_interval_nesting(draws, lo_level, hi_level):
    res = make_result(np.asarray(draws))
    narrow = pb.credible_interval(res, lo_level)
    wide = pb.credible_interval(res, hi_level)
    assert wide.lower[0] <= narrow.lower[0] + 1e-9
    assert narrow.upper[0] <= wide.upper[0] + 1e-9


# ----------------------------------------------------------- marginal prior


def test_prior_exact_fit_identical_for_any_alpha():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[2.0, 1.0], [6.0, 3.0]]),
        variable_names=("y", "x"),
    )
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",))
    for alpha in (1e-5, 0.5, 2.0):
        res = pb.run_bootstrap(s, spec, "prior", alpha=alpha, n_draws=40, seed=11)
        assert np.allclose(res.draws, 2.0, atol=1e-9)
        assert res.method == f"prior({alpha:g})"


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), None])
def test_prior_rejects_alpha_not_positive(alpha):
    rng = np.random.default_rng(4)
    s = random_dyadic_sample(rng, 4, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    with pytest.raises(ParamError, match="requires alpha" if alpha is None else "alpha must be > 0"):
        pb.run_bootstrap(s, spec, "prior", alpha=alpha, n_draws=5, seed=1)


def test_grouped_bayes_scheme_runs_and_is_deterministic():
    rng = np.random.default_rng(20)
    base = random_dyadic_sample(rng, 6, columns=("y",))
    s = pb.PolyadicSample(
        order=2, unit_labels=base.unit_labels, index=base.index,
        variables=base.variables, variable_names=("y",),
        group_of_unit=(0, 0, 0, 1, 1, 1),
    )
    spec = pb.EstimatorSpec(kind="mean", column="y")
    a = pb.run_bootstrap(s, spec, "bayes", n_draws=50, seed=21)
    b = pb.run_bootstrap(s, spec, "bayes", n_draws=50, seed=21)
    assert np.array_equal(a.draws, b.draws)
    assert a.failed_draw_count == 0
    # grouped weighting differs from the ungrouped scheme on the same data
    plain = pb.run_bootstrap(base, spec, "bayes", n_draws=50, seed=21)
    assert not np.array_equal(a.draws, plain.draws)


def test_clustered_sample_iterated_acm_gmm():
    # dyads replicated over two time levels, residual x instrument moment,
    # iterated GMM with the acm-style weight matrix
    rng = np.random.default_rng(22)
    n, t_levels = 5, 2
    base_index = pb.full_index_set(n, 2)
    index = np.vstack([base_index] * t_levels)
    cluster = np.repeat(np.arange(t_levels), len(base_index))
    x = rng.standard_normal(len(index))
    z2 = x + 0.3 * rng.standard_normal(len(index))
    y = 1.2 * x + rng.standard_normal(len(index)) * 0.4
    s = pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=index,
        variables=np.column_stack([y, x, z2]),
        variable_names=("y", "x", "z2"),
        cluster_ids=cluster,
        cluster_labels=("t0", "t1"),
    )
    spec = pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("x",),
        instruments=("x", "z2"), gmm_mode="iterated", weight_style="acm",
    )
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=30, seed=23)
    assert res.failed_draw_count == 0
    assert all(meta["iterations"] >= 1 for meta in res.draw_metadata)


def test_prior_alpha_n_close_to_bayes():
    # small-sample KS sanity check; the acceptance suite runs the full chain
    rng = np.random.default_rng(5)
    s = random_dyadic_sample(rng, 8, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    bayes = pb.run_bootstrap(s, spec, "bayes", n_draws=4000, seed=12)
    prior = pb.run_bootstrap(s, spec, "prior", alpha=float(s.n_units), n_draws=4000, seed=13)
    from scipy.stats import ks_2samp

    stat = ks_2samp(bayes.draws[:, 0], prior.draws[:, 0]).statistic
    assert stat < 1.628 * np.sqrt(2 / 4000)  # 1% critical value


# ------------------------------------------------------- limiting prior atoms


RATIO = pb.EstimatorSpec(kind="ols", y="y", x=("x",))  # sum(wxy) / sum(wx^2)


def test_atoms_single_pair_midpoint():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[2.0, 1.0], [12.0, 2.0]]),
        variable_names=("y", "x"),
    )
    atoms = pb.limiting_prior_atoms(s, RATIO)
    # the one atom is the estimate on weights 1/2, 1/2: (2 + 24) / (1 + 4), not
    # the midpoint 4 of the one-observation slopes 2 and 6
    assert atoms.locations.shape == (1, 1)
    assert atoms.locations[0, 0] == pytest.approx(5.2)
    assert atoms.masses[0] == pytest.approx(1.0)
    # both dyads of a 2-unit sample weigh V_a V_b, so every prior draw is the atom
    res = pb.run_bootstrap(s, RATIO, "prior", alpha=0.5, n_draws=50, seed=3)
    assert np.allclose(res.draws, 5.2, rtol=1e-12)


def test_atoms_three_units_hand_evaluation():
    rng = np.random.default_rng(6)
    s = random_dyadic_sample(rng, 3)
    s = pb.PolyadicSample(
        order=2, unit_labels=s.unit_labels, index=s.index,
        variables=np.column_stack([s.column("y"), np.abs(s.column("x")) + 0.5]),
        variable_names=("y", "x"),
    )
    atoms = pb.limiting_prior_atoms(s, RATIO)
    y, x = s.column("y"), s.column("x")
    lookup = {(i, j): r for r, (i, j) in enumerate(s.index.tolist())}
    expected = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        rows = [lookup[(i, j)], lookup[(j, i)]]
        expected.append((x[rows] @ y[rows]) / (x[rows] @ x[rows]))
    assert np.allclose(atoms.locations[:, 0], expected, rtol=1e-12, atol=0)
    assert np.allclose(atoms.masses, 1.0 / 3.0)


def test_atoms_symmetric_data_single_values():
    s = ratio_of_means_sample(n=3, symmetric=True)
    atoms = pb.limiting_prior_atoms(s, RATIO)
    y, x = s.column("y"), s.column("x")
    # the one-observation slope of each pair, where the midpoint rule put the atom
    slopes = {tuple(sorted(ij)): y[r] / x[r] for r, ij in enumerate(s.index.tolist())}
    expected = [slopes[pair] for pair in sorted(slopes)]
    assert np.allclose(atoms.locations[:, 0], expected, rtol=0, atol=1e-12)


def refused_samples():
    """Samples without limiting atoms: order 3, a cluster dimension, unit
    groups and a missing dyad."""
    s = pb.generate_synthetic(pb.ols_unit_effects_dgp(4), seed=1, r=0)
    fields = dict(order=2, unit_labels=s.unit_labels, variable_names=s.variable_names)
    return {
        "order-3": triadic_sample(n=4),
        "clusters": pb.PolyadicSample(
            index=np.tile(s.index, (2, 1)), variables=np.tile(s.variables, (2, 1)),
            cluster_ids=np.repeat([0, 1], s.n_obs), cluster_labels=("t0", "t1"), **fields
        ),
        "groups": pb.PolyadicSample(
            index=s.index, variables=s.variables, group_of_unit=(0, 0, 1, 1), **fields
        ),
        "missing-dyad": pb.PolyadicSample(
            index=s.index[1:], variables=s.variables[1:], **fields
        ),
    }


@pytest.mark.parametrize("case", list(refused_samples()))
def test_atoms_refused(case):
    s = refused_samples()[case]
    spec = pb.EstimatorSpec(kind="mean", column=s.variable_names[0])
    with pytest.raises(pb.errors.Unsupported):
        pb.limiting_prior_atoms(s, spec)


def test_atoms_failed_pair_names_both_units():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=pb.full_index_set(3, 2),  # (a, b) (a, c) (b, a) (b, c) (c, a) (c, b)
        # x is 1 on both dyads of (a, b): its pair regression has a singular Gram
        variables=np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [1.0, 5.0], [2.0, 3.0],
                            [4.0, 2.0]]),
        variable_names=("y", "x"),
    )
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
    with pytest.raises(SingularDesign, match=r"pair \('a', 'b'\)"):
        pb.limiting_prior_atoms(s, spec)


@pytest.mark.parametrize(
    "s, spec",
    [
        (ratio_of_means_sample(n=4, symmetric=False), RATIO),
        (overidentified_iv_sample(n=12), pb.EstimatorSpec(kind="mean", column="y")),
        (overidentified_iv_sample(n=12),
         pb.EstimatorSpec(kind="ols", y="y", x=("r",), intercept=True)),
    ],
    ids=["asymmetric-ols", "iv-mean", "iv-ols-intercept"],
)
def test_tiny_alpha_prior_draws_sit_on_the_atoms(s, spec):
    atoms = pb.limiting_prior_atoms(s, spec).locations
    res = pb.run_bootstrap(s, spec, "prior", alpha=1e-6 * s.n_units, n_draws=2000, seed=15)
    # within 1e-6 max(1, |theta|) of an atom, in max norms
    gap = np.abs(res.draws[:, None, :] - atoms[None]).max(axis=2)
    tol = 1e-6 * np.maximum(1.0, np.abs(atoms).max(axis=1))
    assert np.mean((gap <= tol).any(axis=1)) >= 0.99


def test_prior_draws_concentrate_near_atoms_for_tiny_alpha():
    s = ratio_of_means_sample(n=4, symmetric=True)
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",))
    res = pb.run_bootstrap(s, spec, "prior", alpha=1e-6 * s.n_units, n_draws=2000, seed=14)
    atoms = pb.limiting_prior_atoms(s, RATIO)
    dist = np.min(np.abs(res.draws[:, 0][:, None] - atoms.locations[:, 0][None, :]), axis=1)
    assert np.mean(dist < 1e-3) >= 0.95
