import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot.errors import DegenerateDraw, ParamError
from conftest import random_dyadic_sample


def unit_draw(values):
    v = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore"):
        lv = np.log(v)
    return pb.UnitDraw(v, lv, "exponential", 0, 0)


# ---------------------------------------------------------------- unit draws


def test_exponential_determinism():
    a = pb.draw_exponential_units(5, seed=1, b=0)
    b = pb.draw_exponential_units(5, seed=1, b=0)
    assert np.array_equal(a.values, b.values)


def test_exponential_stream_separation():
    a = pb.draw_exponential_units(5, seed=1, b=0)
    b = pb.draw_exponential_units(5, seed=1, b=1)
    assert not np.array_equal(a.values, b.values)


def test_exponential_mean_one():
    # 1e6 pooled draws across independent draw indices
    total, count = 0.0, 0
    for b in range(200):
        total += pb.draw_exponential_units(5000, seed=3, b=b).values.sum()
        count += 5000
    assert abs(total / count - 1.0) < 0.01


def test_gamma_at_alpha_n_mean_one():
    total, count = 0.0, 0
    for b in range(200):
        total += pb.draw_gamma_units(5000, alpha=5000.0, seed=4, b=b).values.sum()
        count += 5000
    assert abs(total / count - 1.0) < 0.01


def test_gamma_small_alpha_concentrates():
    n, hits = 5, 0
    draws = 10_000
    for b in range(draws):
        d = pb.draw_gamma_units(n, alpha=0.01 * n, seed=5, b=b)
        w = np.exp(d.log_values - d.log_values.max())
        w /= w.sum()
        hits += w.max() > 0.9
    assert hits / draws >= 0.5


def test_gamma_determinism_and_param_check():
    a = pb.draw_gamma_units(4, alpha=2.0, seed=9, b=3)
    b = pb.draw_gamma_units(4, alpha=2.0, seed=9, b=3)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ParamError):
        pb.draw_gamma_units(4, alpha=0.0, seed=9, b=0)


def test_pigeonhole_counts_sum():
    for b in range(50):
        d = pb.draw_pigeonhole_counts(7, seed=6, b=b)
        assert d.values.sum() == 7
        assert np.all(d.values == np.round(d.values))


def test_pigeonhole_average_count_one():
    n, draws = 1000, 10_000
    total = 0.0
    for b in range(draws):
        total += pb.draw_pigeonhole_counts(n, seed=7, b=b).values.mean()
    assert abs(total / draws - 1.0) < 0.01


def test_pigeonhole_determinism():
    a = pb.draw_pigeonhole_counts(6, seed=8, b=2)
    b = pb.draw_pigeonhole_counts(6, seed=8, b=2)
    assert np.array_equal(a.values, b.values)


# ------------------------------------------------------------ product weights


def test_product_weights_symmetric_pair():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.zeros((2, 1)),
        variable_names=("y",),
    )
    w = pb.product_weights(unit_draw([1.0, 1.0]), s)
    assert np.allclose(w.weights, 0.5)


def test_product_weights_hand_enumeration(dyad_sample):
    # V = (1,2,3); pair products in index order (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
    w = pb.product_weights(unit_draw([1.0, 2.0, 3.0]), dyad_sample)
    assert np.allclose(w.weights, np.array([2, 3, 2, 6, 3, 6]) / 22.0, atol=1e-15)
    assert abs(w.weights.sum() - 1.0) < 1e-12


def test_product_weights_missing_tuple_renormalizes(dyad_sample):
    keep = [r for r, (i, j) in enumerate(dyad_sample.index.tolist()) if (i, j) != (2, 1)]
    s = pb.PolyadicSample(
        order=2,
        unit_labels=dyad_sample.unit_labels,
        index=dyad_sample.index[keep],
        variables=dyad_sample.variables[keep],
        variable_names=("y",),
    )
    w = pb.product_weights(unit_draw([1.0, 2.0, 3.0]), s)
    assert np.allclose(w.weights, np.array([2, 3, 2, 6, 3]) / 16.0, atol=1e-15)


def test_product_weights_degenerate_pigeonhole():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.zeros((2, 1)),
        variable_names=("y",),
    )
    counts = unit_draw([0.0, 0.0, 3.0])
    with pytest.raises(DegenerateDraw):
        pb.product_weights(counts, s)


# ------------------------------------------------------------ multiway weights


def clustered_sample(n_levels):
    base = pb.full_index_set(2, 2)
    index = np.vstack([base] * n_levels)
    cluster = np.repeat(np.arange(n_levels), len(base))
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=index,
        variables=np.zeros((len(index), 1)),
        variable_names=("y",),
        cluster_ids=cluster,
        cluster_labels=tuple(str(t) for t in range(n_levels)),
    )


def test_multiway_single_level_collapses_to_product():
    s = clustered_sample(1)
    units = unit_draw([1.0, 4.0])
    got = pb.multiway_weights(units, unit_draw([2.0]), s)
    want = pb.product_weights(units, pb.PolyadicSample(
        order=2, unit_labels=("a", "b"), index=pb.full_index_set(2, 2),
        variables=np.zeros((2, 1)), variable_names=("y",)))
    assert np.allclose(got.weights, want.weights, atol=1e-15)


def test_multiway_cluster_ratio():
    s = clustered_sample(2)
    got = pb.multiway_weights(unit_draw([1.0, 1.0]), unit_draw([1.0, 3.0]), s)
    level = s.cluster_ids
    ratio = got.weights[level == 1].sum() / got.weights[level == 0].sum()
    assert np.isclose(ratio, 3.0)


def test_multiway_all_equal():
    s = clustered_sample(2)
    got = pb.multiway_weights(unit_draw([1.0, 1.0]), unit_draw([1.0, 1.0]), s)
    assert np.allclose(got.weights, 0.25)


# ------------------------------------------------------------ grouped weights


def grouped_sample(groups):
    n = len(groups)
    return pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=pb.full_index_set(n, 2),
        variables=np.zeros((n * (n - 1), 1)),
        variable_names=("y",),
        group_of_unit=groups,
    )


def test_grouped_single_group_equals_product():
    s = grouped_sample((0, 0, 0))
    draw = unit_draw([1.0, 2.0, 3.0])
    got = pb.grouped_product_weights([draw], s)
    plain = pb.product_weights(draw, s)
    assert np.allclose(got.weights, plain.weights, atol=1e-15)


def test_grouped_singleton_groups_are_uniform():
    s = grouped_sample((0, 1))
    got = pb.grouped_product_weights([unit_draw([5.0]), unit_draw([0.3])], s)
    assert np.allclose(got.weights, 1.0 / s.n_obs)


def test_grouped_hand_example():
    # groups {0,1} with draws (1,3) and {2} alone: W = (1/4, 3/4, 1)
    s = grouped_sample((0, 0, 1))
    got = pb.grouped_product_weights([unit_draw([1.0, 3.0]), unit_draw([7.0])], s)
    w = np.array([0.25, 0.75, 1.0])
    prods = np.array([w[i] * w[j] for i, j in s.index])
    assert np.allclose(got.weights, prods / prods.sum(), atol=1e-15)


# ----------------------------------------------------------------- properties


def test_dirichlet_identity_and_quadratic_moment():
    # normalized Exp(1) draws are Dir(n; 1..1): E[W_k] = 1/n, E[sum W^2] = 2/(n+1)
    n, draws = 10, 20_000
    means = np.zeros(n)
    sumsq = np.zeros(draws)
    for b in range(draws):
        v = pb.draw_exponential_units(n, seed=11, b=b).values
        w = v / v.sum()
        means += w
        sumsq[b] = w @ w
    se_mean = np.sqrt((1 / n) * (1 - 1 / n) / draws)  # conservative scale
    assert np.all(np.abs(means / draws - 1.0 / n) < 3 * se_mean)
    target = 2.0 / (n + 1)
    assert abs(sumsq.mean() - target) < 3 * sumsq.std(ddof=1) / np.sqrt(draws)


def test_positivity_contrast():
    rng = np.random.default_rng(2)
    s = random_dyadic_sample(rng, 6)
    zero_seen = False
    for b in range(100):
        bayes = pb.weights_for_draw(s, "bayes", seed=13, b=b)
        assert np.all(bayes.weights > 0)
        pig = pb.weights_for_draw(s, "pigeonhole", seed=13, b=b)
        zero_seen = zero_seen or np.any(pig.weights == 0.0)
    assert zero_seen


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["bayes", "pigeonhole"]),
    st.integers(0, 2**31 - 1),
    st.integers(0, 500),
)
def test_weights_normalized_and_deterministic(scheme, seed, b):
    rng = np.random.default_rng(17)
    s = random_dyadic_sample(rng, 5)
    try:
        w1 = pb.weights_for_draw(s, scheme, seed=seed, b=b)
    except DegenerateDraw:
        # a pigeonhole draw that puts all n counts on one unit leaves every
        # dyad at zero weight (about 1 draw in 625 at n = 5); only that may fail
        counts = pb.draw_pigeonhole_counts(s.n_units, seed=seed, b=b).values
        assert scheme == "pigeonhole" and np.count_nonzero(counts) == 1
        return
    w2 = pb.weights_for_draw(s, scheme, seed=seed, b=b)
    assert np.array_equal(w1.weights, w2.weights)
    assert np.all(w1.weights >= 0)
    assert abs(w1.weights.sum() - 1.0) < 1e-12


def test_weight_scale_invariance(dyad_sample):
    base = unit_draw([0.7, 1.9, 0.2])
    scaled = unit_draw([7.0, 19.0, 2.0])
    w1 = pb.product_weights(base, dyad_sample)
    w2 = pb.product_weights(scaled, dyad_sample)
    assert np.allclose(w1.weights, w2.weights, atol=1e-14)
