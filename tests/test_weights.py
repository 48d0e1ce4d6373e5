import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot.errors import DegenerateDraw, ParamError
from polyboot.rng import ROLE_CLUSTER, ROLE_UNIT, substream
from conftest import random_dyadic_sample
import oracles


def logs(*rows):
    """Unit log-values, one row per draw, from linear values."""
    with np.errstate(divide="ignore"):
        return np.log(np.array(rows, dtype=float))


# ---------------------------------------------------------------- unit draws


def test_exponential_determinism():
    a, _ = pb.unit_draws(5, "bayes", seed=1, b0=0, b1=1)
    b, _ = pb.unit_draws(5, "bayes", seed=1, b0=0, b1=1)
    assert a.shape == (1, 5)
    assert np.array_equal(a, b)


def test_exponential_stream_separation():
    values, log_values = pb.unit_draws(5, "bayes", seed=1, b0=0, b1=2)
    assert not np.array_equal(values[0], values[1])
    # a row is the same whatever block it is drawn in
    assert np.array_equal(values[1], pb.unit_draws(5, "bayes", seed=1, b0=1, b1=2)[0][0])
    assert np.array_equal(log_values, np.log(values))


def test_exponential_mean_one():
    # 1e6 pooled draws across independent draw indices
    values, _ = pb.unit_draws(5000, "bayes", seed=3, b0=0, b1=200)
    assert abs(values.mean() - 1.0) < 0.01


def test_gamma_at_alpha_n_mean_one():
    values, _ = pb.unit_draws(5000, "prior", seed=4, b0=0, b1=200, alpha=5000.0)
    assert abs(values.mean() - 1.0) < 0.01


def test_gamma_small_alpha_concentrates():
    n, draws = 5, 10_000
    _, log_values = pb.unit_draws(n, "prior", seed=5, b0=0, b1=draws, alpha=0.01 * n)
    w = np.exp(log_values - log_values.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    assert np.mean(w.max(axis=1) > 0.9) >= 0.5


def test_gamma_determinism_and_param_check():
    a, _ = pb.unit_draws(4, "prior", seed=9, b0=3, b1=4, alpha=2.0)
    b, _ = pb.unit_draws(4, "prior", seed=9, b0=3, b1=4, alpha=2.0)
    assert np.array_equal(a, b)
    with pytest.raises(ParamError, match="alpha must be > 0"):
        pb.unit_draws(4, "prior", seed=9, b0=0, b1=1, alpha=0.0)
    with pytest.raises(ParamError, match="requires alpha"):
        pb.unit_draws(4, "prior", seed=9, b0=0, b1=1)
    with pytest.raises(ParamError, match="unknown scheme"):
        pb.unit_draws(4, "nope", seed=9, b0=0, b1=1)
    with pytest.raises(ParamError, match="n >= 2"):
        pb.unit_draws(1, "bayes", seed=9, b0=0, b1=1)
    with pytest.raises(ParamError, match="b0 < b1"):
        pb.unit_draws(4, "bayes", seed=9, b0=2, b1=2)


def test_pigeonhole_counts_sum():
    counts, _ = pb.unit_draws(7, "pigeonhole", seed=6, b0=0, b1=50)
    assert np.all(counts.sum(axis=1) == 7)
    assert np.all(counts == np.round(counts))


def test_pigeonhole_average_count_one():
    n, draws, step = 1000, 10_000, 1000
    total = 0.0
    for b0 in range(0, draws, step):
        total += pb.unit_draws(n, "pigeonhole", seed=7, b0=b0, b1=b0 + step)[0].mean(axis=1).sum()
    assert abs(total / draws - 1.0) < 0.01


def test_pigeonhole_determinism():
    a, _ = pb.unit_draws(6, "pigeonhole", seed=8, b0=2, b1=3)
    b, _ = pb.unit_draws(6, "pigeonhole", seed=8, b0=2, b1=3)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ product weights


def test_product_weights_symmetric_pair():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.zeros((2, 1)),
        variable_names=("y",),
    )
    w = pb.product_weights(s, logs([1.0, 1.0]))
    assert np.allclose(w, 0.5)


def test_product_weights_hand_enumeration(dyad_sample):
    # V = (1,2,3); pair products in index order (0,1),(0,2),(1,0),(1,2),(2,0),(2,1)
    w = pb.product_weights(dyad_sample, logs([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]))
    assert w.shape == (2, 6) and w.flags.c_contiguous
    assert np.allclose(w[0], np.array([2, 3, 2, 6, 3, 6]) / 22.0, atol=1e-15)
    assert np.allclose(w[1], np.array([6, 3, 6, 2, 3, 2]) / 22.0, atol=1e-15)
    assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-12)


def test_product_weights_missing_tuple_renormalizes(dyad_sample):
    keep = [r for r, (i, j) in enumerate(dyad_sample.index.tolist()) if (i, j) != (2, 1)]
    s = pb.PolyadicSample(
        order=2,
        unit_labels=dyad_sample.unit_labels,
        index=dyad_sample.index[keep],
        variables=dyad_sample.variables[keep],
        variable_names=("y",),
    )
    w = pb.product_weights(s, logs([1.0, 2.0, 3.0]))
    assert np.allclose(w[0], np.array([2, 3, 2, 6, 3]) / 16.0, atol=1e-15)


def test_product_weights_degenerate_pigeonhole():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.zeros((2, 1)),
        variable_names=("y",),
    )
    counts = logs([1.0, 1.0, 1.0], [0.0, 0.0, 3.0])
    with pytest.raises(DegenerateDraw, match="every observed tuple has zero weight"):
        pb.product_weights(s, counts)
    failed = {}
    w = pb.product_weights(s, counts, failed=failed)
    assert failed == {1: "every observed tuple has zero weight"}
    assert np.allclose(w[0], 0.5) and np.all(np.isnan(w[1]))


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
    units = logs([1.0, 4.0])
    got = pb.product_weights(s, units, logs([2.0]))
    want = pb.product_weights(pb.PolyadicSample(
        order=2, unit_labels=("a", "b"), index=pb.full_index_set(2, 2),
        variables=np.zeros((2, 1)), variable_names=("y",)), units)
    assert np.allclose(got, want, atol=1e-15)
    with pytest.raises(ParamError, match="level count"):
        pb.product_weights(s, units, logs([2.0, 1.0]))
    with pytest.raises(ParamError, match="no cluster dimension"):
        pb.product_weights(grouped_sample((0, 0)), units, logs([2.0]))


def test_multiway_cluster_ratio():
    s = clustered_sample(2)
    got = pb.product_weights(s, logs([1.0, 1.0]), logs([1.0, 3.0]))[0]
    level = s.cluster_ids
    ratio = got[level == 1].sum() / got[level == 0].sum()
    assert np.isclose(ratio, 3.0)


def test_multiway_all_equal():
    s = clustered_sample(2)
    got = pb.product_weights(s, logs([1.0, 1.0]), logs([1.0, 1.0]))
    assert np.allclose(got, 0.25)


# ------------------------------------------------------------ grouped weights


def grouped_sample(groups, clusters=1):
    n = len(groups)
    base = pb.full_index_set(n, 2)
    return pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=np.vstack([base] * clusters),
        variables=np.zeros((clusters * len(base), 1)),
        variable_names=("y",),
        group_of_unit=groups,
        cluster_ids=np.repeat(np.arange(clusters), len(base)) if clusters > 1 else None,
        cluster_labels=tuple(str(t) for t in range(clusters)) if clusters > 1 else None,
    )


def test_grouped_single_group_equals_product():
    # one group draws on lane 0 of the unit stream, as the ungrouped sample does
    s = grouped_sample((0, 0, 0))
    plain = dataclasses.replace(s, group_of_unit=None)
    got = pb.weights_for_block(s, "bayes", seed=31, b0=0, b1=20)
    want = pb.weights_for_block(plain, "bayes", seed=31, b0=0, b1=20)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_grouped_singleton_groups_are_uniform():
    s = grouped_sample((0, 1))
    got = pb.weights_for_block(s, "bayes", seed=32, b0=0, b1=20)
    assert np.allclose(got, 1.0 / s.n_obs)


def exp_draws(role, seed, b, n, lane=0):
    return -np.log1p(-substream(seed, role, b, lane=lane).random(n))


def grouped_by_hand(s, seed, b):
    """Draw b for groups {0,1} (lane 0) and {2} (lane 1): unit weights
    (V0/(V0+V1), V1/(V0+V1), 1), their products, times an Exp(1) value per
    cluster level when the sample has clusters, normalized."""
    v = exp_draws(ROLE_UNIT, seed, b, 2)
    w = np.array([v[0] / v.sum(), v[1] / v.sum(), 1.0])
    prods = np.array([w[i] * w[j] for i, j in s.index])
    if s.cluster_ids is not None:
        prods *= exp_draws(ROLE_CLUSTER, seed, b, s.n_cluster_levels)[s.cluster_ids]
    return prods / prods.sum()


def test_grouped_hand_example():
    s = grouped_sample((0, 0, 1))
    got = pb.weights_for_block(s, "bayes", seed=33, b0=0, b1=12)
    for b in range(12):
        assert np.allclose(got[b], grouped_by_hand(s, 33, b), rtol=1e-14, atol=0)


def test_grouped_clustered_hand_example():
    s = grouped_sample((0, 0, 1), clusters=2)
    got = pb.weights_for_block(s, "bayes", seed=34, b0=0, b1=12)
    for b in range(12):
        assert np.allclose(got[b], grouped_by_hand(s, 34, b), rtol=1e-14, atol=0)


# ----------------------------------------------------------------- properties


def test_dirichlet_identity_and_quadratic_moment():
    # normalized Exp(1) draws are Dir(n; 1..1): E[W_k] = 1/n, E[sum W^2] = 2/(n+1)
    n, draws = 10, 20_000
    means = np.zeros(n)
    sumsq = np.zeros(draws)
    values, _ = pb.unit_draws(n, "bayes", seed=11, b0=0, b1=draws)
    for b in range(draws):
        w = values[b] / values[b].sum()
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
        assert np.all(bayes > 0)
        pig = pb.weights_for_draw(s, "pigeonhole", seed=13, b=b)
        zero_seen = zero_seen or np.any(pig == 0.0)
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
        counts = pb.unit_draws(s.n_units, "pigeonhole", seed=seed, b0=b, b1=b + 1)[0][0]
        assert scheme == "pigeonhole" and np.count_nonzero(counts) == 1
        return
    w2 = pb.weights_for_draw(s, scheme, seed=seed, b=b)
    assert np.array_equal(w1, w2)
    assert np.all(w1 >= 0)
    assert abs(w1.sum() - 1.0) < 1e-12


def test_weight_scale_invariance(dyad_sample):
    w1 = pb.product_weights(dyad_sample, logs([0.7, 1.9, 0.2]))
    w2 = pb.product_weights(dyad_sample, logs([7.0, 19.0, 2.0]))
    assert np.allclose(w1, w2, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(3, 6), st.booleans(), st.data())
def test_product_weights_relabeling_equivariance(order, n, clustered, data):
    # relabeling unit u as perm[u] and moving its log-value along leaves
    # every weight the same, byte for byte
    perm = np.array(data.draw(st.permutations(range(n))))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    index = pb.full_index_set(n, order)
    index = index[(gen.random(len(index)) < 0.7) | (np.arange(len(index)) == 0)]
    levels = None
    if clustered:
        index = np.vstack([index, index])
        levels = gen.standard_normal((4, 2))
    s = pb.PolyadicSample(
        order=order,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=index,
        variables=np.zeros((len(index), 1)),
        variable_names=("y",),
        cluster_ids=np.repeat([0, 1], len(index) // 2) if clustered else None,
        cluster_labels=("t0", "t1") if clustered else None,
    )
    log_units = gen.standard_normal((4, n))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    want = pb.product_weights(s, log_units, levels)
    got = pb.product_weights(oracles.relabeled(s, perm), log_units[:, inv], levels)
    assert got.tobytes() == want.tobytes()
