"""The block draw engine: weight blocks, re-keyed streams, matrix kernels,
thread invariance and per-draw failure handling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot import rng, weights
from polyboot.bootstrap import _linear_statistic
from polyboot.errors import DegenerateDraw, SingularDesign
from conftest import random_dyadic_sample

# (scheme, sample shape): the four bayes shapes, prior, and pigeonhole, which
# ignores both unit groups and clusters
COMBOS = [
    ("bayes", "plain"),
    ("bayes", "grouped"),
    ("bayes", "clustered"),
    ("bayes", "grouped+clustered"),
    ("prior", "clustered"),
    ("pigeonhole", "grouped+clustered"),
]


def shaped_sample(shape, n, seed, keep=0.7):
    """Dyadic sample with about ``keep`` of the dyads observed, optionally
    with two unit groups and/or two cluster levels."""
    gen = np.random.default_rng(seed)
    index = pb.full_index_set(n, 2)
    index = index[(gen.random(len(index)) < keep) | (np.arange(len(index)) == 0)]
    clusters = labels = None
    if "clustered" in shape:
        index = np.vstack([index, index])
        clusters = np.repeat([0, 1], len(index) // 2)
        labels = ("t0", "t1")
    return pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=index,
        variables=gen.standard_normal((len(index), 2)),
        variable_names=("y", "x"),
        group_of_unit=tuple(i % 2 for i in range(n)) if "grouped" in shape else None,
        cluster_ids=clusters,
        cluster_labels=labels,
    )


def per_draw_weights(sample, scheme, seed, b, alpha):
    """Weights of draw b, or the DegenerateDraw message."""
    try:
        return pb.weights_for_draw(sample, scheme, seed, b, alpha=alpha).weights
    except DegenerateDraw as exc:
        return str(exc)


def test_block_rows_is_a_function_of_draws_and_observations():
    assert weights.block_rows(500, 1560) == weights.BLOCK_BYTES // (8 * 1560)
    assert weights.block_rows(1000, 89_700) == 5
    assert weights.block_rows(3, 10) == 3
    assert weights.block_rows(10, 10**9) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(COMBOS),
    st.integers(3, 7),
    st.integers(0, 2**64 - 1),
    st.integers(2, 6),
    st.integers(1, 5),
    st.integers(0, 5),
)
def test_block_rows_equal_per_draw_weights(combo, n, seed, rows, full_blocks, extra):
    # B = rows * full_blocks + extra with extra < rows: B is not a multiple
    # of the block rows whenever extra > 0
    scheme, shape = combo
    extra %= rows
    n_draws = rows * full_blocks + extra
    s = shaped_sample(shape, n, seed % 997)
    alpha = n / 2 if scheme == "prior" else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "BLOCK_BYTES", 8 * s.n_obs * rows)
        step = weights.block_rows(n_draws, s.n_obs)
    assert step == min(rows, n_draws)
    for b0 in range(0, n_draws, step):
        b1 = min(b0 + step, n_draws)
        failed = {}
        block = pb.weights_for_block(s, scheme, seed, b0, b1, alpha, failed=failed)
        assert block.flags.c_contiguous and block.shape == (b1 - b0, s.n_obs)
        for r, b in enumerate(range(b0, b1)):
            expected = per_draw_weights(s, scheme, seed, b, alpha)
            if isinstance(expected, str):
                assert failed[b] == expected
                assert np.all(np.isnan(block[r]))
            else:
                assert b not in failed
                assert np.array_equal(block[r], expected)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [rng.ROLE_UNIT, rng.ROLE_CLUSTER, rng.ROLE_PIGEONHOLE, rng.ROLE_GAMMA, 2**64 - 1]
    ),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 2),
    st.integers(0, 2**64 - 1),
    st.integers(1, 17),
)
def test_rekeyed_stream_equals_substream(role, seed, index, lane, n):
    streams = rng.Substreams(seed, role)
    streams.at(index + 1, lane).random(5)  # re-keying must reset a used generator
    g = streams.at(index, lane)
    ref = rng.substream(seed, role, index, lane)
    assert np.array_equal(g.random(n), ref.random(n))
    assert np.array_equal(g.standard_gamma(0.3, n), ref.standard_gamma(0.3, n))
    p = np.full(n, 1.0 / n)
    assert np.array_equal(g.multinomial(n, p), ref.multinomial(n, p))


MEAN = pb.EstimatorSpec(kind="mean", column="y")
OLS = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
GMM_OLS = pb.EstimatorSpec(kind="gmm", builtin_moment="ols", y="y", x=("x",), intercept=True)


@pytest.mark.parametrize("scheme", ["bayes", "pigeonhole", "prior"])
def test_numpy_integers_give_the_same_streams_weights_and_draws(scheme):
    seed, index, lane = np.int64(7), np.int64(3), np.uint64(2)
    ref = rng.substream(7, rng.ROLE_UNIT, 3, 2).random(4)
    assert np.array_equal(rng.substream(seed, np.int32(rng.ROLE_UNIT), index, lane).random(4), ref)
    assert np.array_equal(rng.Substreams(seed, rng.ROLE_UNIT).at(index, lane).random(4), ref)
    assert rng.derive_seed(seed, rng.ROLE_COVERAGE, index) == rng.derive_seed(7, rng.ROLE_COVERAGE, 3)
    sample = random_dyadic_sample(np.random.default_rng(5), 5)
    alpha = 2.0 if scheme == "prior" else None
    assert np.array_equal(
        pb.weights_for_block(sample, scheme, seed, np.int64(1), np.int64(3), alpha),
        pb.weights_for_block(sample, scheme, 7, 1, 3, alpha),
    )
    got = pb.run_bootstrap(sample, OLS, scheme, 20, seed, alpha)
    assert np.array_equal(got.draws, pb.run_bootstrap(sample, OLS, scheme, 20, 7, alpha).draws)
    assert json.dumps(got.to_dict())  # the seed is stored as a Python int
    with pytest.raises(TypeError):
        rng.substream(7.0, rng.ROLE_UNIT, 0)


def per_draw_bootstrap(sample, spec, scheme, n_draws, seed, alpha):
    """Draws and failures from weights_for_draw + evaluate_estimator, draw by draw."""
    draws, failures = [], []
    for b in range(n_draws):
        try:
            w = pb.weights_for_draw(sample, scheme, seed, b, alpha=alpha)
            draws.append(pb.evaluate_estimator(spec, sample, w)[0])
        except (DegenerateDraw, SingularDesign) as exc:
            failures.append((b, f"{type(exc).__name__}: {exc}"))
    return np.array(draws).reshape(len(draws), -1), tuple(failures)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([MEAN, OLS]),
    st.sampled_from(["bayes", "pigeonhole", "prior"]),
    st.integers(0, 2**63),
    st.integers(2, 40),
    st.integers(1, 7),
)
def test_matrix_kernels_match_per_draw_estimates(spec, scheme, seed, n_draws, rows):
    s = random_dyadic_sample(np.random.default_rng(seed % 1009), 6)
    alpha = 3.0 if scheme == "prior" else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "BLOCK_BYTES", 8 * s.n_obs * rows)
        res = pb.run_bootstrap(s, spec, scheme, n_draws=n_draws, seed=seed, alpha=alpha)
    expected, failures = per_draw_bootstrap(s, spec, scheme, n_draws, seed, alpha)
    assert res.failures == failures
    assert res.draws.shape == expected.shape
    scale = np.max(np.abs(expected), axis=0)
    assert np.all(np.abs(res.draws - expected) <= 1e-12 * scale)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([MEAN, OLS, GMM_OLS]),
    st.sampled_from(COMBOS),
    st.integers(0, 2**63),
)
def test_draws_byte_identical_for_any_threads(spec, combo, seed):
    scheme, shape = combo
    s = shaped_sample(shape, 6, seed % 1013, keep=1.0)
    alpha = 3.0 if scheme == "prior" else None
    outputs = set()
    with pytest.MonkeyPatch.context() as mp:
        # 30 draws in 3 (mean), 8 (GMM) or 15 (OLS) blocks
        mp.setattr(weights, "BLOCK_BYTES", 8 * s.n_obs * 4)
        for threads in (None, 1, 2, 4):
            res = pb.run_bootstrap(
                s, spec, scheme, n_draws=30, seed=seed, alpha=alpha, threads=threads
            )
            outputs.add((res.draws.tobytes(), res.failures, repr(res.draw_metadata)))
    assert len(outputs) == 1


def factorized_sample(shape, n, seed):
    """A sample whose dense feature tensor passes n**P * T <= 4 N."""
    if shape == "triadic":
        n = max(n, 4)  # 3**3 > 4 * 3!
        gen = np.random.default_rng(seed)
        index = pb.full_index_set(n, 3)
        return pb.PolyadicSample(
            order=3,
            unit_labels=tuple(f"u{i}" for i in range(n)),
            index=index,
            variables=gen.standard_normal((len(index), 2)),
            variable_names=("y", "x"),
        )
    s = shaped_sample(shape, n, seed, keep=1.0)
    if shape == "missing":  # a third of the dyads unobserved
        kept = np.sort(np.random.default_rng(seed).permutation(s.n_obs)[: 2 * s.n_obs // 3])
        s = pb.PolyadicSample(2, s.unit_labels, s.index[kept], s.variables[kept], s.variable_names)
    return s


def materialized_draws(sample, spec, scheme, n_draws, seed, alpha):
    """Draws and failures from the weight matrix rows (weights_for_block)
    and the kernel applied to each row, and each draw's error scale: its
    largest entry, at least its sum of w |y|, times the condition number
    of its Gram matrix (1 for the mean)."""
    features, finish = _linear_statistic(sample, spec)
    k = len(spec.x) + spec.intercept
    failed = {}
    block = pb.weights_for_block(sample, scheme, seed, 0, n_draws, alpha, failed=failed)
    draws, failures, scales = [], [], []
    for b in range(n_draws):
        if b in failed:
            failures.append((b, f"DegenerateDraw: {failed[b]}"))
            continue
        sums = block[b] @ features
        try:
            theta = finish(sums)[0]
        except SingularDesign as exc:
            failures.append((b, f"SingularDesign: {exc}"))
            continue
        draws.append(theta)
        cond = 1.0 if spec.kind == "mean" else np.linalg.cond(sums[: k * k].reshape(k, k))
        scales.append(max(np.abs(theta).max(), block[b] @ np.abs(sample.column("y"))) * cond)
    return np.array(draws).reshape(len(draws), -1), tuple(failures), np.array(scales)


def assert_rows_close(got, expected, scales):
    # the rounding of a weighted sum scales with its sum of |terms|, and a
    # relative change d in the normal equations moves their solution by up
    # to cond * d
    assert np.all(np.abs(got - expected).max(axis=1) <= 1e-12 * scales)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([MEAN, OLS]),
    st.sampled_from(["plain", "grouped", "clustered", "grouped+clustered", "triadic", "missing"]),
    st.sampled_from(["bayes", "pigeonhole", "prior 0.01", "prior n/2", "prior 3n"]),
    st.integers(3, 7),
    st.integers(0, 2**63),
)
def test_factorized_draws_match_materialized_rows(spec, shape, scheme, n, seed):
    scheme, _, alpha = scheme.partition(" ")
    alpha = {"": None, "0.01": 0.01, "n/2": n / 2, "3n": 3.0 * n}[alpha]
    if scheme == "prior" and "grouped" in shape:
        shape = shape.replace("grouped", "plain")  # prior does not support unit groups
    s = factorized_sample(shape, n, seed % 1019)
    features = _linear_statistic(s, spec)[0]
    dense = weights.dense_features(s, features)
    assert dense is not None
    # the kernel: each row's sums equal the weight row times the features
    failed, block_failed = {}, {}
    log_draws = weights.log_draws(s, scheme, seed, 0, 16, alpha, failed)
    sums = weights.product_sums(s, dense, *log_draws, failed)
    block = pb.weights_for_block(s, scheme, seed, 0, 16, alpha, failed=block_failed)
    assert failed == block_failed
    rows = [r for r in range(16) if r not in failed]
    assert np.all(
        np.abs(sums[rows] - block[rows] @ features) <= 1e-12 * (block[rows] @ np.abs(features))
    )
    # the draws, through the fallback rows too
    try:
        res = pb.run_bootstrap(s, spec, scheme, n_draws=16, seed=seed, alpha=alpha)
    except pb.bootstrap.BootstrapError:
        res = None  # more than 20% failed draws: then the reference fails too
    expected, failures, scales = materialized_draws(s, spec, scheme, 16, seed, alpha)
    if res is None:
        assert len(failures) > 0.2 * 16
        return
    assert res.failures == failures
    assert_rows_close(res.draws, expected, scales)


def test_underflowing_rows_fall_back_to_their_weights():
    # tiny prior alpha: unit values span ~1e5 orders of magnitude, so the
    # scaled normalizer of most rows underflows; pigeonhole seed 1863 puts
    # all n = 5 picks of draw 376 on one unit, a degenerate row
    for spec, scheme, n, seed, n_draws, alpha in [
        (OLS, "prior", 6, 11, 40, 1e-4),
        (MEAN, "prior", 6, 12, 40, 1e-3),
        (MEAN, "pigeonhole", 5, 1863, 400, None),
    ]:
        s = shaped_sample("plain", n, seed, keep=1.0)
        log_units = weights.log_draws(s, scheme, seed, 0, n_draws, alpha, {})[0]
        v = np.exp(log_units - log_units.max(axis=1, keepdims=True))
        normalizers = (v[:, s.index[:, 0]] * v[:, s.index[:, 1]]).sum(axis=1)
        assert (normalizers < weights.MIN_NORMALIZER).any()
        res = pb.run_bootstrap(s, spec, scheme, n_draws=n_draws, seed=seed, alpha=alpha)
        expected, failures, scales = materialized_draws(s, spec, scheme, n_draws, seed, alpha)
        assert res.failures == failures
        assert_rows_close(res.draws, expected, scales)
    assert (376, "DegenerateDraw: every observed tuple has zero weight") in failures
    assert normalizers[376] == 0


def test_sparse_sample_keeps_the_weight_matrix():
    # a ring of 12 units: N = 24 observed dyads, n**2 = 144 > 4 N
    n = 12
    ring = [(i, (i + 1) % n) for i in range(n)]
    index = np.array(ring + [(j, i) for i, j in ring])
    s = pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=index,
        variables=np.random.default_rng(5).standard_normal((len(index), 2)),
        variable_names=("y", "x"),
    )
    for spec in (MEAN, OLS):
        assert weights.dense_features(s, _linear_statistic(s, spec)[0]) is None
        for scheme in ("bayes", "pigeonhole"):
            res = pb.run_bootstrap(s, spec, scheme, n_draws=60, seed=6)
            expected, failures = per_draw_bootstrap(s, spec, scheme, 60, 6, None)
            assert res.failures == failures
            scale = np.max(np.abs(expected), axis=0)
            assert np.all(np.abs(res.draws - expected) <= 1e-12 * scale)


def test_non_finite_estimates_are_failed_draws():
    # a user moment for the mean that returns NaN once theta passes a cutoff
    # and sanitizes a NaN theta to zeros: on draws whose weighted mean lies
    # above the cutoff, Newton ends at theta = NaN with a zero residual
    s = random_dyadic_sample(np.random.default_rng(31), 6, columns=("y",))
    mean_draws = pb.run_bootstrap(s, MEAN, "bayes", n_draws=200, seed=32).draws[:, 0]
    cutoff = np.quantile(mean_draws, 0.9)

    def fn(variables, theta):
        if np.isnan(theta[0]):
            return np.zeros((variables.shape[0], 1))
        if theta[0] > cutoff:
            return np.full((variables.shape[0], 1), np.nan)
        return (variables[:, 0] - theta[0])[:, None]

    spec = pb.EstimatorSpec(
        kind="gmm", gmm_mode="one-step", moment=pb.MomentFunction("capped-mean", 1, 1, fn)
    )
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=200, seed=32)
    non_finite = [b for b, reason in res.failures if reason.startswith("NonFiniteDraw")]
    assert non_finite
    assert set(b for b, _ in res.failures) <= set(np.flatnonzero(mean_draws > cutoff))
    assert np.all(np.isfinite(res.draws))
    assert len(res.draw_metadata) == res.draws.shape[0] == 200 - res.failed_draw_count
    ci = pb.credible_interval(res, 0.9)
    assert np.all(np.isfinite(ci.lower)) and np.all(np.isfinite(ci.upper))
