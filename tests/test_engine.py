"""The block draw engine: weight blocks, re-keyed streams, matrix kernels,
thread invariance and per-draw failure handling."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot import bootstrap, estimators, rng, weights
from polyboot.errors import DegenerateDraw, SingularDesign, SolverError
from polyboot.estimators import linear_statistic
from polyboot.fixtures import gravity_sample
from polyboot.ppml import ppml_newton
from conftest import random_dyadic_sample, row_of
import oracles

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


def shaped_sample(shape, n, seed, keep=0.7, columns=("y", "x")):
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
        variables=gen.standard_normal((len(index), len(columns))),
        variable_names=columns,
        group_of_unit=tuple(i % 2 for i in range(n)) if "grouped" in shape else None,
        cluster_ids=clusters,
        cluster_labels=labels,
    )


def per_draw_weights(sample, scheme, seed, b, alpha):
    """Weights of draw b, or the DegenerateDraw message."""
    try:
        return pb.weights_for_draw(sample, scheme, seed, b, alpha=alpha)
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
    # re-keying must reset every field a used generator holds: a part-used
    # output buffer and, after an odd count of uint32 draws, a stored half
    used = streams.at(index + 1, lane)
    used.random(5)
    used.integers(0, 2**32 - 1, 3, dtype=np.uint32)
    state = used.bit_generator.state
    assert state["buffer_pos"] == 3 and state["has_uint32"] == 1
    g = streams.at(index, lane)
    ref = rng.substream(seed, role, index, lane)

    def uint32(gen):
        return gen.integers(0, 2**32 - 1, n, dtype=np.uint32)

    assert np.array_equal(uint32(g), uint32(ref))
    rows = np.empty((2, n))  # filled in place, as the weights fill their rows
    g.random(out=rows[0])
    g.standard_gamma(0.3, out=rows[1])
    assert np.array_equal(rows[0], ref.random(n))
    assert np.array_equal(rows[1], ref.standard_gamma(0.3, n))
    p = np.full(n, 1.0 / n)
    assert np.array_equal(g.multinomial(n, p), ref.multinomial(n, p))
    # two instances of one (seed, role) share no state, even interleaved
    first = rng.Substreams(seed, role).at(index, lane)
    second = rng.Substreams(seed, role).at(index + 1, lane)
    drawn = [first.random(n), second.random(n), first.random(n), second.random(n)]
    for i, parts in ((index, drawn[0::2]), (index + 1, drawn[1::2])):
        ref = rng.substream(seed, role, i, lane)
        assert np.array_equal(np.concatenate(parts), ref.random(2 * n))


MEAN = pb.EstimatorSpec(kind="mean", column="y")
OLS = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
GMM_OLS = pb.EstimatorSpec(kind="gmm", moment=pb.build_moment(OLS, shaped_sample("plain", 3, 0)))
PPML = pb.EstimatorSpec(kind="ppml", y="y", x=("x",), intercept=True)
IV_TWO_STEP, IV_ITERATED = (
    pb.EstimatorSpec(
        kind="gmm", builtin_moment="linear-iv", y="y", x=("x",), instruments=("z1", "z2", "z3"),
        gmm_mode=mode,
    )
    for mode in ("two-step", "iterated")
)
# two-step centered, iterated centered and iterated acm, with and without an intercept
IV_SPECS = [
    dataclasses.replace(spec, weight_style=style, intercept=intercept)
    for spec, style in ((IV_TWO_STEP, "centered"), (IV_ITERATED, "centered"), (IV_ITERATED, "acm"))
    for intercept in (False, True)
]
SINGULAR = "SingularDesign: weighted Gram matrix is numerically singular"


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


def assert_ols_oracle(sample, spec, w, theta):
    """An OLS draw equals the sqrt-weight least-squares oracle, which shares
    no code with the engine, to within its Gram matrix's condition number
    times rounding."""
    if spec.kind != "ols":
        return
    x = np.column_stack([np.ones(sample.n_obs), sample.column("x")])
    ref = oracles.scaled_ols(sample.column("y"), x, w)
    cond = np.linalg.cond(x.T @ (w[:, None] * x))
    scale = max(np.abs(ref).max(), w @ np.abs(sample.column("y")))
    assert np.abs(theta - ref).max() <= 1e-13 * cond * scale


def per_draw_bootstrap(sample, spec, scheme, n_draws, seed, alpha):
    """Draws and failures from weights_for_draw + evaluate_estimator, draw by
    draw; OLS draws are checked against the least-squares oracle."""
    draws, failures = [], []
    for b in range(n_draws):
        try:
            w = pb.weights_for_draw(sample, scheme, seed, b, alpha=alpha)
            draws.append(pb.evaluate_estimator(spec, sample, w)[0])
        except (DegenerateDraw, SingularDesign, SolverError) as exc:
            failures.append((b, f"{type(exc).__name__}: {exc}"))
            continue
        assert_ols_oracle(sample, spec, w, draws[-1])
    return np.array(draws).reshape(len(draws), -1), tuple(failures)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([MEAN, OLS, GMM_OLS]),
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


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([MEAN, OLS, GMM_OLS, PPML, IV_TWO_STEP, IV_ITERATED]),
    st.sampled_from(COMBOS),
    st.integers(0, 2**63),
)
def test_draws_byte_identical_for_any_threads(spec, combo, seed):
    scheme, shape = combo
    if spec.builtin_moment == "linear-iv":  # instruments that move the regressor
        s = shaped_sample(shape, 6, seed % 1013, keep=1.0, columns=("y", "x", "z1", "z2", "z3"))
        v = s.variables.copy()
        v[:, 1] += v[:, 2] + v[:, 3]
        s = dataclasses.replace(s, variables=v)
        try:  # about 1 sample in 2,000 does not reach iterated GMM's fixed point
            # within ITER_MAX rounds even at the point estimate: the re-weighting
            # converges that slowly however exactly each round is solved
            pb.evaluate_estimator(spec, s, pb.uniform_weights(s))
        except SolverError:
            assume(False)
    else:
        s = shaped_sample(shape, 6, seed % 1013, keep=1.0)
    if spec is PPML:  # PPML needs a nonnegative y
        s = dataclasses.replace(s, variables=np.abs(s.variables))
    alpha = 3.0 if scheme == "prior" else None
    outputs = set()
    with pytest.MonkeyPatch.context() as mp:
        # 30 draws in 3 (mean), 5 (factorized linear IV), 8 (GMM, PPML) or 15 (OLS) blocks
        row_floats = 1
        if spec is PPML or spec.builtin_moment == "linear-iv":
            row_floats = weights.ROW_FLOATS
        mp.setattr(weights, "BLOCK_BYTES", 8 * 4 * s.n_obs * row_floats)
        for threads in (None, 1, 2, 4):
            res = pb.run_bootstrap(
                s, spec, scheme, n_draws=30, seed=seed, alpha=alpha, threads=threads
            )
            outputs.add((res.draws.tobytes(), res.failures, repr(res.draw_metadata)))
    assert len(outputs) == 1


def factorized_sample(shape, n, seed, columns=("y", "x")):
    """A sample whose dense feature tensor passes n**P * T <= 4 N; with
    instruments z1..z3 among the columns, x moves with z1 + z2."""
    if shape == "triadic":
        n = max(n, 4)  # 3**3 > 4 * 3!
        gen = np.random.default_rng(seed)
        index = pb.full_index_set(n, 3)
        s = pb.PolyadicSample(
            order=3,
            unit_labels=tuple(f"u{i}" for i in range(n)),
            index=index,
            variables=gen.standard_normal((len(index), len(columns))),
            variable_names=columns,
        )
    else:
        s = shaped_sample(shape, n, seed, keep=1.0, columns=columns)
    if shape == "missing":  # a third of the dyads unobserved
        kept = np.sort(np.random.default_rng(seed).permutation(s.n_obs)[: 2 * s.n_obs // 3])
        s = pb.PolyadicSample(2, s.unit_labels, s.index[kept], s.variables[kept], s.variable_names)
    if "z1" in columns:
        v = s.variables.copy()
        v[:, 1] += v[:, 2] + v[:, 3]
        s = dataclasses.replace(s, variables=v)
    return s


def materialized_draws(sample, spec, scheme, n_draws, seed, alpha):
    """Draws and failures from the weight matrix rows (weights_for_block)
    and the kernel applied to each row, and each draw's error scale: its
    largest entry, at least its sum of w |y|, times the condition number
    of its Gram matrix (1 for the mean)."""
    features, finish = linear_statistic(spec, sample)
    k = len(spec.x) + spec.intercept
    failed = {}
    block = pb.weights_for_block(sample, scheme, seed, 0, n_draws, alpha, failed=failed)
    draws, failures, scales = [], [], []
    for b in range(n_draws):
        if b in failed:
            failures.append((b, f"DegenerateDraw: {failed[b]}"))
            continue
        sums = block[b] @ features
        theta, errors, _ = finish(sums[None])
        if errors:
            failures.append((b, SINGULAR))
            continue
        theta = theta[0]
        assert_ols_oracle(sample, spec, block[b], theta)
        draws.append(theta)
        cond = 1.0 if spec.kind == "mean" else np.linalg.cond(sums[: k * k].reshape(k, k))
        scales.append(max(np.abs(theta).max(), block[b] @ np.abs(sample.column("y"))) * cond)
    return np.array(draws).reshape(len(draws), -1), tuple(failures), np.array(scales)


def assert_rows_close(got, expected, scales):
    # the rounding of a weighted sum scales with its sum of |terms|, and a
    # relative change d in the normal equations moves their solution by up
    # to cond * d
    assert np.all(np.abs(got - expected).max(axis=1) <= 1e-12 * scales)


def covariance_condition(sample, spec, w, theta):
    """cond of the moment covariance of weights w at theta: centered, or for
    acm sum w z z' (its factor sum w e^2 leaves theta as it is)."""
    y, z = sample.column("y"), estimators.regressors(sample, spec.instruments, spec.intercept)
    if spec.weight_style == "acm":
        return np.linalg.cond(z.T @ (w[:, None] * z))
    psi = (y - estimators.regressors(sample, spec.x, spec.intercept) @ theta)[:, None] * z
    psi -= w @ psi
    return np.linalg.cond(psi.T @ (w[:, None] * psi))


def assert_iv_draws_match_weight_rows(sample, spec, scheme, seed, alpha):
    """The engine's linear-IV draws (the factorized form, and the weight-row
    kernel on the rows it hands back) fail as the weight-row kernel fails on
    the ``weights_for_block`` rows, with the same reasons and infos, and
    their estimates agree to 1e-10 of each row's largest entry, at least its
    sum of w |y|, times the condition number of its moment covariance."""
    blocks = bootstrap._block_estimator(sample, 16, estimators.block_kernel(spec, sample))
    theta, errors, infos = bootstrap._run_draws(sample, scheme, 16, seed, alpha, None, blocks)
    failed = {}
    block = pb.weights_for_block(sample, scheme, seed, 0, 16, alpha, failed=failed)
    expected, expected_errors, expected_infos = estimators.block_kernel(spec, sample)[1](block)
    expected_errors.update((b, DegenerateDraw(reason)) for b, reason in failed.items())

    def reasons(errors):
        return {b: f"{type(exc).__name__}: {exc}" for b, exc in errors.items()}

    assert reasons(errors) == reasons(expected_errors)
    abs_y = np.abs(sample.column("y"))
    for b in set(range(16)) - set(errors):
        # the weight matrix magnifies the rounding of the covariance by up to
        # its cond; that rounding is at the scale of the data, which a theta
        # near zero does not bound (the scale materialized_draws uses for OLS)
        cond = covariance_condition(sample, spec, block[b], expected[b])
        scale = max(np.abs(expected[b]).max(), block[b] @ abs_y)
        assert np.abs(theta[b] - expected[b]).max() <= 1e-10 * cond * scale
        assert infos[b].get("iterations") == expected_infos[b].get("iterations")
        assert infos[b].get("weight_matrix_ridged") == expected_infos[b].get("weight_matrix_ridged")


def test_iterated_acm_stops_at_round_two_on_both_forms():
    # the rounds of this block moved row 10's theta by rounding that a
    # near-singular sum w z z' magnifies past ITER_TOL, so the factorized form
    # and the weight-row kernel stopped on rounds 38 and 20; acm's covariance
    # moves with theta only through its scalar sum w e^2, so every row keeps
    # round 1's minimizer and stops by round 2 on both (an exact fit at 1)
    spec = dataclasses.replace(IV_ITERATED, weight_style="acm", intercept=True)
    s = factorized_sample("missing", 6, 43095 % 1019, ("y", "x", "z1", "z2", "z3"))
    blocks = bootstrap._block_estimator(s, 16, estimators.block_kernel(spec, s))
    _, errors, infos = bootstrap._run_draws(s, "prior", 16, 43095, 0.01, None, blocks)
    block = pb.weights_for_block(s, "prior", 43095, 0, 16, 0.01, failed={})
    _, expected_errors, expected_infos = estimators.block_kernel(spec, s)[1](block)
    solved = set(range(16)) - set(errors)
    assert set(expected_errors) == set(errors) and len(solved) >= 8
    for b in solved:
        assert infos[b]["iterations"] == expected_infos[b]["iterations"] <= 2
        assert len(infos[b]["objective_trace"]) == infos[b]["iterations"]
    assert infos[10]["iterations"] == 2
    assert_iv_draws_match_weight_rows(s, spec, "prior", 43095, 0.01)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([MEAN, OLS, *IV_SPECS]),
    st.sampled_from(["plain", "grouped", "clustered", "grouped+clustered", "triadic", "missing"]),
    st.sampled_from(["bayes", "pigeonhole", "prior 0.01", "prior n/2", "prior 3n"]),
    st.integers(3, 7),
    st.integers(0, 2**63),
)
# draw 13 puts 0.5 on two dyads that the one-step estimate fits exactly: its
# covariance is rounding, which the weight-row kernel once failed in a block only
@example(dataclasses.replace(IV_TWO_STEP, intercept=True), "plain", "pigeonhole", 6, 5304449)
# row 15's theta is -5e-8 on both forms, and they differ by rounding at the
# scale of y: 2.2e-10 x cond x |theta|, 1.5e-17 x cond x sum w |y|
@example(IV_TWO_STEP, "triadic", "prior n/2", 3, 4098652287869080350)
def test_factorized_draws_match_materialized_rows(spec, shape, scheme, n, seed):
    scheme, _, alpha = scheme.partition(" ")
    alpha = {"": None, "0.01": 0.01, "n/2": n / 2, "3n": 3.0 * n}[alpha]
    if scheme == "prior" and "grouped" in shape:
        shape = shape.replace("grouped", "plain")  # prior does not support unit groups
    iv = spec.kind == "gmm"
    s = factorized_sample(shape, n, seed % 1019, ("y", "x", "z1", "z2", "z3") if iv else ("y", "x"))
    features = estimators.block_kernel(spec, s)[2][0]
    features = features() if iv else features  # linear IV builds its features on demand
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
    if iv:
        assert_iv_draws_match_weight_rows(s, spec, scheme, seed, alpha)
        return
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


def test_singular_rows_fail_alone_in_their_block():
    # x is zero off the dyads of units 0 and 1, so a pigeonhole draw that
    # picks neither has a singular Gram matrix; seed 2 misses both in draws
    # 1, 4, 11 and 15 of one 30-row block
    n, seed = 8, 2
    s = random_dyadic_sample(np.random.default_rng(0), n)
    x = ((s.index[:, 0] < 2) | (s.index[:, 1] < 2)).astype(float)
    variables = np.column_stack([s.column("y"), x])
    s = pb.PolyadicSample(2, s.unit_labels, s.index, variables, ("y", "x"))
    counts = pb.unit_draws(n, "pigeonhole", seed, 0, 30)[0]
    assert np.flatnonzero(counts[:, :2].sum(axis=1) == 0).tolist() == [1, 4, 11, 15]
    dense = weights.dense_features(s, linear_statistic(OLS, s)[0])
    assert weights.block_rows(30, dense[0].size) == 30  # one block
    res = pb.run_bootstrap(s, OLS, "pigeonhole", n_draws=30, seed=seed)
    assert res.failures == tuple((b, SINGULAR) for b in (1, 4, 11, 15))
    expected, failures = per_draw_bootstrap(s, OLS, "pigeonhole", 30, seed, None)
    assert res.failures == failures and res.draws.shape == (26, 2)
    assert np.all(np.abs(res.draws - expected) <= 1e-12 * np.max(np.abs(expected), axis=0))


# ------------------------------------------------------------- batched PPML


GRAVITY_PPML = pb.EstimatorSpec(
    kind="ppml", y="flow", x=("size_origin", "size_destination", "log_friction"), intercept=True
)


def ppml_design(sample, spec):
    return np.column_stack([np.ones(sample.n_obs), *(sample.column(c) for c in spec.x)])


def assert_newton_oracle(res, sample, spec, scheme, n_draws, seed, alpha):
    """Each draw equals the per-row Newton oracle on that draw's weights, to
    1e-12 of each parameter's largest draw, with the same iterations, and
    the failures are the oracle's."""
    x, y = ppml_design(sample, spec), sample.column(spec.y)
    draws, iterations, failures = [], [], []
    for b in range(n_draws):
        w = per_draw_weights(sample, scheme, seed, b, alpha)
        if isinstance(w, str):
            failures.append((b, f"DegenerateDraw: {w}"))
            continue
        theta, it, reason = oracles.newton_ppml(y, x, w, estimators.MAX_ITER)
        if reason is None:
            draws.append(theta)
            iterations.append(it)
        else:
            failures.append((b, reason))
    assert res.failures == tuple(failures)
    assert [info["iterations"] for info in res.draw_metadata] == iterations
    draws = np.array(draws)
    assert np.all(np.abs(res.draws - draws) <= 1e-12 * np.max(np.abs(draws), axis=0))


@pytest.mark.parametrize("scheme", ["bayes", "prior", "pigeonhole"])
def test_batched_ppml_equals_per_row_newton(scheme):
    s = gravity_sample(seed=4, n=12)
    alpha = s.n_units / 2 if scheme == "prior" else None
    with pytest.MonkeyPatch.context() as mp:
        # 40 draws in blocks of 7
        mp.setattr(weights, "BLOCK_BYTES", 8 * s.n_obs * weights.ROW_FLOATS * 7)
        res = pb.run_bootstrap(s, GRAVITY_PPML, scheme, n_draws=40, seed=9, alpha=alpha)
    assert_newton_oracle(res, s, GRAVITY_PPML, scheme, 40, 9, alpha)


@pytest.mark.parametrize("scheme", ["bayes", "prior"])
def test_batched_ppml_equals_per_row_newton_at_the_benchmark_shape(scheme):
    # solver-mix's gravity jobs: n = 40, B = 200, the default block budget
    s = gravity_sample(seed=3, n=40)
    alpha = s.n_units / 2 if scheme == "prior" else None
    assert weights.block_rows(200, weights.ROW_FLOATS * s.n_obs) < 200  # more than one block
    res = pb.run_bootstrap(s, GRAVITY_PPML, scheme, n_draws=200, seed=5, alpha=alpha)
    assert_newton_oracle(res, s, GRAVITY_PPML, scheme, 200, 5, alpha)


def test_collinear_ppml_rows_fail_alone_in_their_block():
    # the singular-rows sample with counts for y: pigeonhole draws 1, 4, 11
    # and 15 put no weight where x is nonzero, so their start is collinear
    n, seed = 8, 2
    s = random_dyadic_sample(np.random.default_rng(0), n)
    x = ((s.index[:, 0] < 2) | (s.index[:, 1] < 2)).astype(float)
    y = np.random.default_rng(1).poisson(np.exp(0.3 + 0.5 * x)).astype(float)
    s = pb.PolyadicSample(2, s.unit_labels, s.index, np.column_stack([y, x]), ("y", "x"))
    spec = pb.EstimatorSpec(kind="ppml", y="y", x=("x",), intercept=True)
    res = pb.run_bootstrap(s, spec, "pigeonhole", n_draws=30, seed=seed)
    collinear = "SingularDesign: ppml design is collinear"
    assert res.failures == tuple((b, collinear) for b in (1, 4, 11, 15))
    assert_newton_oracle(res, s, spec, "pigeonhole", 30, seed, None)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("max_iter", [100, 1])
def test_ppml_rows_fail_as_they_would_alone(monkeypatch, max_iter):
    # x = 1 where y = 1e20 and 0 where y = 0: with weight on those dyads only,
    # rounding absorbs the x = 0 dyad in the Jacobian, which is then exactly
    # singular though the start's Gram matrix is regular (row 0); row 4 gets
    # there after one step. Rows 2 and 3 (NaN) are collinear. Row 6 weighs
    # flows near 1e8, whose residual rounds above 1e-8, so its line search
    # stalls. With MAX_ITER = 1 the other rows that take a step do not converge.
    y = np.array([1e20, 0, 2, 3, 1, 4, 3e8, 1e8, 5e8, 2e8, 0, 4e8])
    x = np.array([1, 0, 0, 1, 0.5, 0.5, -1, 0.3, 1.2, -0.4, 0.8, 2])
    s = pb.PolyadicSample(
        2, ("a", "b", "c", "d"), pb.full_index_set(4, 2), np.column_stack([y, x]), ("y", "x")
    )
    rows = np.zeros((7, 12))
    rows[0, :2] = rows[2, 1:3] = 0.5
    rows[1, 2:6] = 0.25
    rows[3] = np.nan
    rows[4, :6] = rows[6, 6:] = 1 / 6
    rows[5, 3:6] = 0.3, 0.3, 0.4
    spec = pb.EstimatorSpec(kind="ppml", y="y", x=("x",), intercept=True)
    monkeypatch.setattr(estimators, "MAX_ITER", max_iter)
    row = row_of(ppml_newton(spec, s)(rows))
    reasons, iterations = {}, {}
    for r, w in enumerate(rows):
        expected, it, reason = oracles.newton_ppml(y, ppml_design(s, spec), w, max_iter)
        try:
            theta, info = row(r)
        except (SingularDesign, SolverError) as exc:
            reasons[r] = f"{type(exc).__name__}: {exc}"
            assert reasons[r] == reason
            continue
        assert reason is None and info["iterations"] == it
        iterations[r] = it
        assert np.all(np.abs(theta - expected) <= 1e-12 * np.max(np.abs(expected)))
    jacobian = "SolverError: singular ppml Jacobian"
    collinear = "SingularDesign: ppml design is collinear"
    assert [reasons.get(r) for r in (0, 2, 3)] == [jacobian, collinear, collinear]
    if max_iter == 1:
        stepped = [reasons[r] for r in (1, 4, 5)]
        assert all(reason.startswith("SolverError: ppml did not converge") for reason in stepped)
    else:
        assert reasons[4] == jacobian and iterations == {1: 4, 5: 4}
        assert reasons[6] == "SolverError: ppml line search stalled"


def test_halved_ppml_steps_equal_per_row_newton():
    # zero-inflated counts: from the log(y + 1) start the full Newton step
    # raises the residual norm, so it is halved, alone (the point estimate)
    # and with every row of a block halving at once
    y = np.array([0, 0, 0, 0, 43, 0, 0, 58, 54, 0, 60, 0])
    x = np.array([2.04, -2.56, 0.42, -0.57, -0.45, -0.22, -2.02, -0.23, -0.87, 3.32, 0.23, -0.35])
    s = pb.PolyadicSample(
        2, ("a", "b", "c", "d"), pb.full_index_set(4, 2), np.column_stack([y, x]), ("y", "x")
    )
    spec = pb.EstimatorSpec(kind="ppml", y="y", x=("x",), intercept=True)
    expected, it, reason = oracles.newton_ppml(y, ppml_design(s, spec), np.full(12, 1 / 12))
    assert reason is None
    row = row_of(ppml_newton(spec, s)(np.full((3, 12), 1 / 12)))
    for theta, info in [pb.evaluate_estimator(spec, s, pb.uniform_weights(s))] + [
        row(r) for r in range(3)
    ]:
        assert np.all(np.abs(theta - expected) <= 1e-12 * np.max(np.abs(expected)))
        assert info == {"iterations": it}


def test_ppml_takes_the_fortieth_step_halving():
    # intercept only, y = (0, Y), equal weights: from the log(y + 1) start the
    # Newton step is about sqrt(Y) / 2, and at Y = 1e27 only its 40th length,
    # 2**-39, lowers the residual. The row moves on from there and stalls
    # later in rounding (the residual tolerance is absolute); with 39
    # halvings it would stall at the start
    big = 1e27
    y, x, w = np.array([0.0, big]), np.ones((2, 1)), np.full(2, 0.5)
    s = pb.PolyadicSample(2, ("a", "b"), pb.full_index_set(2, 2), y[:, None], ("y",))
    spec = pb.EstimatorSpec(kind="ppml", y="y", intercept=True)

    def norm(theta):
        with np.errstate(over="ignore"):  # the full step overflows
            mu = np.exp(theta)
        return abs(0.5 * (0 - mu) + 0.5 * (big - mu))

    start = 0.5 * np.log1p(big)
    step = (0.5 * big - np.exp(start)) / np.exp(start)
    tries = [norm(start + 0.5**k * step) < norm(start) for k in range(41)]
    assert tries.index(True) == 39
    assert oracles.newton_ppml(y, x, w)[2] == "SolverError: ppml line search stalled"
    with pytest.raises(SolverError, match="ppml line search stalled") as stalled:
        pb.evaluate_estimator(spec, s, pb.uniform_weights(s))
    assert stalled.value.residual < 1e-6 * norm(start)


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
        assert weights.dense_features(s, linear_statistic(spec, s)[0]) is None
        for scheme in ("bayes", "pigeonhole"):
            res = pb.run_bootstrap(s, spec, scheme, n_draws=60, seed=6)
            expected, failures = per_draw_bootstrap(s, spec, scheme, 60, 6, None)
            assert res.failures == failures
            scale = np.max(np.abs(expected), axis=0)
            assert np.all(np.abs(res.draws - expected) <= 1e-12 * scale)


def test_non_finite_estimates_are_failed_draws(monkeypatch):
    # a user moment for the mean that returns NaN once theta passes a cutoff:
    # on draws whose weighted mean lies above the cutoff, Gauss-Newton's
    # Jacobian turns NaN and the draw fails; a ``gmm`` that returns a NaN
    # theta there instead gives NonFiniteDraw failures
    s = random_dyadic_sample(np.random.default_rng(31), 6, columns=("y",))
    mean_draws = pb.run_bootstrap(s, MEAN, "bayes", n_draws=200, seed=32).draws[:, 0]
    cutoff = np.quantile(mean_draws, 0.9)
    above = set(np.flatnonzero(mean_draws > cutoff))

    def fn(variables, theta):
        if theta[0] > cutoff:
            return np.full((variables.shape[0], 1), np.nan)
        return (variables[:, 0] - theta[0])[:, None]

    spec = pb.EstimatorSpec(
        kind="gmm", gmm_mode="one-step", moment=pb.MomentFunction("capped-mean", 1, 1, fn)
    )
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=200, seed=32)
    not_finite = "SolverError: Gauss-Newton objective or Jacobian is not finite"
    assert res.failures and {b for b, _ in res.failures} <= above
    assert {reason for _, reason in res.failures} == {not_finite}
    gmm = estimators.gmm

    def nan_past_cutoff(moment, sample, weights, *args):
        if weights @ sample.variables[:, 0] > cutoff:
            return np.full(1, np.nan), {}
        return gmm(moment, sample, weights, *args)

    monkeypatch.setattr(estimators, "gmm", nan_past_cutoff)
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=200, seed=32)
    assert {b for b, _ in res.failures} == above
    assert all(reason.startswith("NonFiniteDraw") for _, reason in res.failures)
    assert np.all(np.isfinite(res.draws))
    assert len(res.draw_metadata) == res.draws.shape[0] == 200 - res.failed_draw_count
    ci = pb.credible_interval(res, 0.9)
    assert np.all(np.isfinite(ci.lower)) and np.all(np.isfinite(ci.upper))


def test_dense_blocks_do_not_keep_the_feature_matrix(monkeypatch):
    # the dense tensor holds the features, so a block estimator that kept
    # the (N, F) feature matrix too would hold it for the whole run
    s = shaped_sample("plain", 6, 0, keep=1.0)
    features = []

    def spy(spec, sample):
        linear = linear_statistic(spec, sample)
        features.append(weakref.ref(linear[0]))
        return linear

    monkeypatch.setattr(estimators, "linear_statistic", spy)
    monkeypatch.setattr(bootstrap, "linear_statistic", spy, raising=False)
    step, for_block = bootstrap._block_estimator(s, 30, estimators.block_kernel(OLS, s))
    assert weights.dense_features(s, linear_statistic(OLS, s)[0]) is not None
    gc.collect()
    assert len(features) == 1 and features[0]() is None
    log_units = np.zeros((step, s.n_units))  # equal unit values: uniform weights
    theta, errors, infos = for_block(log_units, None, {})
    expected, _ = pb.evaluate_estimator(OLS, s, pb.uniform_weights(s))
    assert not errors and not infos
    assert np.allclose(theta, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("spec", [MEAN, OLS])
def test_sparse_blocks_build_the_features_once(monkeypatch, spec):
    s = shaped_sample("plain", 30, 0, keep=0.1)
    assert weights.dense_features(s, linear_statistic(spec, s)[0]) is None
    calls = []

    def spy(spec, sample):
        calls.append(spec)
        return linear_statistic(spec, sample)

    monkeypatch.setattr(estimators, "linear_statistic", spy)
    monkeypatch.setattr(bootstrap, "linear_statistic", spy, raising=False)
    res = pb.run_bootstrap(s, spec, "bayes", n_draws=5, seed=2)
    assert not res.failures
    assert len(calls) == 1  # one kernel gives the point estimate and the draws
