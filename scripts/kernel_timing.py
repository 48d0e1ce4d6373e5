"""Time the weighted-sum kernel of mean and OLS draws, layer by layer.

For each shape the B draws' weighted feature sums are computed two ways:
materialized (``weights_for_block`` rows times the features, the path of
sparse samples) and factorized (``product_sums`` on the same ``log_draws``,
the path ``run_bootstrap`` takes here). The script prints the median wall
time of each, the time of the estimates that follow (one batched
``finish`` of ``estimators.linear_statistic`` over the B rows of sums),
and the largest difference between the two paths' draws relative to each
parameter's largest draw. The shapes are those of the benchmark's
coverage-small (mean, n=40, B=500) and cli-large (OLS, n=300, B=1000).

For PPML (solver-mix's two gravity jobs, n=40, B=200: bayes, and prior
with alpha = n/2) it times the damped Newton on the same weight rows two
ways: row by row (the test suite's oracle, ``tests/oracles.py``) and
batched over the engine's blocks (``ppml.ppml_newton``), and prints the
rows of those blocks and the largest difference between their draws
relative to each parameter's largest draw. A third table
times the two forms of linear-IV GMM (``linear_iv.linear_iv_gmm``) from
the same draws, each over its own blocks: the weight-row kernel on
``weights_for_block`` rows, and the factorized form on ``product_sums``
(the path ``run_bootstrap`` takes on dense index sets), with the largest
difference between their draws. The shapes are solver-mix's jobs
(``overidentified_iv_sample(n=30)``, L = 3 instruments), a wide spec
whose dense feature tensor nearly fills ``weights.BLOCK_BYTES`` (n=50,
L = 7 with an intercept: 3.8 of 4 MB), and six instruments over the
89,700 dyads of n=300, the size of cli-large's CSV, past that bound, where
only the weight-row kernel runs.

Another table times the draws' random inputs, one ``weights.log_draws``
call for all B draws (its work is per row, so the block partition barely
moves it), in ms and in us per draw: bayes, pigeonhole and prior
(alpha = n/2) at coverage-small's n=40, B=500, and bayes at cli-large's
n=300, B=1000. It checks the first rows against the same draws rebuilt
from each row's own ``rng.substream``.

The user-moment table times ``run_bootstrap`` on the builtin PPML and
linear-IV two-step moments passed as user ``MomentFunction``s, which solve
each draw with ``estimators.gmm``, against the builtin kernels on the same
bayes draws (solver-mix's shapes, B=200), with the user moment's time per
draw and the largest difference between the two runs' draws. Set
OPENBLAS_NUM_THREADS=1 (or the BLAS's own variable) to time one thread.

Usage: PYTHONPATH=src python scripts/kernel_timing.py [repeats]
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from polyboot import EstimatorSpec, build_moment, coverage, linear_iv, rng, run_bootstrap, weights
from polyboot.estimators import linear_statistic, regressors
from polyboot.fixtures import gravity_sample, overidentified_iv_sample
from polyboot.ppml import ppml_newton

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402 - the per-row PPML Newton lives with the tests

MEAN = EstimatorSpec(kind="mean", column="y")
OLS = EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
SHAPES = [  # (label, dgp, estimator, scheme, draws)
    ("mean n=40 B=500 bayes", coverage.mean_unit_effects_dgp(40), MEAN, "bayes", 500),
    ("mean n=40 B=500 pigeonhole", coverage.mean_unit_effects_dgp(40), MEAN, "pigeonhole", 500),
    ("ols n=300 B=1000 bayes", coverage.ols_unit_effects_dgp(300), OLS, "bayes", 1000),
]
GRAVITY = EstimatorSpec(
    kind="ppml", y="flow", x=("size_origin", "size_destination", "log_friction"), intercept=True
)
PPML_SHAPES = [  # (label, units, scheme, alpha, draws)
    ("ppml n=40 B=200 bayes", 40, "bayes", None, 200),
    ("ppml n=40 B=200 prior n/2", 40, "prior", 20.0, 200),
]
IV_SHAPES = [  # (label, units, instruments, intercept, GMM mode, weight style, scheme, draws)
    ("iv 2-step n=30 L=3 B=200 pigeon", 30, 3, False, "two-step", "centered", "pigeonhole", 200),
    ("iv iterated n=30 L=3 B=100 bayes", 30, 3, False, "iterated", "centered", "bayes", 100),
    ("iv iter-acm n=30 L=3 B=100 bayes", 30, 3, False, "iterated", "acm", "bayes", 100),
    ("iv iterated n=50 L=7 B=100 bayes", 50, 6, True, "iterated", "centered", "bayes", 100),
    ("iv 2-step n=300 L=6 B=20 bayes", 300, 6, False, "two-step", "centered", "bayes", 20),
]

DRAW_SHAPES = [  # (label, units, scheme, alpha, draws)
    ("draws n=40 B=500 bayes", 40, "bayes", None, 500),
    ("draws n=40 B=500 pigeonhole", 40, "pigeonhole", None, 500),
    ("draws n=40 B=500 prior n/2", 40, "prior", 20.0, 500),
    ("draws n=300 B=1000 bayes", 300, "bayes", None, 1000),
]
IV_TWO_STEP = EstimatorSpec(
    kind="gmm", builtin_moment="linear-iv", y="y", x=("r",), instruments=("z1", "z2", "z3")
)
USER_SHAPES = [  # (label, builtin estimator, units, bayes draws)
    ("user ppml n=40 B=200 bayes", GRAVITY, 40, 200),
    ("user iv 2-step n=30 B=200 bayes", IV_TWO_STEP, 30, 200),
]
ORACLE_ROWS = 3  # leading rows of each block checked against per-row substreams


def materialized(sample, features, scheme, seed, n_draws):
    step = weights.block_rows(n_draws, sample.n_obs)
    sums = np.empty((n_draws, features.shape[1]))
    for b0 in range(0, n_draws, step):
        b1 = min(b0 + step, n_draws)
        sums[b0:b1] = weights.weights_for_block(sample, scheme, seed, b0, b1, failed={}) @ features
    return sums  # a degenerate draw's row is NaN


def factorized(sample, features, scheme, seed, n_draws):
    dense = weights.dense_features(sample, features)
    step = weights.block_rows(n_draws, dense[0].size)
    sums = np.empty((n_draws, features.shape[1]))
    for b0 in range(0, n_draws, step):
        b1 = min(b0 + step, n_draws)
        failed = {}
        log_draws = weights.log_draws(sample, scheme, seed, b0, b1, None, failed)
        sums[b0:b1] = weights.product_sums(sample, dense, *log_draws, failed)
    return sums  # a degenerate draw's row is NaN


def ppml_per_row(sample, rows):
    x, y = regressors(sample, GRAVITY.x, GRAVITY.intercept), sample.column(GRAVITY.y)
    return np.array([oracles.newton_ppml(y, x, w)[0] for w in rows])  # no row fails here


def batched(solve, rows, step):
    # no row fails here, so every theta is a draw
    return np.concatenate([solve(rows[b0 : b0 + step])[0] for b0 in range(0, len(rows), step)])


def iv_weight_rows(spec, sample, scheme, seed, n_draws):
    solve = linear_iv.linear_iv_gmm(spec, sample)[0]
    step = weights.block_rows(n_draws, weights.ROW_FLOATS * sample.n_obs)
    return np.concatenate([
        solve(weights.weights_for_block(sample, scheme, seed, b0, min(b0 + step, n_draws)))[0]
        for b0 in range(0, n_draws, step)
    ])  # no draw fails here


def iv_factorized(spec, sample, scheme, seed, n_draws):
    features, finish = linear_iv.linear_iv_gmm(spec, sample)[1]
    dense = weights.dense_features(sample, features)
    step = weights.block_rows(n_draws, dense[0].size)
    theta = []
    for b0 in range(0, n_draws, step):
        b1 = min(b0 + step, n_draws)
        log_units, _ = weights.log_draws(sample, scheme, seed, b0, b1, None, {})
        sums = weights.product_sums(sample, dense, log_units, None, {})
        theta.append(finish(sums, lambda rows: weights.product_weights(sample, log_units[rows]))[0])
    return np.concatenate(theta)  # no draw fails here


def substream_log_units(n, scheme, alpha, seed, b):
    """Draw b's unit log-values from its own ``rng.substream``."""
    with np.errstate(divide="ignore"):
        if scheme == "bayes":
            return np.log(-np.log1p(-rng.substream(seed, rng.ROLE_UNIT, b).random(n)))
        if scheme == "pigeonhole":
            gen = rng.substream(seed, rng.ROLE_PIGEONHOLE, b)
            return np.log(gen.multinomial(n, np.full(n, 1.0 / n)))
        a = alpha / n
        gen = rng.substream(seed, rng.ROLE_GAMMA, b)
        y = gen.standard_gamma(a + 1.0, n)
        return np.log(y) + np.log(1.0 - gen.random(n)) / a


def timed(fn, repeats, *args):
    times, out = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times), out


def print_pair(label, ms_row, ms_batch, a, b, end=""):
    diff = np.max(np.abs(a - b) / np.max(np.abs(a), axis=0))
    print(f"{label:32} {ms_row:16.1f} {ms_batch:14.1f} {diff:13.1e}{end}")


def main(repeats=5):
    print(f"{'shape':32} {'materialized ms':>16} {'factorized ms':>14} {'estimates ms':>13} "
          f"{'max rel diff':>13}")
    for label, dgp, spec, scheme, n_draws in SHAPES:
        sample = coverage.generate_synthetic(dgp, 1, 0)
        features, finish = linear_statistic(spec, sample)
        args = (sample, features, scheme, 7, n_draws)
        ms_mat, a = timed(materialized, repeats, *args)
        ms_fac, b = timed(factorized, repeats, *args)
        ok = np.isfinite(a).all(axis=1)
        assert np.array_equal(ok, np.isfinite(b).all(axis=1))  # the same degenerate draws
        ms_est, (theta_b, _, _) = timed(finish, repeats, b[ok])
        theta_a = finish(a[ok])[0]
        diff = np.max(np.abs(theta_a - theta_b) / np.max(np.abs(theta_a), axis=0))
        print(f"{label:32} {ms_mat:16.1f} {ms_fac:14.1f} {ms_est:13.1f} {diff:13.1e}")
    print(f"{'shape':32} {'per-row ms':>16} {'batched ms':>14} {'max rel diff':>13} "
          f"{'block rows':>11}")
    for label, n, scheme, alpha, n_draws in PPML_SHAPES:
        sample = gravity_sample(n=n)
        rows = weights.weights_for_block(sample, scheme, 7, 0, n_draws, alpha)
        ms_row, a = timed(ppml_per_row, repeats, sample, rows)
        solve = ppml_newton(GRAVITY, sample)
        step = weights.block_rows(n_draws, weights.ROW_FLOATS * sample.n_obs)
        ms_batch, b = timed(batched, repeats, solve, rows, step)
        print_pair(label, ms_row, ms_batch, a, b, f" {step:11d}")
    print(f"{'shape':32} {'weight-row ms':>16} {'factorized ms':>14} {'max rel diff':>13}")
    for label, n, n_instruments, intercept, mode, style, scheme, n_draws in IV_SHAPES:
        sample = overidentified_iv_sample(n=n, extra=n_instruments - 3)
        spec = EstimatorSpec(
            kind="gmm", builtin_moment="linear-iv", y="y", x=("r",), intercept=intercept,
            instruments=sample.variable_names[2:], gmm_mode=mode, weight_style=style,
        )
        args = (spec, sample, scheme, 7, n_draws)
        ms_row, a = timed(iv_weight_rows, repeats, *args)
        if linear_iv.linear_iv_gmm(spec, sample)[1] is None:  # past weights.BLOCK_BYTES
            print(f"{label:32} {ms_row:16.1f} {'-':>14} {'-':>13}")
            continue
        ms_fac, b = timed(iv_factorized, repeats, *args)
        print_pair(label, ms_row, ms_fac, a, b)
    print(f"{'shape':32} {'log_draws ms':>16} {'us per draw':>14}")
    for label, n, scheme, alpha, n_draws in DRAW_SHAPES:
        sample = coverage.generate_synthetic(coverage.mean_unit_effects_dgp(n), 1, 0)
        args = (sample, scheme, 7, 0, n_draws, alpha, {})  # no group: no row fails
        ms, (log_units, _) = timed(weights.log_draws, repeats, *args)
        for b in range(min(ORACLE_ROWS, n_draws)):
            assert np.array_equal(log_units[b], substream_log_units(n, scheme, alpha, 7, b))
        print(f"{label:32} {ms:16.2f} {1e3 * ms / n_draws:14.2f}")
    print(f"{'shape':32} {'user moment ms':>16} {'builtin ms':>14} {'max rel diff':>13} "
          f"{'user us/draw':>13}")
    for label, spec, n, n_draws in USER_SHAPES:
        sample = gravity_sample(n=n) if spec.kind == "ppml" else overidentified_iv_sample(n=n)
        user = EstimatorSpec(kind="gmm", moment=build_moment(spec, sample), gmm_mode=spec.gmm_mode)
        ms_user, a = timed(run_bootstrap, repeats, sample, user, "bayes", n_draws, 7)
        ms_builtin, b = timed(run_bootstrap, repeats, sample, spec, "bayes", n_draws, 7)
        us_per_draw = 1e3 * ms_user / n_draws
        print_pair(label, ms_user, ms_builtin, a.draws, b.draws, f" {us_per_draw:13.0f}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
