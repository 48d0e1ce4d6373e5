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

For PPML (solver-mix's gravity shape, n=40, B=200) it times the damped
Newton on the same weight rows two ways: row by row (the test suite's
oracle, ``tests/oracles.py``) and batched over the engine's blocks
(``ppml.ppml_newton``), and prints the largest difference between
their draws relative to each parameter's largest draw. A last table
times linear-IV GMM: per-row ``estimators.gmm`` against the closed form
of ``linear_iv.linear_iv_gmm`` over the engine's blocks, on solver-mix's
jobs (``overidentified_iv_sample(n=30)``, L = 3 instruments) and on six
instruments over the 89,700 dyads of n=300, the size of cli-large's CSV.

Usage: PYTHONPATH=src python scripts/kernel_timing.py [repeats]
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from polyboot import EstimatorSpec, ObservationWeights, build_moment, coverage, gmm, linear_iv, weights
from polyboot.estimators import linear_statistic, regressors
from polyboot.fixtures import gravity_sample, overidentified_iv_sample
from polyboot.ppml import PPML_ROW_FLOATS, ppml_newton

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
PPML_SHAPES = [("ppml n=40 B=200 bayes", 40, "bayes", 200)]  # (label, units, scheme, draws)
IV_SHAPES = [  # (label, units, instruments, GMM mode, weight style, scheme, draws)
    ("iv 2-step n=30 L=3 B=200 pigeon", 30, 3, "two-step", "centered", "pigeonhole", 200),
    ("iv iterated n=30 L=3 B=100 bayes", 30, 3, "iterated", "centered", "bayes", 100),
    ("iv iter-acm n=30 L=3 B=100 bayes", 30, 3, "iterated", "acm", "bayes", 100),
    ("iv 2-step n=300 L=6 B=20 bayes", 300, 6, "two-step", "centered", "bayes", 20),
]


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


def gmm_per_row(spec, sample, rows):
    moment = build_moment(spec, sample)
    return np.array([
        gmm(moment, sample, ObservationWeights(w), spec.settings, spec.gmm_mode,
            spec.weight_style)[0]
        for w in rows
    ])  # no row fails here


def batched(solve, rows, step):
    draws = []
    for b0 in range(0, len(rows), step):
        block = rows[b0 : b0 + step]
        row = solve(block)
        draws += [row(r)[0] for r in range(len(block))]
    return np.array(draws)


def timed(fn, repeats, *args):
    times, out = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times), out


def print_pair(label, ms_row, ms_batch, a, b):
    diff = np.max(np.abs(a - b) / np.max(np.abs(a), axis=0))
    print(f"{label:32} {ms_row:16.1f} {ms_batch:14.1f} {diff:13.1e}")


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
        ms_est, (theta_b, _) = timed(finish, repeats, b[ok])
        theta_a = finish(a[ok])[0]
        diff = np.max(np.abs(theta_a - theta_b) / np.max(np.abs(theta_a), axis=0))
        print(f"{label:32} {ms_mat:16.1f} {ms_fac:14.1f} {ms_est:13.1f} {diff:13.1e}")
    print(f"{'shape':32} {'per-row ms':>16} {'batched ms':>14} {'max rel diff':>13}")
    for label, n, scheme, n_draws in PPML_SHAPES:
        sample = gravity_sample(n=n)
        rows = weights.weights_for_block(sample, scheme, 7, 0, n_draws)
        ms_row, a = timed(ppml_per_row, repeats, sample, rows)
        solve = ppml_newton(GRAVITY, sample)
        step = weights.block_rows(n_draws, PPML_ROW_FLOATS * sample.n_obs)
        ms_batch, b = timed(batched, repeats, solve, rows, step)
        print_pair(label, ms_row, ms_batch, a, b)
    print(f"{'shape':32} {'per-row ms':>16} {'batched ms':>14} {'max rel diff':>13}")
    for label, n, n_instruments, mode, style, scheme, n_draws in IV_SHAPES:
        sample = overidentified_iv_sample(n=n, extra=n_instruments - 3)
        spec = EstimatorSpec(
            kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
            instruments=sample.variable_names[2:], gmm_mode=mode, weight_style=style,
        )
        rows = weights.weights_for_block(sample, scheme, 7, 0, n_draws)
        ms_row, a = timed(gmm_per_row, repeats, spec, sample, rows)
        step = weights.block_rows(n_draws, linear_iv.IV_ROW_FLOATS * sample.n_obs)
        solve = linear_iv.linear_iv_gmm(spec, sample)
        ms_batch, b = timed(batched, repeats, solve, rows, step)
        print_pair(label, ms_row, ms_batch, a, b)


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
