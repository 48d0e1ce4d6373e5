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

Usage: PYTHONPATH=src python scripts/kernel_timing.py [repeats]
"""

import statistics
import sys
import time

import numpy as np

from polyboot import EstimatorSpec, coverage, weights
from polyboot.estimators import linear_statistic

MEAN = EstimatorSpec(kind="mean", column="y")
OLS = EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
SHAPES = [  # (label, dgp, estimator, scheme, draws)
    ("mean n=40 B=500 bayes", coverage.mean_unit_effects_dgp(40), MEAN, "bayes", 500),
    ("mean n=40 B=500 pigeonhole", coverage.mean_unit_effects_dgp(40), MEAN, "pigeonhole", 500),
    ("ols n=300 B=1000 bayes", coverage.ols_unit_effects_dgp(300), OLS, "bayes", 1000),
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


def timed(fn, repeats, *args):
    times, out = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times), out


def main(repeats=5):
    print(f"{'shape':28} {'materialized ms':>16} {'factorized ms':>14} {'estimates ms':>13} "
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
        print(f"{label:28} {ms_mat:16.1f} {ms_fac:14.1f} {ms_est:13.1f} {diff:13.1e}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
