"""Bootstrap orchestration: B resampling draws for any scheme x estimator.

The weights are a draw's only random input, so draw b is the estimator
applied to row b of a (B, N) weight matrix. The engine walks the draws in
blocks (``weights.block_rows``: about 4 MB of working set each, a function
of B and the sample's shape only), each from its unit and cluster
log-draws (``weights.log_draws``).

Mean and OLS are functions of weighted feature sums s = sum_k w_k f_k,
f = y for the mean and f = [vec(x x'), x y] for OLS: one kernel,
``estimators.linear_statistic``, gives their point estimate and every
draw, and solves a whole block's k x k normal equations in one batched
call. Such a sum is a quadratic form in the unit values, v'F v / v'M v for
dyads with M the observed-dyad mask, so when the dense feature tensor holds
at most four entries per observation (n**P * T <= 4 N) the sums come from
``weights.product_sums`` without building the weight matrix; a draw whose
normalizer v'M v is not finite or below e**-600 has its weight row built
from the same draws instead. Sparser samples multiply each block of the
weight matrix by the features. PPML solves a block of weight rows with one
damped Newton (``ppml.ppml_newton``) and linear-IV GMM with one exact
weighted solve per re-weighting round (``linear_iv.linear_iv_gmm``), in
blocks of ``ppml.PPML_ROW_FLOATS`` or ``linear_iv.IV_ROW_FLOATS`` values per
draw and observation; other GMM moments evaluate the estimator on each
weight row.

Blocks run serially unless ``threads`` > 1 maps them over a thread pool;
since each block owns its random streams and the partition never depends
on the thread count, the draws are the same bit for bit for any
``threads``.

Failed draws (degenerate weights, solver failures, singular designs or
weight matrices, non-finite estimates) are recorded and excluded from
quantiles rather than aborting the run, unless they exceed a 20%
systematic-failure cap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data_model import PolyadicSample
from .errors import (
    BootstrapError,
    DegenerateDraw,
    EvalError,
    ParamError,
    SingularDesign,
    SingularWeightMatrix,
    SolverError,
    Unsupported,
)
from .estimators import EstimatorSpec, evaluate_estimator, linear_row, linear_statistic
from .linear_iv import IV_ROW_FLOATS, linear_iv_gmm
from .ppml import PPML_ROW_FLOATS, ppml_newton
from .weights import (
    ObservationWeights,
    block_rows,
    dense_features,
    log_draws,
    product_sums,
    product_weights,
    uniform_weights,
    weights_for_draw,  # noqa: F401 - importable here for per-draw callers
)

_DRAW_FAILURES = (DegenerateDraw, SolverError, SingularWeightMatrix, SingularDesign)
MAX_FAILURE_SHARE = 0.20


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate plus the posterior/bootstrap draw matrix."""

    point_estimate: np.ndarray
    draws: np.ndarray  # (successful draws, K)
    method: str
    seed: int
    n_draws_requested: int
    param_names: tuple
    failures: tuple  # (draw index, reason string) pairs
    draw_metadata: tuple  # one info dict per successful draw, in draw order

    @property
    def failed_draw_count(self) -> int:
        return len(self.failures)

    def to_dict(self, emit_draws=False) -> dict:
        out = {
            "method": self.method,
            "seed": self.seed,
            "B": self.n_draws_requested,
            "failed": self.failed_draw_count,
            "param_names": list(self.param_names),
            "point_estimate": self.point_estimate.tolist(),
            "diagnostics": {
                "failures": [list(f) for f in self.failures],
            },
        }
        if emit_draws:
            out["draws"] = self.draws.tolist()
        return out


@dataclass(frozen=True)
class CredibleInterval:
    """Equal-tailed empirical-quantile interval per parameter."""

    level: float
    lower: np.ndarray
    upper: np.ndarray

    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class DiscreteAtomSet:
    """Atoms (locations with masses) of a discrete distribution."""

    locations: np.ndarray  # (A, K)
    masses: np.ndarray  # (A,)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        if np.any(m < 0) or abs(m.sum() - 1.0) > 1e-12:
            raise ParamError("masses must be nonnegative and sum to 1")


def _block_estimator(sample, spec, n_draws):
    """``(draws per block, for_block)``: for_block(log_units, log_levels,
    failed) gives the row -> (theta, info) estimator of a block of draws; a
    failed row raises its draw failure, and rows without a positive weight
    are added to ``failed``. Mean, OLS, PPML and linear-IV GMM solve a whole
    block at once."""
    solve = ppml_newton(spec, sample) if spec.kind == "ppml" else linear_iv_gmm(spec, sample)
    if solve is not None:

        def for_block(log_units, log_levels, failed):
            # a failed row is NaN, so its start is singular and it never iterates
            return solve(product_weights(sample, log_units, log_levels, failed))

        row_floats = PPML_ROW_FLOATS if spec.kind == "ppml" else IV_ROW_FLOATS
        return block_rows(n_draws, row_floats * sample.n_obs), for_block

    linear = linear_statistic(spec, sample)
    if linear is None:

        def for_block(log_units, log_levels, failed):
            block = product_weights(sample, log_units, log_levels, failed)
            return lambda r: evaluate_estimator(spec, sample, ObservationWeights(block[r]))

        return block_rows(n_draws, sample.n_obs), for_block

    features, finish = linear
    dense = dense_features(sample, features)
    if dense is not None:
        features = None  # the dense tensor holds them, fallback rows included

    def for_block(log_units, log_levels, failed):
        if dense is None:
            sums = product_weights(sample, log_units, log_levels, failed) @ features
        else:
            sums = product_sums(sample, dense, log_units, log_levels, failed)
        return partial(linear_row, *finish(sums))

    # a dense block holds the (rows, n**(P-1) T (1+F)) partial contraction
    return block_rows(n_draws, sample.n_obs if dense is None else dense[0].size), for_block


def _run_draws(sample, spec, scheme, n_draws, seed, alpha, threads):
    """(b, theta, info, failure reason or None) per draw, in draw order."""
    step, for_block = _block_estimator(sample, spec, n_draws)

    def run_block(b0):
        # each block draws its own random streams, so blocks may run concurrently
        failed = {}
        b1 = min(b0 + step, n_draws)
        log_units, log_levels = log_draws(sample, scheme, seed, b0, b1, alpha, failed)
        estimate = for_block(log_units, log_levels, failed)
        out = []
        for r, b in enumerate(range(b0, b1)):
            if r in failed:
                out.append((b, None, None, f"DegenerateDraw: {failed[r]}"))
                continue
            try:
                out.append((b, *estimate(r), None))
            except _DRAW_FAILURES as exc:
                out.append((b, None, None, f"{type(exc).__name__}: {exc}"))
        return out

    starts = range(0, n_draws, step)
    if threads is None or threads <= 1:
        blocks = [run_block(b0) for b0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, starts))
    return [draw for block in blocks for draw in block]


def run_bootstrap(
    sample: PolyadicSample,
    spec: EstimatorSpec,
    scheme: str = "bayes",
    n_draws: int = 1000,
    seed: int = 0,
    alpha: float | None = None,
    threads: int | None = None,
) -> BootstrapResult:
    """Run B resampling draws of the estimator under a weighting scheme.

    ``scheme`` is ``bayes``, ``pigeonhole`` or ``prior`` (the Gamma(alpha/n)
    marginal-prior sampler). Draw b uses the substreams keyed by (seed, b),
    so the result is reproducible and the same bit for bit for any
    ``threads``: None or 1 runs the weight blocks serially, more maps them
    over a pool of that many threads.
    """
    if n_draws < 1:
        raise ParamError("need at least one draw")
    point, _ = evaluate_estimator(spec, sample, uniform_weights(sample))
    results = _run_draws(sample, spec, scheme, n_draws, seed, alpha, threads)

    solved = [r for r in results if r[3] is None]
    thetas = np.array([r[1] for r in solved], dtype=np.float64).reshape(len(solved), len(point))
    finite = np.isfinite(thetas).all(axis=1)
    non_finite = {r[0] for r, ok in zip(solved, finite) if not ok}
    failures = [
        (b, "NonFiniteDraw: the estimate is not finite" if err is None else err)
        for b, _, _, err in results
        if err is not None or b in non_finite
    ]
    if len(failures) > MAX_FAILURE_SHARE * n_draws:
        raise BootstrapError(
            f"{len(failures)} of {n_draws} draws failed; first: {failures[0][1]}"
        )
    method = f"prior({alpha:g})" if scheme == "prior" else scheme
    return BootstrapResult(
        point_estimate=np.asarray(point, dtype=np.float64),
        draws=thetas[finite],
        method=method,
        seed=int(seed),  # a NumPy integer seed would not serialize in to_dict
        n_draws_requested=n_draws,
        param_names=spec.param_names(),
        failures=tuple(failures),
        draw_metadata=tuple(r[2] for r, ok in zip(solved, finite) if ok),
    )


def check_level(level: float) -> None:
    """An interval level must lie in (0, 1)."""
    if not 0 < level < 1:
        raise ParamError("level must be in (0, 1)")


def equal_tailed_interval(draws, level: float) -> CredibleInterval:
    """Equal-tailed interval from the empirical quantiles of ``draws`` (B, K)
    (linear interpolation between order statistics)."""
    check_level(level)
    if draws.shape[0] < 2:
        raise ParamError("need at least 2 successful draws for quantiles")
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [tail, 1.0 - tail], axis=0, method="linear")
    return CredibleInterval(level, lo, hi)


def credible_interval(result: BootstrapResult, level: float) -> CredibleInterval:
    """The equal-tailed interval of the successful draws."""
    return equal_tailed_interval(result.draws, level)


def limiting_prior_atoms(sample: PolyadicSample, rho, chi) -> DiscreteAtomSet:
    """Atoms of the limiting marginal prior for estimators chi(E[rho(X)]).

    Each unordered pair with both directions observed contributes an atom at
    the midpoint of its two one-observation evaluations; a pair with a
    single observed direction contributes that evaluation alone. Masses are
    uniform over contributing pairs.
    """
    if sample.order != 2:
        raise Unsupported("limiting prior atoms are defined for dyadic samples")
    feats = np.asarray(rho(sample.variables), dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    row_of = {}
    for r, (i, j) in enumerate(sample.index.tolist()):
        row_of[(i, j)] = r

    def chi_at(row, pair):
        value = np.atleast_1d(np.asarray(chi(feats[row]), dtype=np.float64))
        if not np.all(np.isfinite(value)):
            labels = (sample.unit_labels[pair[0]], sample.unit_labels[pair[1]])
            raise EvalError(f"chi undefined at the observation for pair {labels}")
        return value

    locations = []
    seen = set()
    for (i, j), r in row_of.items():
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        r_back = row_of.get((j, i))
        if r_back is None:
            locations.append(chi_at(r, (i, j)))
        else:
            locations.append(0.5 * (chi_at(r, (i, j)) + chi_at(r_back, (j, i))))
    locations = np.asarray(locations)
    masses = np.full(len(locations), 1.0 / len(locations))
    return DiscreteAtomSet(locations, masses)
