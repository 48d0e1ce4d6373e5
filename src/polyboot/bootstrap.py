"""Bootstrap orchestration: B resampling draws for any scheme x estimator.

This is the one account of the engine. The weights are a draw's only
random input, so draw b is the estimator applied to row b of a (B, N)
weight matrix. The draws are walked in blocks of about
``weights.BLOCK_BYTES`` (``weights.block_rows``), a partition set by B and
the sample's shape alone. Draw b's unit and cluster log-values
(``weights.log_draws``) come from substreams keyed by (seed, b), so its
weight row is the same bytes in any block. Each estimator has one block
kernel (``estimators.block_kernel``) that solves a block's rows together.
Its products round with the rows beside a row, so a draw is fixed for the
fixed partition, and ``threads`` > 1, which maps the blocks over a thread
pool, never changes it. A run builds the kernel once, for its point estimate and draws.

Mean, OLS and linear IV are functions of weighted feature sums
sum_k w_k f_k, which are quadratic forms in the unit values (v'F v / v'M v
for dyads, M the observed-dyad mask). When the dense feature tensor holds
at most four entries per observation (n**P * T <= 4 N), a block takes the
sums from ``weights.product_sums`` and builds no weight matrix. A row whose
normalizer underflows, or a linear-IV row whose expanded covariance
cancels, is solved from its weight row instead (``weights_of``).

Failed draws (degenerate weights, ``errors.DRAW_FAILURES``, non-finite
estimates) are recorded and left out of the quantiles, unless more than
``MAX_FAILURE_SHARE`` of the draws fail.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_model import PolyadicSample
from .errors import BootstrapError, DegenerateDraw, ParamError, SolverError, Unsupported
from .estimators import EstimatorSpec, block_kernel, evaluate_estimator
from .weights import (
    block_rows,
    dense_features,
    log_draws,
    product_sums,
    product_weights,
    uniform_weights,
    weights_for_draw,  # noqa: F401 - perfbench's tracer wraps it at this name
)

MAX_FAILURE_SHARE = 0.20
NON_FINITE = "NonFiniteDraw: the estimate is not finite"


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


@dataclass(frozen=True)
class DiscreteAtomSet:
    """Atoms (locations with masses) of a discrete distribution."""

    locations: np.ndarray  # (A, K)
    masses: np.ndarray  # (A,), summing to 1


def _block_estimator(sample, n_draws, kernel):
    """``(draws per block, for_block)`` from ``kernel``, the estimator's
    ``estimators.block_kernel``: for_block(log_units, log_levels, failed)
    gives the kernel's block result ``(theta, errors, infos)`` for a block
    of draws, and adds the rows without a positive weight to ``failed``."""
    row_floats, solve, linear = kernel
    dense = None if linear is None else dense_features(sample, linear[0])
    if dense is None:
        def for_block(log_units, log_levels, failed):
            # a failed row is NaN; its reason is failed's, whatever the kernel makes of it
            return solve(product_weights(sample, log_units, log_levels, failed))

        return block_rows(n_draws, row_floats * sample.n_obs), for_block

    finish = linear[1]  # the dense tensor holds the features, fallback rows included

    def for_block(log_units, log_levels, failed):
        def weights_of(rows):  # the weight rows of the draws a kernel solves from their weights
            levels = None if log_levels is None else log_levels[rows]
            return product_weights(sample, log_units[rows], levels)

        return finish(product_sums(sample, dense, log_units, log_levels, failed), weights_of)

    # a dense block holds the (rows, n**(P-1) T (1+F)) partial contraction
    return block_rows(n_draws, dense[0].size), for_block


def _run_draws(sample, scheme, n_draws, seed, alpha, threads, blocks):
    """``(theta (B, K), errors, infos)`` in draw order, from the block
    estimator ``blocks`` of ``_block_estimator``: errors maps a failed draw
    index to its draw failure, infos a draw index to its solver metadata."""
    step, for_block = blocks

    def run_block(b0):
        # each block draws its own random streams, so blocks may run concurrently
        failed = {}
        b1 = min(b0 + step, n_draws)
        log_units, log_levels = log_draws(sample, scheme, seed, b0, b1, alpha, failed)
        theta, errors, infos = for_block(log_units, log_levels, failed)
        errors.update((r, DegenerateDraw(reason)) for r, reason in failed.items())
        return theta, {b0 + r: e for r, e in errors.items()}, {b0 + r: i for r, i in infos.items()}

    starts = range(0, n_draws, step)
    if threads is None or threads <= 1:
        blocks = [run_block(b0) for b0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_block, starts))
    errors, infos = {}, {}
    for _, block_errors, block_infos in blocks:
        errors.update(block_errors)
        infos.update(block_infos)
    return np.concatenate([theta for theta, _, _ in blocks]), errors, infos


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
    kernel = block_kernel(spec, sample)
    point, _ = evaluate_estimator(spec, sample, uniform_weights(sample), kernel[1])
    blocks = _block_estimator(sample, n_draws, kernel)
    del kernel  # dense blocks keep no (N, F) feature matrix, so neither may the run
    theta, errors, infos = _run_draws(sample, scheme, n_draws, seed, alpha, threads, blocks)

    ok = np.isfinite(theta).all(axis=1)
    ok[list(errors)] = False
    failures = [
        (b, f"{type(errors[b]).__name__}: {errors[b]}" if b in errors else NON_FINITE)
        for b in np.flatnonzero(~ok).tolist()
    ]
    if len(failures) > MAX_FAILURE_SHARE * n_draws:
        raise BootstrapError(
            f"{len(failures)} of {n_draws} draws failed; first: {failures[0][1]}"
        )
    method = f"prior({alpha:g})" if scheme == "prior" else scheme
    return BootstrapResult(
        point_estimate=np.asarray(point, dtype=np.float64),
        draws=theta[ok],
        method=method,
        seed=int(seed),  # a NumPy integer seed would not serialize in to_dict
        n_draws_requested=n_draws,
        param_names=spec.param_names(),
        failures=tuple(failures),
        draw_metadata=tuple(infos.get(b, {}) for b in np.flatnonzero(ok).tolist()),
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


def limiting_prior_atoms(sample: PolyadicSample, spec: EstimatorSpec) -> DiscreteAtomSet:
    """Atoms of the estimator's limiting marginal prior: the weak limit of
    ``prior`` draws as alpha falls to zero.

    Such a draw puts all its weight on the pair of units with the two
    largest Gamma values, half on each of the pair's two dyads, so unordered
    pair i < j is an atom at the estimate of log unit values 0 at i and j
    and -inf elsewhere. Those rows run in blocks through the draws' own
    kernel: mean, OLS and linear IV solve from the sums (f_ij + f_ji) / 2,
    PPML and user moments from weights 1/2, 1/2. On a complete index set
    every pair is equally likely, so each atom has mass 1/A.

    ``Unsupported``: an order other than 2; a cluster dimension (the levels'
    C_t stay random, so the limit has no atoms); unit groups, which the
    ``prior`` scheme refuses; and missing dyads, where a pair's limit mass
    is the chance that E_i + E_j is least among the observed pairs (E iid
    Exp(1)), not uniform. A pair whose estimate fails raises the kernel's
    error, naming both units.
    """
    if sample.order != 2:
        raise Unsupported("limiting prior atoms are defined for dyadic samples")
    if sample.cluster_ids is not None:
        raise Unsupported("limiting prior atoms do not exist with a cluster dimension")
    if sample.group_of_unit is not None:
        raise Unsupported("the prior scheme does not support unit groups")
    if not sample.has_full_index_set():
        raise Unsupported("limiting prior atoms require the full index set (no missing dyads)")
    pairs = np.argwhere(np.triu(np.ones((sample.n_units,) * 2, dtype=bool), 1))
    step, for_block = _block_estimator(sample, len(pairs), block_kernel(spec, sample))
    locations = []
    for b0 in range(0, len(pairs), step):
        block = pairs[b0 : b0 + step]
        log_units = np.full((len(block), sample.n_units), -np.inf)
        np.put_along_axis(log_units, block, 0.0, axis=1)
        theta, errors, _ = for_block(log_units, None, {})
        failed = {*errors, *np.flatnonzero(~np.isfinite(theta).all(axis=1)).tolist()}
        if failed:
            r = min(failed)
            exc = errors.get(r) or SolverError(NON_FINITE)
            i, j = (sample.unit_labels[u] for u in block[r])
            raise type(exc)(f"the estimate on the pair ({i!r}, {j!r}) failed: {exc}") from exc
        locations.append(theta)
    locations = np.concatenate(locations)
    return DiscreteAtomSet(locations, np.full(len(locations), 1.0 / len(locations)))
