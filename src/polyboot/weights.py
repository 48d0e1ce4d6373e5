"""Bayesian bootstrap weights: one product rule for every scheme.

Draw b gives each of the n units a nonnegative random value V_i:

- ``bayes``: Exp(1), normalized within each unit group when the sample
  declares groups (one flat Dirichlet per group);
- ``prior``: Gamma(alpha/n, 1);
- ``pigeonhole``: the counts of n uniform picks of the units.

When the sample has a cluster dimension and the scheme is not
``pigeonhole``, each cluster level t gets an Exp(1) value C_t as well. The
weight of observed tuple k = (i_1, ..., i_P) in level t is

    w_k = C_t * V_{i_1} * ... * V_{i_P}, divided by the sum over the
    observed tuples,

Rubin's (1981) Bayesian bootstrap applied to every index dimension at once.
Products are formed in log space so that extreme prior draws (tiny alpha)
survive without underflow.

Weights are built a block of draws at a time: ``weights_for_block`` returns
rows b0..b1-1 of the (B, N) weight matrix, and ``weights_for_draw`` is its
one-row case. Draw b's values come from substream (seed, role, b, lane)
whatever block it falls in, so every row is the same bit for bit under any
block partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .data_model import PolyadicSample
from .errors import DegenerateDraw, ParamError

# Gamma shapes below this floor are clamped: smaller values are numerically
# indistinguishable in the product-weight limit and risk degenerate streams.
MIN_GAMMA_SHAPE = 1e-6

# Memory budget of one weight block; fixing it (rather than deriving it
# from the thread count) makes the block partition a function of (B, N).
BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class ObservationWeights:
    """Normalized weight per observed index tuple."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def uniform_weights(sample: PolyadicSample) -> ObservationWeights:
    return ObservationWeights(np.full(sample.n_obs, 1.0 / sample.n_obs))


def block_rows(n_draws: int, n_obs: int) -> int:
    """Draws per weight block: BLOCK_BYTES of float64 rows, within [1, n_draws]."""
    return min(max(BLOCK_BYTES // (8 * n_obs), 1), n_draws)


# ---------------------------------------------------------------------------
# unit values, one row per draw index


def _exponential(streams, b0, b1, n, lane=0):
    """Exp(1) variates by inverse CDF, -log(1 - U): (values, log values).

    The inverse CDF keeps the stream portable across platforms.
    """
    u = np.empty((b1 - b0, n))
    for r in range(b1 - b0):
        u[r] = streams.at(b0 + r, lane).random(n)
    values = -np.log1p(-u)
    with np.errstate(divide="ignore"):
        return values, np.log(values)


def _gamma(streams, b0, b1, n, alpha):
    """Gamma(alpha/n, 1) by the shape boost V = Y * U**(1/a), Y ~ Gamma(a + 1),
    carried in log space so shapes down to the 1e-6 clamp stay usable."""
    a = max(alpha / n, MIN_GAMMA_SHAPE)
    y = np.empty((b1 - b0, n))
    u = np.empty((b1 - b0, n))
    for r in range(b1 - b0):
        g = streams.at(b0 + r)
        y[r] = g.standard_gamma(a + 1.0, n)
        u[r] = g.random(n)
    with np.errstate(divide="ignore"):
        log_values = np.log(y) + np.log(1.0 - u) / a  # 1 - U lies in (0, 1]
    return np.exp(log_values), log_values


def _pigeonhole(streams, b0, b1, n):
    """Multinomial counts of n uniform draws over the n units."""
    counts = np.empty((b1 - b0, n))
    p = np.full(n, 1.0 / n)
    for r in range(b1 - b0):
        counts[r] = streams.at(b0 + r).multinomial(n, p)
    with np.errstate(divide="ignore"):
        return counts, np.log(counts)


def unit_draws(n: int, scheme: str, seed: int, b0: int, b1: int, alpha: float | None = None):
    """The unit values of draws b0..b1-1: ``(values, log_values)``, each of
    shape (b1 - b0, n).

    ``bayes`` gives Exp(1) values, ``prior`` Gamma(alpha/n, 1) values and
    ``pigeonhole`` multinomial counts. ``log_values`` is exact where
    ``values`` underflows to 0 (tiny-shape Gamma draws).
    """
    if not 0 <= b0 < b1:
        raise ParamError("need 0 <= b0 < b1")
    if n < 2:
        raise ParamError("need n >= 2 units")
    if scheme == "bayes":
        return _exponential(rng.Substreams(seed, rng.ROLE_UNIT), b0, b1, n)
    if scheme == "pigeonhole":
        return _pigeonhole(rng.Substreams(seed, rng.ROLE_PIGEONHOLE), b0, b1, n)
    if scheme != "prior":
        raise ParamError(f"unknown scheme {scheme!r}")
    if alpha is None:
        raise ParamError("prior scheme requires alpha")
    if not alpha > 0:
        raise ParamError(f"alpha must be > 0, got {alpha}")
    return _gamma(rng.Substreams(seed, rng.ROLE_GAMMA), b0, b1, n, alpha)


def _grouped_log_units(sample, seed, b0, b1, failed):
    """Exp(1) unit log-values normalized within each unit group; group g
    draws on lane g of the unit stream. A row whose group draw sums to zero
    is recorded in ``failed`` (row -> reason)."""
    groups = np.asarray(sample.group_of_unit)
    members = [np.flatnonzero(groups == g_id) for g_id in range(sample.n_groups)]
    for g_id, m in enumerate(members):
        if m.size < 1:
            raise ParamError(f"group {g_id} has no units")
    streams = rng.Substreams(seed, rng.ROLE_UNIT)
    log_units = np.empty((b1 - b0, sample.n_units))
    for g_id, m in enumerate(members):
        values, log_values = _exponential(streams, b0, b1, m.size, lane=g_id)
        totals = np.array([row.sum() for row in values])
        for r in np.flatnonzero(~(totals > 0)):
            failed.setdefault(int(r), f"group {g_id} draw sums to zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            log_units[:, m] = log_values - np.log(totals)[:, None]
    return log_units


# ---------------------------------------------------------------------------
# the product rule


def product_weights(
    sample: PolyadicSample,
    log_units: np.ndarray,
    log_levels: np.ndarray | None = None,
    failed: dict | None = None,
) -> np.ndarray:
    """Normalized product weights, one row per row of ``log_units``.

    Row r, tuple k = (i_1, ..., i_P) in cluster level t gets
    exp(log_units[r, i_1] + ... + log_units[r, i_P] + log_levels[r, t])
    over the row's sum across the observed tuples, as a C-ordered array.

    A row with no positive weight is left as NaN; it raises
    ``DegenerateDraw``, or when a ``failed`` dict is given is recorded there
    (row -> reason). Rows already in ``failed`` keep their reason and are
    left as NaN too.
    """
    log_units = np.asarray(log_units, dtype=np.float64)
    if log_units.ndim != 2 or log_units.shape[1] != sample.n_units:
        raise ParamError("unit draw length must equal the number of units")
    rows = {} if failed is None else failed
    # gathering row by row keeps each row in cache; a block-wide
    # log_units[:, i] is Fortran-ordered and slower
    columns = [np.ascontiguousarray(sample.index[:, j]) for j in range(sample.order)]
    block = np.empty((log_units.shape[0], sample.n_obs))
    for units, row in zip(log_units, block):
        units.take(columns[0], out=row)
        for c in columns[1:]:
            row += units.take(c)
    if log_levels is not None:
        log_levels = np.asarray(log_levels, dtype=np.float64)
        if sample.cluster_ids is None:
            raise ParamError("sample has no cluster dimension")
        if log_levels.shape != (log_units.shape[0], sample.n_cluster_levels):
            raise ParamError("cluster draw length must equal the level count")
        block += log_levels[:, sample.cluster_ids]

    m = block.max(axis=1)
    for r in np.flatnonzero(~np.isfinite(m)):
        rows.setdefault(int(r), "every observed tuple has zero weight")
    with np.errstate(invalid="ignore", divide="ignore"):
        block -= m[:, None]
        np.exp(block, out=block)
        # each row is summed as a 1-D array, so its rounding does not depend
        # on how numpy orders a 2-D reduction
        block /= np.array([row.sum() for row in block])[:, None]
    if rows:
        block[list(rows)] = np.nan
        if failed is None:
            raise DegenerateDraw(rows[min(rows)])
    return block


# ---------------------------------------------------------------------------
# the draw-indexed weight matrix


def weights_for_block(
    sample: PolyadicSample,
    scheme: str,
    seed: int,
    b0: int,
    b1: int,
    alpha: float | None = None,
    failed: dict | None = None,
) -> np.ndarray:
    """Rows b0..b1-1 of the (B, N) weight matrix, as a C-ordered array.

    ``bayes`` and ``prior`` multiply in an Exp(1) value per cluster level
    when the sample has a cluster dimension; ``pigeonhole`` resamples units
    with replacement and ignores unit groups and clusters, as a cluster
    bootstrap over units. ``prior`` does not support unit groups.

    A draw that puts zero weight on every observed tuple (or whose group
    draw sums to zero) raises ``DegenerateDraw``; when a ``failed`` dict is
    given it instead receives ``{b: reason}`` and the row is left as NaN.
    """
    if not 0 <= b0 < b1:
        raise ParamError("need 0 <= b0 < b1")
    grouped = sample.group_of_unit is not None
    rows_failed = {}
    if scheme == "bayes" and grouped:
        log_units = _grouped_log_units(sample, seed, b0, b1, rows_failed)
    else:
        if scheme == "prior" and grouped and alpha is not None:
            raise ParamError("prior scheme does not support unit groups")
        log_units = unit_draws(sample.n_units, scheme, seed, b0, b1, alpha)[1]
    log_levels = None
    if sample.cluster_ids is not None and scheme != "pigeonhole":
        streams = rng.Substreams(seed, rng.ROLE_CLUSTER)
        log_levels = _exponential(streams, b0, b1, sample.n_cluster_levels)[1]
    block = product_weights(sample, log_units, log_levels, rows_failed)

    if rows_failed and failed is None:
        raise DegenerateDraw(rows_failed[min(rows_failed)])
    if failed is not None:
        failed.update({b0 + r: reason for r, reason in rows_failed.items()})
    return block


def weights_for_draw(
    sample: PolyadicSample, scheme: str, seed: int, b: int, alpha: float | None = None
) -> ObservationWeights:
    """The draw-``b`` weights: row b of the weight matrix (see
    ``weights_for_block``)."""
    return ObservationWeights(weights_for_block(sample, scheme, seed, b, b + 1, alpha)[0])
