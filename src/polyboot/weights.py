"""Unit-level random draws and normalized observation weights.

Three draw kinds are supported: unit exponentials (whose normalization is a
flat Dirichlet), Gamma(alpha/n, 1) prior draws, and pigeonhole multinomial
counts. An observation's weight is the product of its units' values,
normalized over the observed index set. Products are formed in log space so
that extreme prior draws (tiny alpha) survive without underflow.

Weights are built a block of draws at a time: ``weights_for_block`` returns
rows b0..b1-1 of the (B, N) weight matrix, and ``weights_for_draw`` is its
one-row case. Draw b's unit values come from substream (seed, role, b, lane)
whatever block it falls in, so every row is the same bit for bit under any
block partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .data_model import PolyadicSample
from .errors import DegenerateDraw, ParamError

KIND_EXPONENTIAL = "exponential"
KIND_GAMMA = "gamma"
KIND_PIGEONHOLE = "pigeonhole"

# Gamma shapes below this floor are clamped: smaller values are numerically
# indistinguishable in the product-weight limit and risk degenerate streams.
MIN_GAMMA_SHAPE = 1e-6

# Memory budget of one weight block; fixing it (rather than deriving it
# from the thread count) makes the block partition a function of (B, N).
BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class UnitDraw:
    """One vector of nonnegative unit-level values.

    ``log_values`` carries the exact log-scale representation; for tiny-shape
    Gamma draws the linear ``values`` may underflow to 0 while the logs stay
    finite.
    """

    values: np.ndarray
    log_values: np.ndarray
    kind: str
    draw_index: int
    seed: int
    alpha: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        lv = np.asarray(self.log_values, dtype=np.float64)
        if v.ndim != 1 or v.shape != lv.shape:
            raise ParamError("values and log_values must be aligned vectors")
        if np.any(v < 0):
            raise ParamError("unit values must be nonnegative")
        v.setflags(write=False)
        lv.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "log_values", lv)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ObservationWeights:
    """Normalized weight per observed index tuple."""

    weights: np.ndarray
    scheme: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def uniform_weights(sample: PolyadicSample) -> ObservationWeights:
    n = sample.n_obs
    return ObservationWeights(np.full(n, 1.0 / n), "uniform")


def block_rows(n_draws: int, n_obs: int) -> int:
    """Draws per weight block: BLOCK_BYTES of float64 rows, within [1, n_draws]."""
    return min(max(BLOCK_BYTES // (8 * n_obs), 1), n_draws)


# ---------------------------------------------------------------------------
# unit draws, one row per draw index


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


def _check_units(n):
    if n < 2:
        raise ParamError("need n >= 2 units")


def draw_exponential_units(n: int, seed: int, b: int) -> UnitDraw:
    """n independent Exp(1) variates from substream ``(seed, b)``."""
    _check_units(n)
    values, log_values = _exponential(rng.Substreams(seed, rng.ROLE_UNIT), b, b + 1, n)
    return UnitDraw(values[0], log_values[0], KIND_EXPONENTIAL, b, seed)


def draw_gamma_units(n: int, alpha: float, seed: int, b: int) -> UnitDraw:
    """n independent Gamma(shape=alpha/n, scale=1) variates; Exp(1) at alpha = n."""
    _check_units(n)
    if not alpha > 0:
        raise ParamError(f"alpha must be > 0, got {alpha}")
    values, log_values = _gamma(rng.Substreams(seed, rng.ROLE_GAMMA), b, b + 1, n, alpha)
    return UnitDraw(values[0], log_values[0], KIND_GAMMA, b, seed, alpha=alpha)


def draw_pigeonhole_counts(n: int, seed: int, b: int) -> UnitDraw:
    """Multinomial counts of n uniform draws over the n units."""
    _check_units(n)
    values, log_values = _pigeonhole(rng.Substreams(seed, rng.ROLE_PIGEONHOLE), b, b + 1, n)
    return UnitDraw(values[0], log_values[0], KIND_PIGEONHOLE, b, seed)


# ---------------------------------------------------------------------------
# products and normalization, a block of rows at a time


def _gather(log_units, index):
    """Log products in a C-ordered block: row r, column k is the sum of
    log_units[r] over tuple k. Gathering row by row keeps each row in
    cache; a block-wide ``log_units[:, i]`` is Fortran-ordered and slower."""
    columns = [np.ascontiguousarray(index[:, j]) for j in range(index.shape[1])]
    block = np.empty((log_units.shape[0], index.shape[0]))
    for units, row in zip(log_units, block):
        units.take(columns[0], out=row)
        for c in columns[1:]:
            row += units.take(c)
    return block


def _normalize(block, failed):
    """Exponentiate log products and normalize each row to sum 1, in place.

    A row whose maximum is not finite has no positive weight; it is recorded
    in ``failed`` (row -> reason) and left as NaN. Each row is summed as a
    1-D array, the reduction a single draw uses, so its rounding does not
    depend on how numpy orders a 2-D reduction.
    """
    m = block.max(axis=1)
    for r in np.flatnonzero(~np.isfinite(m)):
        failed.setdefault(int(r), "every observed tuple has zero weight")
    with np.errstate(invalid="ignore", divide="ignore"):
        block -= m[:, None]
        np.exp(block, out=block)
        block /= np.array([row.sum() for row in block])[:, None]
    if failed:
        block[list(failed)] = np.nan
    return block


def _group_members(sample):
    groups = np.asarray(sample.group_of_unit)
    members = [np.flatnonzero(groups == g_id) for g_id in range(sample.n_groups)]
    for g_id, m in enumerate(members):
        if m.size < 1:
            raise ParamError(f"group {g_id} has no units")
    return members


def _within_groups(members, draws, failed):
    """Unit log-weights normalized within each group; ``draws`` holds one
    (values, log values) pair of row blocks per group."""
    rows = draws[0][0].shape[0]
    log_w = np.empty((rows, sum(m.size for m in members)))
    for g_id, (m, (values, log_values)) in enumerate(zip(members, draws)):
        totals = np.array([row.sum() for row in values])
        for r in np.flatnonzero(~(totals > 0)):
            failed.setdefault(int(r), f"group {g_id} draw sums to zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w[:, m] = log_values - np.log(totals)[:, None]
    return log_w


def _one_row(block, failed, scheme) -> ObservationWeights:
    if failed:
        raise DegenerateDraw(failed[0])
    return ObservationWeights(block[0], scheme)


def product_weights(units: UnitDraw, sample: PolyadicSample) -> ObservationWeights:
    """Weight of tuple k: product of its units' values over the observed sum."""
    if units.n != sample.n_units:
        raise ParamError("unit draw length must equal the number of units")
    failed = {}
    block = _normalize(_gather(units.log_values[None, :], sample.index), failed)
    return _one_row(block, failed, units.kind)


def multiway_weights(
    units: UnitDraw, cluster_draw: UnitDraw, sample: PolyadicSample
) -> ObservationWeights:
    """Product weights times an independent Dirichlet over cluster levels."""
    if sample.cluster_ids is None:
        raise ParamError("sample has no cluster dimension")
    if cluster_draw.n != sample.n_cluster_levels:
        raise ParamError("cluster draw length must equal the level count")
    if units.n != sample.n_units:
        raise ParamError("unit draw length must equal the number of units")
    block = _gather(units.log_values[None, :], sample.index)
    block += cluster_draw.log_values[None, sample.cluster_ids]
    failed = {}
    return _one_row(_normalize(block, failed), failed, units.kind)


def grouped_product_weights(group_draws, sample: PolyadicSample) -> ObservationWeights:
    """Within-group Dirichlet unit weights, then cross-unit products.

    ``group_draws`` holds one draw vector per group (group id order); within
    a group the draw maps to that group's units in ascending unit id order.
    """
    if sample.group_of_unit is None:
        raise ParamError("sample has no unit groups")
    n_groups = sample.n_groups
    if len(group_draws) != n_groups:
        raise ParamError(f"expected {n_groups} group draws, got {len(group_draws)}")
    members = _group_members(sample)
    for g_id, (m, draw) in enumerate(zip(members, group_draws)):
        if draw.n != m.size:
            raise ParamError(f"group {g_id} draw length mismatch")
    failed = {}
    log_w = _within_groups(
        members, [(d.values[None, :], d.log_values[None, :]) for d in group_draws], failed
    )
    if failed:
        raise DegenerateDraw(failed[0])
    block = _normalize(_gather(log_w, sample.index), failed)
    return _one_row(block, failed, group_draws[0].kind)


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

    ``bayes`` uses exponential unit draws (within-group Dirichlets when the
    sample declares unit groups, and an extra cluster-level Dirichlet when a
    cluster dimension is present). ``prior`` uses Gamma(alpha/n, 1) unit
    draws. ``pigeonhole`` resamples units with replacement and ignores any
    cluster dimension, as in a cluster bootstrap over units.

    A draw that puts zero weight on every observed tuple (or whose group
    draw sums to zero) raises ``DegenerateDraw``; when a ``failed`` dict is
    given it instead receives ``{b: reason}`` and the row is left as NaN.
    """
    if not 0 <= b0 < b1:
        raise ParamError("need 0 <= b0 < b1")
    n = sample.n_units
    grouped = sample.group_of_unit is not None
    clusters = sample.cluster_ids if scheme != "pigeonhole" else None
    rows_failed = {}
    if scheme == "pigeonhole":
        log_units = _pigeonhole(rng.Substreams(seed, rng.ROLE_PIGEONHOLE), b0, b1, n)[1]
    elif scheme == "bayes" and grouped:
        members = _group_members(sample)
        streams = rng.Substreams(seed, rng.ROLE_UNIT)
        draws = [
            _exponential(streams, b0, b1, m.size, lane=g_id) for g_id, m in enumerate(members)
        ]
        log_units = _within_groups(members, draws, rows_failed)
    elif scheme == "bayes":
        log_units = _exponential(rng.Substreams(seed, rng.ROLE_UNIT), b0, b1, n)[1]
    elif scheme == "prior":
        if alpha is None:
            raise ParamError("prior scheme requires alpha")
        if grouped:
            raise ParamError("prior scheme does not support unit groups")
        if not alpha > 0:
            raise ParamError(f"alpha must be > 0, got {alpha}")
        log_units = _gamma(rng.Substreams(seed, rng.ROLE_GAMMA), b0, b1, n, alpha)[1]
    else:
        raise ParamError(f"unknown scheme {scheme!r}")

    block = _gather(log_units, sample.index)
    if clusters is not None:
        streams = rng.Substreams(seed, rng.ROLE_CLUSTER)
        log_levels = _exponential(streams, b0, b1, sample.n_cluster_levels)[1]
        if grouped:
            # grouped + clustered: the cluster Dirichlet multiplies the
            # already normalized grouped product weights
            _normalize(block, rows_failed)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(block, out=block)
        block += log_levels[:, clusters]
    _normalize(block, rows_failed)

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
    base = f"prior({alpha:g})" if scheme == "prior" and alpha is not None else scheme
    return ObservationWeights(weights_for_block(sample, scheme, seed, b, b + 1, alpha)[0], base)
