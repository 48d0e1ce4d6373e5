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

``weights_for_block`` gives rows b0..b1-1 of the (B, N) weight matrix,
``product_weights`` of ``log_draws``, and ``product_sums`` a block's
weighted feature sums without it; the ``bootstrap`` module docstring tells
how the engine uses them.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .data_model import PolyadicSample
from .errors import DegenerateDraw, ParamError

# Gamma shapes below this floor are clamped: smaller values are numerically
# indistinguishable in the product-weight limit and risk degenerate streams.
MIN_GAMMA_SHAPE = 1e-6

# Memory budget of one block of draws; fixing it (rather than deriving it
# from the thread count) makes the block partition a function of B and the
# sample's shape.
BLOCK_BYTES = 4 * 2**20

# float64 values a block of weight rows budgets per draw and observation in
# the PPML and builtin linear-IV kernels. PPML holds its (rows, N) weights,
# their live copy and w exp(x'theta): 8 ran solver-mix's PPML jobs faster
# than 24, 12 or 6. Linear IV holds at most three (rows, N) arrays: measured
# at N = 870 (solver-mix, before it took the factorized form), 4 ran up to
# 15% faster with 0.7 MB more peak RSS, 16 up to 20% slower.
ROW_FLOATS = 8

# Below this normalizer a row's scaled product sums may have lost relative
# precision to underflow, so ``product_sums`` builds that row's weights.
MIN_NORMALIZER = np.exp(-600.0)


def uniform_weights(sample: PolyadicSample) -> np.ndarray:
    """Weight 1/N on every observed tuple: the point estimate's weights."""
    return np.full(sample.n_obs, 1.0 / sample.n_obs)


def block_rows(n_draws: int, row_floats: int) -> int:
    """Draws per block when each draw holds ``row_floats`` float64 values:
    BLOCK_BYTES of rows, within [1, n_draws]."""
    return min(max(BLOCK_BYTES // (8 * row_floats), 1), n_draws)


# ---------------------------------------------------------------------------
# unit values, one row per draw index


def _exponential(streams, b0, b1, n, lane=0):
    """Exp(1) variates by inverse CDF, -log(1 - U): (values, log values).

    The inverse CDF keeps the stream portable across platforms.
    """
    u = np.empty((b1 - b0, n))
    for r in range(b1 - b0):
        streams.at(b0 + r, lane).random(out=u[r])
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
        g.standard_gamma(a + 1.0, out=y[r])
        g.random(out=u[r])
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
    if not 0 < alpha < np.inf:
        raise ParamError(f"alpha must be > 0 and finite, got {alpha}")
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
# weighted sums as quadratic forms in the unit values


def _dense_index(sample):
    """Each observation's position (i_1, ..., i_P, t) in a dense tensor."""
    return (*sample.index.T, 0 if sample.cluster_ids is None else sample.cluster_ids)


def dense_features(sample: PolyadicSample, features) -> np.ndarray | None:
    """The observed-tuple mask and ``features`` (N, F) scattered into a dense
    tensor D of shape (n,) * P + (T, 1 + F), zero at unobserved tuples:
    D[i_1, ..., i_P, t] = (1, f_k) for observed tuple k in level t.
    ``features`` may also be a function that builds them, called only when
    D is made.

    None when D would hold more than four entries per observation
    (n**P * T > 4 N, T = 1 without clusters): a sparse index set keeps the
    weight matrix.
    """
    n, order, n_obs = sample.n_units, sample.order, sample.n_obs
    levels = max(sample.n_cluster_levels, 1)
    if n**order * levels > 4 * n_obs:
        return None
    if callable(features):
        features = features()
    features = np.asarray(features, dtype=np.float64).reshape(n_obs, -1)
    dense = np.zeros((n,) * order + (levels, 1 + features.shape[1]))
    at = _dense_index(sample)
    dense[(*at, 0)] = 1.0
    dense[(*at, slice(1, None))] = features
    return dense


def product_sums(sample: PolyadicSample, dense, log_units, log_levels, failed: dict) -> np.ndarray:
    """Row r's weighted feature sums sum_k w_rk f_k (R, F), for the product
    weights of ``log_units`` and ``log_levels`` and the ``dense_features``
    tensor D, without the weight matrix.

    With v = exp(l - max l) per row, and c likewise for the levels, the
    sums are sum v_{i_1} ... v_{i_P} c_t D[i_1, ..., i_P, t] over the same
    sum of the mask: one (R, n) x (n, n**(P-1) T (1+F)) product, P - 1
    batched contractions over the other unit axes and one over the levels.
    A row whose normalizer is not finite or below ``MIN_NORMALIZER`` gets
    its weights from ``product_weights`` instead; if it has no positive
    weight it goes into ``failed`` (row -> reason). Failed rows are NaN.
    """
    rows, n = log_units.shape
    # a failed group draw's row is NaN, a degenerate one has a zero normalizer
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.exp(log_units - log_units.max(axis=1, keepdims=True))
        acc = v @ dense.reshape(n, -1)
        for _ in range(dense.ndim - 3):
            acc = np.matmul(v[:, None, :], acc.reshape(rows, n, -1))[:, 0]
        acc = acc.reshape(rows, dense.shape[-2], dense.shape[-1])
        if log_levels is None:
            acc = acc.sum(axis=1)
        else:
            c = np.exp(log_levels - log_levels.max(axis=1, keepdims=True))
            acc = np.matmul(c[:, None, :], acc)[:, 0]
        normalizer = acc[:, 0]
        sums = acc[:, 1:] / normalizer[:, None]

    exact = np.isfinite(normalizer) & (normalizer >= MIN_NORMALIZER)
    at = _dense_index(sample)
    for r in np.flatnonzero(~exact):
        if r in failed:
            continue
        levels = None if log_levels is None else log_levels[r : r + 1]
        try:
            row = product_weights(sample, log_units[r : r + 1], levels)[0]
        except DegenerateDraw as exc:
            failed[int(r)] = str(exc)
            continue
        weights = np.zeros(dense.shape[:-1])
        weights[at] = row
        sums[r] = weights.reshape(-1) @ dense.reshape(-1, dense.shape[-1])[:, 1:]
    sums[list(failed)] = np.nan
    return sums


# ---------------------------------------------------------------------------
# the draw-indexed weight matrix


def log_draws(sample: PolyadicSample, scheme: str, seed: int, b0: int, b1: int, alpha, failed):
    """The random inputs of draws b0..b1-1: ``(log_units, log_levels)``.

    ``log_units`` (b1 - b0, n) holds the unit log-values, normalized within
    each group for a grouped ``bayes`` sample; ``log_levels`` (b1 - b0, T)
    holds the cluster log-levels, or is None without a cluster dimension or
    under ``pigeonhole``. A row whose group draw sums to zero is recorded in
    ``failed`` (row -> reason).
    """
    if not 0 <= b0 < b1:
        raise ParamError("need 0 <= b0 < b1")
    grouped = sample.group_of_unit is not None
    if scheme == "bayes" and grouped:
        log_units = _grouped_log_units(sample, seed, b0, b1, failed)
    else:
        if scheme == "prior" and grouped and alpha is not None:
            raise ParamError("prior scheme does not support unit groups")
        log_units = unit_draws(sample.n_units, scheme, seed, b0, b1, alpha)[1]
    log_levels = None
    if sample.cluster_ids is not None and scheme != "pigeonhole":
        streams = rng.Substreams(seed, rng.ROLE_CLUSTER)
        log_levels = _exponential(streams, b0, b1, sample.n_cluster_levels)[1]
    return log_units, log_levels


def weights_for_block(
    sample: PolyadicSample,
    scheme: str,
    seed: int,
    b0: int,
    b1: int,
    alpha: float | None = None,
    failed: dict | None = None,
) -> np.ndarray:
    """Rows b0..b1-1 of the (B, N) weight matrix, as a C-ordered array:
    ``product_weights`` of ``log_draws``.

    ``bayes`` and ``prior`` multiply in an Exp(1) value per cluster level
    when the sample has a cluster dimension; ``pigeonhole`` resamples units
    with replacement and ignores unit groups and clusters, as a cluster
    bootstrap over units. ``prior`` does not support unit groups.

    A draw that puts zero weight on every observed tuple (or whose group
    draw sums to zero) raises ``DegenerateDraw``; when a ``failed`` dict is
    given it instead receives ``{b: reason}`` and the row is left as NaN.
    """
    rows_failed = {}
    block = product_weights(
        sample, *log_draws(sample, scheme, seed, b0, b1, alpha, rows_failed), rows_failed
    )
    if rows_failed and failed is None:
        raise DegenerateDraw(rows_failed[min(rows_failed)])
    if failed is not None:
        failed.update({b0 + r: reason for r, reason in rows_failed.items()})
    return block


def weights_for_draw(
    sample: PolyadicSample, scheme: str, seed: int, b: int, alpha: float | None = None
) -> np.ndarray:
    """Row b of the weight matrix (see ``weights_for_block``)."""
    return weights_for_block(sample, scheme, seed, b, b + 1, alpha)[0]
