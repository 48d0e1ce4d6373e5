"""Deterministic fixture generators for worked examples and tests.

Fixtures are written under a versioned directory (``<out>/v1/``) so stored
expectations stay valid; regenerating a fixture from its parameters
reproduces its data exactly.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .coverage import generate_synthetic, mean_unit_effects_dgp, unit_sample
from .data_model import PolyadicSample, full_index_set, write_csv
from .errors import ParamError

FIXTURE_VERSION = "v1"


def exact_line_sample(n=6, slope=2.0) -> PolyadicSample:
    """Dyads lying exactly on y = slope * x; any weighting recovers slope."""
    index = full_index_set(n, 2)
    x = rng.substream(12, rng.ROLE_SYNTHETIC_DGP, 0).uniform(0.5, 2.0, index.shape[0])
    return unit_sample(n, index, [slope * x, x], ("y", "x"))


def unit_effects_sample(seed=7, n=40, sigma_c=1.0, sigma_eps=0.3) -> PolyadicSample:
    return generate_synthetic(mean_unit_effects_dgp(n, sigma_c, sigma_eps), seed, 0)


def overidentified_iv_sample(seed=11, n=12, theta=1.5, extra=0) -> PolyadicSample:
    """K = 1, L = 3 linear IV data: one endogenous-style regressor, three
    instruments correlated with it, unit-effect errors; ``extra`` more
    instruments z4, z5, ... are z1 plus noise."""
    gen = rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, 1)
    a = gen.standard_normal(n)
    b = 0.7 * gen.standard_normal(n)
    index = full_index_set(n, 2)
    i, j = index[:, 0], index[:, 1]
    n_obs = index.shape[0]
    z1 = a[i] + a[j] + 0.4 * gen.standard_normal(n_obs)
    z2 = a[i] - 0.5 * a[j] + 0.4 * gen.standard_normal(n_obs)
    z3 = 0.5 * (a[i] + a[j]) + 0.6 * gen.standard_normal(n_obs)
    r = z1 + 0.5 * z2 + 0.3 * gen.standard_normal(n_obs)
    y = theta * r + b[i] + b[j] + 0.3 * gen.standard_normal(n_obs)
    more = z1[:, None] + gen.standard_normal((n_obs, extra))
    names = ("y", "r", "z1", "z2", "z3") + tuple(f"z{4 + k}" for k in range(extra))
    return unit_sample(n, index, [y, r, z1, z2, z3, more], names)


def triadic_sample(seed=3, n=6) -> PolyadicSample:
    index = full_index_set(n, 3)
    gen = rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, 2)
    c = gen.standard_normal(n)
    y = c[index[:, 0]] + c[index[:, 1]] + c[index[:, 2]] + 0.2 * gen.standard_normal(index.shape[0])
    return unit_sample(n, index, [y], ("y",))


def gravity_sample(seed=17, n=20) -> PolyadicSample:
    """Gravity-style trade flows: counts with an exponential mean in log
    economic size and a pair friction, plus unit-level heterogeneity.
    Zero flows are dropped, so the index set has missing dyads."""
    gen = rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, 4)
    size = gen.normal(0.0, 0.8, n)
    quality = gen.normal(0.0, 0.4, n)
    index = full_index_set(n, 2)
    i, j = index[:, 0], index[:, 1]
    friction = np.abs(size[i] - size[j]) + gen.uniform(0.2, 1.0, index.shape[0])
    log_mu = 1.0 + 0.8 * size[i] + 0.6 * size[j] - 0.9 * np.log(friction)
    log_mu += quality[i] + quality[j]
    flow = gen.poisson(np.exp(log_mu)).astype(float)
    keep = flow > 0
    columns = [v[keep] for v in (flow, size[i], size[j], np.log(friction))]
    names = ("flow", "size_origin", "size_destination", "log_friction")
    return unit_sample(n, index[keep], columns, names, prefix="c")


def ratio_of_means_sample(seed=5, n=4, symmetric=True) -> PolyadicSample:
    """Small (y, x) dyads for the ratio-of-means estimator sum(wxy)/sum(wx^2).

    With ``symmetric=True`` both directions of a pair carry the same values,
    so each unordered pair evaluates to a single slope.
    """
    gen = rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, 3)
    index = full_index_set(n, 2)
    x = np.empty(index.shape[0])
    y = np.empty(index.shape[0])
    done = {}
    for row, (i, j) in enumerate(index.tolist()):
        key = (min(i, j), max(i, j))
        if symmetric and key in done:
            x[row], y[row] = done[key]
            continue
        xv = gen.uniform(0.5, 2.0)
        yv = gen.uniform(-1.0, 3.0) * xv
        x[row], y[row] = xv, yv
        done[key] = (xv, yv)
    return unit_sample(n, index, [y, x], ("y", "x"))


_BUILDERS = {
    "exact-line": lambda seed: exact_line_sample(),
    "unit-effects": lambda seed: unit_effects_sample(seed=seed),
    "overidentified-iv": lambda seed: overidentified_iv_sample(seed=seed),
    "triadic": lambda seed: triadic_sample(seed=seed),
    "gravity": lambda seed: gravity_sample(seed=seed),
}
FIXTURE_NAMES = tuple(_BUILDERS)


def make_fixture(name: str, seed: int, out_dir) -> str:
    """Write fixture ``name`` as CSV under ``out_dir``/v1; returns the path."""
    from pathlib import Path

    if name not in _BUILDERS:
        raise ParamError(f"unknown fixture {name!r} (known: {', '.join(FIXTURE_NAMES)})")
    sample = _BUILDERS[name](seed)
    target = Path(out_dir) / FIXTURE_VERSION
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"{name}.csv"
    write_csv(sample, path)
    return str(path)
