"""Counterfactual propagation: push parameter draws through g(data, theta).

The data enter as realized values; only theta varies across draws, so the
induced draw set is the posterior of the counterfactual prediction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapResult, CredibleInterval, equal_tailed_interval
from .data_model import PolyadicSample
from .errors import CounterfactualError, ParamError


@dataclass(frozen=True)
class CounterfactualFn:
    """Named deterministic map (sample, theta) -> m outputs."""

    name: str
    n_outputs: int
    fn: object

    def __call__(self, sample, theta) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.fn(sample, theta)))
        if out.shape != (self.n_outputs,):
            raise CounterfactualError(
                f"{self.name} returned shape {out.shape}, expected ({self.n_outputs},)"
            )
        return out


@dataclass(frozen=True)
class PredictionDraws:
    """Per-draw counterfactual evaluations plus the point prediction."""

    point: np.ndarray
    draws: np.ndarray  # (B_ok, m)
    dropped: int


def _toy_growth(column):
    if not column:
        raise ParamError("toy-growth needs a column: toy-growth:<column>")

    @functools.lru_cache(maxsize=1)  # a sample hashes by identity and its arrays are read-only
    def column_mean(sample):
        return float(np.mean(sample.column(column)))

    def fn(sample, theta):
        return np.array([np.exp(theta[0] * column_mean(sample))])

    return CounterfactualFn(f"toy-growth:{column}", 1, fn)


def _identity(arg):
    dim = int(arg or 1) if (arg or "1").isdecimal() else 0
    if dim < 1:
        raise ParamError(f"identity needs a positive integer dimension, got {arg!r}")
    return CounterfactualFn("identity", dim, lambda sample, theta: np.asarray(theta[:dim], float))


_REGISTRY: dict = {}


def register_counterfactual(name, factory):
    """Register a factory ``(arg) -> CounterfactualFn``, which raises ParamError on a bad arg."""
    _REGISTRY[name] = factory


register_counterfactual("toy-growth", _toy_growth)
register_counterfactual("identity", _identity)


def resolve_counterfactual(spec: str) -> CounterfactualFn:
    """Look up ``name`` or ``name:arg`` in the registry."""
    name, _, arg = spec.partition(":")
    if name not in _REGISTRY:
        raise ParamError(f"unknown counterfactual {name!r}")
    return _REGISTRY[name](arg or None)


def propagate(sample: PolyadicSample, result: BootstrapResult, g: CounterfactualFn) -> PredictionDraws:
    """Evaluate g on the original sample once per successful theta-draw.

    A draw on which g raises, returns the wrong shape, or returns non-finite
    (or complex) values is dropped and counted.
    """
    try:
        point = g(sample, result.point_estimate)
    except Exception as exc:  # noqa: BLE001 - user-supplied g may fail arbitrarily
        raise CounterfactualError(f"{g.name} failed at the point estimate: {exc}") from exc
    if np.iscomplexobj(point) or not np.all(np.isfinite(point)):
        raise CounterfactualError(f"{g.name} is not finite at the point estimate")

    rows = []
    dropped = 0
    for theta in result.draws:
        try:
            out = g(sample, theta)
            usable = not np.iscomplexobj(out) and np.all(np.isfinite(out))
        except Exception:  # noqa: BLE001 - a user-supplied g fails on this draw only
            usable = False
        if not usable:
            dropped += 1
            continue
        rows.append(np.asarray(out, dtype=np.float64))
    draws = np.array(rows, dtype=np.float64).reshape(len(rows), g.n_outputs)
    return PredictionDraws(point=point, draws=draws, dropped=dropped)


@dataclass(frozen=True)
class CounterfactualSummary:
    point: np.ndarray
    interval: CredibleInterval
    exceedance: dict  # threshold -> (fractions (m,), mc standard errors (m,))
    skewness: np.ndarray
    n_draws: int
    dropped: int

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "level": self.interval.level,
            "lower": self.interval.lower.tolist(),
            "upper": self.interval.upper.tolist(),
            "exceedance": {
                repr(t): {"probability": p.tolist(), "mc_se": se.tolist()}
                for t, (p, se) in self.exceedance.items()
            },
            "skewness": self.skewness.tolist(),
            "n_draws": self.n_draws,
            "dropped": self.dropped,
        }


def summarize(preds: PredictionDraws, level: float, thresholds=()) -> CounterfactualSummary:
    """Credible interval, exceedance probabilities and skewness per output."""
    interval = equal_tailed_interval(preds.draws, level)
    b = preds.draws.shape[0]
    exceedance = {}
    for t in thresholds:
        p = (preds.draws > t).mean(axis=0)
        exceedance[float(t)] = (p, np.sqrt(p * (1.0 - p) / b))
    return CounterfactualSummary(
        point=preds.point,
        interval=interval,
        exceedance=exceedance,
        skewness=_skewness(preds.draws),
        n_draws=b,
        dropped=preds.dropped,
    )


def _skewness(draws) -> np.ndarray:
    """Population skewness m3 / m2^1.5 per column; NaN where the spread is
    below rounding of the mean (m2 <= (eps * mean)^2)."""
    mean = draws.mean(axis=0)
    dev = draws - mean
    m2 = (dev**2).mean(axis=0)
    m3 = (dev**2 * dev).mean(axis=0)
    with np.errstate(all="ignore"):
        return np.where(m2 <= (np.finfo(np.float64).eps * mean) ** 2, np.nan, m3 / m2**1.5)

