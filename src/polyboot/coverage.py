"""Monte Carlo coverage laboratory.

Synthetic DGPs are sample builders: ``build(generator, n)`` draws one
polyadic sample of any order and index set over ``n`` units, so a DGP can
share latents across dyads, triads or a gravity panel with dropped flows.
Beside them sits the pigeonhole-resampling DGP, which resamples the units of
an observed dyadic source. Credible-interval and analytic-interval methods
are scored against a given truth: the config's ``truth``, else the source
sample's estimate, else the DGP's analytic truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import rng
from .bootstrap import check_level, credible_interval, run_bootstrap
from .data_model import PolyadicSample, full_index_set
from .errors import REPLICATION_FAILURES, DataError, DgpError, ParamError, Unsupported
from .estimators import EstimatorSpec, build_moment, evaluate_estimator
from .variance import delta_method_interval, graham_variance, naive_dyad_robust
from .weights import uniform_weights


@dataclass(frozen=True)
class SyntheticDGP:
    """A synthetic data generating process over ``n_units`` units.

    ``build(generator, n)`` draws one ``PolyadicSample`` over ``n`` units
    from a numpy Generator; ``analytic_truth`` is the parameter vector it
    identifies. A DGP without one runs only under a config ``truth``.
    """

    name: str
    n_units: int
    build: object
    analytic_truth: tuple | None = None


def unit_sample(n, index, columns, names, prefix="u") -> PolyadicSample:
    """The sample of ``index`` over units ``{prefix}0..{prefix}{n-1}``, with
    ``np.column_stack(columns)`` as its variables ``names``."""
    return PolyadicSample(
        order=index.shape[1],
        unit_labels=tuple(f"{prefix}{i}" for i in range(n)),
        index=index,
        variables=np.column_stack(columns),
        variable_names=names,
    )


def mean_unit_effects_dgp(n, sigma_c=1.0, sigma_eps=0.3) -> SyntheticDGP:
    """y_ij = C_i + C_j + eps_ij with iid normal unit effects; mean truth 0."""

    def build(gen, n_units):
        c = sigma_c * gen.standard_normal(n_units)
        index = full_index_set(n_units, 2)
        eps = gen.standard_normal(len(index))
        i, j = index.T
        return unit_sample(n_units, index, [c[i] + c[j] + sigma_eps * eps], ("y",))

    return SyntheticDGP("unit-effects-mean", n, build, analytic_truth=(0.0,))


def ols_unit_effects_dgp(
    n, slope=1.0, sigma_a=1.0, sigma_b=1.0, sigma_nu=0.3, sigma_eps=0.3
) -> SyntheticDGP:
    """x has additive sender/receiver effects; y = slope * x plus its own
    unit effects and noise. Intercept truth 0, slope truth ``slope``."""

    def build(gen, n_units):
        a, b = (gen.standard_normal((n_units, 2)) * np.array([sigma_a, sigma_b])).T
        index = full_index_set(n_units, 2)
        nu, eps = gen.standard_normal((len(index), 2)).T  # row-major: the pairs interleave
        i, j = index.T
        x = a[i] + a[j] + sigma_nu * nu
        y = slope * x + b[i] + b[j] + sigma_eps * eps
        return unit_sample(n_units, index, [y, x], ("y", "x"))

    return SyntheticDGP("unit-effects-ols", n, build, analytic_truth=(0.0, slope))


def generate_synthetic(dgp: SyntheticDGP, seed: int, r: int) -> PolyadicSample:
    """Build ``dgp``'s sample over its ``n_units``, reproducibly in (seed, r)."""
    return dgp.build(rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, r), dgp.n_units)


def pigeonhole_dgp_resample(sample: PolyadicSample, seed: int, r: int) -> PolyadicSample:
    """Materialize one pigeonhole-resampled dataset.

    Units are drawn with replacement; the dyad (k, l) is replicated once per
    (copy of k, copy of l) pair, so it appears count_k * count_l times. Each
    sampled copy becomes a distinct synthetic unit, and copies of the same
    source unit share no dyad (the source has no self-dyads). Draws whose
    copies cover no observed dyad are retried up to 100 times.
    """
    if sample.order != 2:
        raise Unsupported("the pigeonhole DGP is defined for dyadic samples")
    n = sample.n_units
    for attempt in range(100):
        gen = rng.substream(seed, rng.ROLE_PIGEONHOLE_DGP, r, lane=attempt)
        counts = gen.multinomial(n, np.full(n, 1.0 / n))
        resampled = _materialize(sample, counts)
        if resampled is not None:
            return resampled
    raise DgpError("pigeonhole DGP produced no usable dataset in 100 attempts")


def _materialize(sample, counts):
    """``sample`` with ``counts[u]`` copies of unit u, or None for fewer than two
    copies or no row: row (i, j) becomes counts[i] * counts[j] rows, the copy
    of i outer and the copy of j inner."""
    labels = tuple(
        base if k == 1 else f"{base}.{c}"
        for base, k in zip(sample.unit_labels, counts.tolist())
        for c in range(k)
    )
    per_row = counts[sample.index].prod(axis=1)
    rows = np.repeat(np.arange(sample.n_obs), per_row)
    if len(labels) < 2 or not len(rows):
        return None
    source = sample.index[rows]
    within = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    first = np.cumsum(counts) - counts  # the id of each unit's first copy
    try:
        return PolyadicSample(
            order=2,
            unit_labels=labels,
            index=first[source] + np.column_stack(np.divmod(within, counts[source[:, 1]])),
            variables=sample.variables[rows],
            variable_names=sample.variable_names,
            cluster_ids=None if sample.cluster_ids is None else sample.cluster_ids[rows],
            cluster_labels=sample.cluster_labels,
        )
    except DataError:
        return None


KNOWN_METHODS = ("bayes", "pigeonhole", "graham", "naive")


@dataclass(frozen=True)
class CoverageConfig:
    """One coverage experiment: DGP x estimator x interval methods."""

    estimator: EstimatorSpec
    methods: tuple
    n_replications: int
    n_bootstrap: int = 500
    level: float = 0.95
    seed: int = 0
    dgp: SyntheticDGP | None = None
    source_sample: PolyadicSample | None = None
    truth: tuple | None = None
    target_index: int = 0
    threads: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if (self.dgp is None) == (self.source_sample is None):
            raise ParamError("configure exactly one of dgp / source_sample")
        if self.n_replications < 1:
            raise ParamError("need at least one replication")
        if self.n_bootstrap < 2:
            raise ParamError("need at least 2 bootstrap draws for an interval")
        check_level(self.level)
        k = len(self.estimator.param_names())
        if not 0 <= self.target_index < k:
            raise ParamError(f"target_index must be in [0, {k}), got {self.target_index}")
        if self.truth is not None and np.size(self.truth) <= self.target_index:
            raise ParamError(f"truth has no entry at target_index {self.target_index}")
        if self.truth is None and self.dgp is not None and self.dgp.analytic_truth is None:
            raise ParamError(f"dgp {self.dgp.name!r} has no analytic truth; configure a truth")
        if not self.methods:
            raise ParamError("need at least one method")
        for i, m in enumerate(self.methods):
            if m not in KNOWN_METHODS:
                raise ParamError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ParamError(f"method {m!r} is listed twice")


@dataclass(frozen=True)
class MethodCoverage:
    method: str
    n_covered: int
    n_evaluated: int
    n_failures: int
    mean_width: float
    skipped_reason: str | None = None

    @property
    def coverage(self) -> float:
        return self.n_covered / self.n_evaluated if self.n_evaluated else float("nan")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "coverage": self.coverage,
            "covered": self.n_covered,
            "evaluated": self.n_evaluated,
            "failures": self.n_failures,
            "mean_width": self.mean_width,
            "skipped_reason": self.skipped_reason,
        }


@dataclass(frozen=True)
class CoverageReport:
    methods: tuple
    truth: float
    target_index: int
    level: float
    n_replications: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "truth": self.truth,
            "target_index": self.target_index,
            "level": self.level,
            "replications": self.n_replications,
            "seed": self.seed,
            "methods": [m.to_dict() for m in self.methods],
        }


def _resolve_truth(config) -> float:
    """The config's truth, else the source sample's estimate, else the DGP's analytic truth."""
    truth = config.truth
    if truth is None and config.source_sample is not None:
        source = config.source_sample
        truth, _ = evaluate_estimator(config.estimator, source, uniform_weights(source))
    elif truth is None:
        truth = config.dgp.analytic_truth
    return float(np.asarray(truth).ravel()[config.target_index])


def _interval(method, config, sample, rep_seed):
    if method in ("bayes", "pigeonhole"):
        result = run_bootstrap(
            sample,
            config.estimator,
            scheme=method,
            n_draws=config.n_bootstrap,
            seed=rep_seed,
            threads=config.threads,
        )
        ci = credible_interval(result, config.level)
        return float(ci.lower[config.target_index]), float(ci.upper[config.target_index])
    moment = build_moment(config.estimator, sample)
    theta, _ = evaluate_estimator(config.estimator, sample, uniform_weights(sample))
    if method == "graham":
        var = graham_variance(moment, sample, theta)
    else:
        var = naive_dyad_robust(moment, sample, theta)
    t = config.target_index
    return delta_method_interval(theta[t], np.eye(len(theta))[t], var, config.level)


def run_coverage(config: CoverageConfig, progress=None) -> CoverageReport:
    """Generate R datasets, run every method on each, and aggregate coverage.

    A method that is inapplicable to the data (``Unsupported``: e.g. the
    dyadic-robust variance with missing dyads or an over-identified moment)
    is skipped from then on, with its reason recorded. A replication that
    fails numerically (a ``BootstrapError`` or a solver error) is counted as
    a failure of that method and excluded. Any other error, such as a
    ``DataError`` for a column the data lack or a ``ParamError``, is a
    misconfigured experiment and propagates.
    """
    truth = _resolve_truth(config)
    tallies = [SimpleNamespace(method=m, intervals=[], failures=0, skipped=None)
               for m in config.methods]

    for r in range(config.n_replications):
        if config.dgp is not None:
            sample = generate_synthetic(config.dgp, config.seed, r)
        else:
            sample = pigeonhole_dgp_resample(config.source_sample, config.seed, r)
        rep_seed = rng.derive_seed(config.seed, rng.ROLE_COVERAGE, r)
        for t in tallies:
            if t.skipped is not None:
                continue
            try:
                t.intervals.append(_interval(t.method, config, sample, rep_seed))
            except Unsupported as exc:
                t.skipped = str(exc)
            except REPLICATION_FAILURES:
                t.failures += 1
        if progress is not None:
            progress(r + 1, config.n_replications)

    methods = tuple(
        MethodCoverage(
            method=t.method,
            n_covered=sum(lo <= truth <= hi for lo, hi in t.intervals),
            n_evaluated=len(t.intervals),
            n_failures=t.failures,
            mean_width=(
                sum(hi - lo for lo, hi in t.intervals) / len(t.intervals)
                if t.intervals else float("nan")
            ),
            skipped_reason=t.skipped,
        )
        for t in tallies
    )
    return CoverageReport(
        methods=methods,
        truth=truth,
        target_index=config.target_index,
        level=config.level,
        n_replications=config.n_replications,
        seed=config.seed,
    )
