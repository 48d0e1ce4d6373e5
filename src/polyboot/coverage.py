"""Monte Carlo coverage laboratory.

Synthetic latent-variable DGPs (units carry iid latent draws; a dyad is a
function of its two units' latents plus independent noise) and the
pigeonhole-resampling DGP, with coverage evaluation of credible-interval
and analytic-interval methods against a known truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import rng
from .bootstrap import credible_interval, run_bootstrap
from .data_model import PolyadicSample, full_index_set
from .errors import DataError, DgpError, ParamError, PolybootError, Unsupported
from .estimators import EstimatorSpec, build_moment, evaluate_estimator
from .variance import graham_variance, naive_dyad_robust
from .weights import uniform_weights

# reserved replication index for the large plug-in truth sample
_TRUTH_INDEX = 2**32
_TRUTH_UNITS = 1001  # full dyadic index set > 1e6 observations


@dataclass(frozen=True)
class SyntheticDGP:
    """Latent-variable dyadic data generating process.

    ``latent_sampler(generator, n, d)`` draws the (n, d) unit latents;
    ``link(c_i, c_j, eps)`` maps row-aligned latent pairs and (N, noise_dim)
    standard-normal noise to the variable matrix.
    """

    name: str
    n_units: int
    latent_dim: int
    noise_dim: int
    variable_names: tuple
    latent_sampler: object
    link: object
    analytic_truth: tuple | None = None


def mean_unit_effects_dgp(n, sigma_c=1.0, sigma_eps=0.3) -> SyntheticDGP:
    """y_ij = C_i + C_j + eps_ij with iid normal unit effects; mean truth 0."""

    def sampler(gen, n_units, d):
        return sigma_c * gen.standard_normal((n_units, d))

    def link(ci, cj, eps):
        return (ci[:, 0] + cj[:, 0] + sigma_eps * eps[:, 0])[:, None]

    return SyntheticDGP(
        name="unit-effects-mean",
        n_units=n,
        latent_dim=1,
        noise_dim=1,
        variable_names=("y",),
        latent_sampler=sampler,
        link=link,
        analytic_truth=(0.0,),
    )


def ols_unit_effects_dgp(
    n, slope=1.0, sigma_a=1.0, sigma_b=1.0, sigma_nu=0.3, sigma_eps=0.3
) -> SyntheticDGP:
    """x has additive sender/receiver effects; y = slope * x plus its own
    unit effects and noise. Intercept truth 0, slope truth ``slope``."""

    def sampler(gen, n_units, d):
        scale = np.array([sigma_a, sigma_b])
        return gen.standard_normal((n_units, d)) * scale

    def link(ci, cj, eps):
        x = ci[:, 0] + cj[:, 0] + sigma_nu * eps[:, 0]
        y = slope * x + ci[:, 1] + cj[:, 1] + sigma_eps * eps[:, 1]
        return np.column_stack([y, x])

    return SyntheticDGP(
        name="unit-effects-ols",
        n_units=n,
        latent_dim=2,
        noise_dim=2,
        variable_names=("y", "x"),
        latent_sampler=sampler,
        link=link,
        analytic_truth=(0.0, slope),
    )


def generate_synthetic(dgp: SyntheticDGP, seed: int, r: int) -> PolyadicSample:
    """Draw unit latents, fill the full dyadic index set, reproducibly in (seed, r)."""
    gen = rng.substream(seed, rng.ROLE_SYNTHETIC_DGP, r)
    c = np.asarray(dgp.latent_sampler(gen, dgp.n_units, dgp.latent_dim), dtype=np.float64)
    index = full_index_set(dgp.n_units, 2)
    eps = None
    if dgp.noise_dim > 0:
        eps = gen.standard_normal((index.shape[0], dgp.noise_dim))
    variables = np.asarray(dgp.link(c[index[:, 0]], c[index[:, 1]], eps), dtype=np.float64)
    return PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(dgp.n_units)),
        index=index,
        variables=variables,
        variable_names=dgp.variable_names,
    )


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
    copy_ids = {}
    labels = []
    for u in range(sample.n_units):
        ids = []
        for c in range(counts[u]):
            ids.append(len(labels))
            base = sample.unit_labels[u]
            labels.append(base if counts[u] == 1 else f"{base}.{c}")
        copy_ids[u] = ids
    if len(labels) < 2:
        return None
    index_rows, var_rows, cluster_rows = [], [], []
    has_cluster = sample.cluster_ids is not None
    for row in range(sample.n_obs):
        i, j = sample.index[row]
        for ci in copy_ids[int(i)]:
            for cj in copy_ids[int(j)]:
                index_rows.append((ci, cj))
                var_rows.append(sample.variables[row])
                if has_cluster:
                    cluster_rows.append(sample.cluster_ids[row])
    if not index_rows:
        return None
    try:
        return PolyadicSample(
            order=2,
            unit_labels=tuple(labels),
            index=np.array(index_rows, dtype=np.int64),
            variables=np.array(var_rows, dtype=np.float64),
            variable_names=sample.variable_names,
            cluster_ids=np.array(cluster_rows, dtype=np.int64) if has_cluster else None,
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
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ParamError(f"unknown method {m!r}")


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

    def method(self, name) -> MethodCoverage:
        for m in self.methods:
            if m.method == name:
                return m
        raise ParamError(f"no method {name!r} in report")

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
    if config.truth is not None:
        return float(np.asarray(config.truth).ravel()[config.target_index])
    if config.source_sample is not None:
        theta, _ = evaluate_estimator(
            config.estimator, config.source_sample, uniform_weights(config.source_sample)
        )
        return float(theta[config.target_index])
    if config.dgp.analytic_truth is not None:
        return float(config.dgp.analytic_truth[config.target_index])
    reference = generate_synthetic(
        dataclasses.replace(config.dgp, n_units=_TRUTH_UNITS), config.seed, _TRUTH_INDEX
    )
    theta, _ = evaluate_estimator(config.estimator, reference, uniform_weights(reference))
    return float(theta[config.target_index])


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
    z = NormalDist().inv_cdf(1.0 - (1.0 - config.level) / 2.0)
    center = float(theta[config.target_index])
    half = z * float(var.se[config.target_index])
    return center - half, center + half


def run_coverage(config: CoverageConfig, progress=None) -> CoverageReport:
    """Generate R datasets, run every method on each, and aggregate coverage.

    A method that is inapplicable to the data shape (e.g. the dyadic-robust
    variance with missing dyads) is skipped with its reason recorded; other
    per-replication failures are counted and excluded.
    """
    truth = _resolve_truth(config)
    covered = {m: 0 for m in config.methods}
    evaluated = {m: 0 for m in config.methods}
    failures = {m: 0 for m in config.methods}
    widths = {m: 0.0 for m in config.methods}
    skipped = {m: None for m in config.methods}

    for r in range(config.n_replications):
        if config.dgp is not None:
            sample = generate_synthetic(config.dgp, config.seed, r)
        else:
            sample = pigeonhole_dgp_resample(config.source_sample, config.seed, r)
        rep_seed = rng.derive_seed(config.seed, rng.ROLE_COVERAGE, r)
        for m in config.methods:
            if skipped[m] is not None:
                continue
            try:
                lo, hi = _interval(m, config, sample, rep_seed)
            except Unsupported as exc:
                skipped[m] = str(exc)
                continue
            except PolybootError:
                failures[m] += 1
                continue
            evaluated[m] += 1
            widths[m] += hi - lo
            if lo <= truth <= hi:
                covered[m] += 1
        if progress is not None:
            progress(r + 1, config.n_replications)

    methods = tuple(
        MethodCoverage(
            method=m,
            n_covered=covered[m],
            n_evaluated=evaluated[m],
            n_failures=failures[m],
            mean_width=widths[m] / evaluated[m] if evaluated[m] else float("nan"),
            skipped_reason=skipped[m],
        )
        for m in config.methods
    )
    return CoverageReport(
        methods=methods,
        truth=truth,
        target_index=config.target_index,
        level=config.level,
        n_replications=config.n_replications,
        seed=config.seed,
    )
