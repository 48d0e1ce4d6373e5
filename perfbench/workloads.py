"""The benchmark's workloads: inputs made from a seed, and one cycle of tasks.

Each workload turns the benchmark seed into program inputs (a coverage
configuration, fixture samples, or a CSV file) through ``derive``, so the
program never sees the seed itself. ``cycle`` runs the workload's fixed task
list once (or its first ``calls`` program calls), with the program's
default thread pool unless ``threads`` is given, and returns per-task
latencies and the outputs the reference check compares. Repeating a cycle repeats the same calls, so every cycle of a run
must produce the same outputs.

Why these three:

- coverage-small: the coverage lab on small samples. Per-draw overhead in
  weights, rng and the bootstrap pool dominates, and the mean kernel is
  nearly free. Batched weights or a serial default show here; a solver
  change should not.
- solver-mix: PPML and linear-IV GMM bootstraps. The Newton and
  Gauss-Newton loops dominate and weights are a small share, so solver
  changes show here. The prior and pigeonhole schemes run the other weight
  paths.
- cli-large: a fresh CLI process per task on an 89,700-row CSV. Users pay
  the import, CSV ingest and sample validation on every call, weights are
  memory-bound and the thread pool helps instead of hurting.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import polyboot.bootstrap as pb_bootstrap
import polyboot.cli as pb_cli
import polyboot.coverage as pb_coverage
from polyboot.data_model import PolyadicSample, load_csv, write_csv
from polyboot.estimators import EstimatorSpec
from polyboot.fixtures import gravity_sample, overidentified_iv_sample

ROOT = Path(__file__).resolve().parent.parent


def derive(seed: int, *labels) -> int:
    """A 63-bit program seed from the benchmark seed and a role label."""
    text = ":".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Cycle:
    """One pass over a workload's task list."""

    latencies: list = field(default_factory=list)  # seconds, one per task
    draws: int = 0  # bootstrap draws requested by the tasks that returned
    outputs: dict = field(default_factory=dict)  # output name -> compared values
    covers: dict = field(default_factory=dict)  # output name -> tasks it covers
    errors: dict = field(default_factory=dict)  # output name -> error message
    child_rss_kb: int = 0  # peak resident memory of child processes


def _interval_output(result, ci) -> dict:
    return {
        "point": result.point_estimate.tolist(),
        "lower": ci.lower.tolist(),
        "upper": ci.upper.tolist(),
        "failed": result.failed_draw_count,
    }


class CoverageSmall:
    """``run_coverage`` on the n=40 unit-effects mean DGP (1,560 dyads),
    bayes + pigeonhole + naive, B=500. A task is one replication."""

    name = "coverage-small"
    replications = 10
    draws_per_replication = 500
    methods = ("bayes", "pigeonhole", "naive")

    def __init__(self, seed, workdir, in_process=False):
        self.dgp = pb_coverage.mean_unit_effects_dgp(40)
        self.estimator = EstimatorSpec(kind="mean", column="y")
        self.coverage_seed = derive(seed, self.name)

    def _config(self, replications, threads):
        return pb_coverage.CoverageConfig(
            estimator=self.estimator,
            methods=self.methods,
            n_replications=replications,
            n_bootstrap=self.draws_per_replication,
            level=0.95,
            seed=self.coverage_seed,
            dgp=self.dgp,
            threads=threads,
        )

    def input_samples(self):
        return [pb_coverage.generate_synthetic(self.dgp, self.coverage_seed, 0)]

    def warm_up(self):
        pb_coverage.run_coverage(self._config(1, None))

    def cycle(self, threads=None, calls=None) -> Cycle:
        """The cycle is one ``run_coverage`` call, so ``calls`` changes nothing."""
        cycle = Cycle(covers={"coverage": self.replications})
        stamps = [time.perf_counter()]
        try:
            report = pb_coverage.run_coverage(
                self._config(self.replications, threads),
                progress=lambda done, total: stamps.append(time.perf_counter()),
            )
        except Exception as exc:  # a failed call is counted, not fatal
            cycle.errors["coverage"] = f"{type(exc).__name__}: {exc}"
            stamps.append(time.perf_counter())
            cycle.latencies = [stamps[-1] - stamps[0]] * self.replications
            return cycle
        cycle.latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        methods = {}
        for m in report.methods:
            methods[m.method] = {
                "covered": m.n_covered,
                "evaluated": m.n_evaluated,
                "failures": m.n_failures,
                "mean_width": float(m.mean_width),
            }
            if m.method in ("bayes", "pigeonhole"):
                cycle.draws += m.n_evaluated * self.draws_per_replication
        cycle.outputs["coverage"] = {"truth": report.truth, "methods": methods}
        failed = max(m.n_failures for m in report.methods)
        if failed:
            cycle.errors["coverage"] = f"{failed} replication(s) failed"
        return cycle


_PPML = EstimatorSpec(
    kind="ppml",
    y="flow",
    x=("size_origin", "size_destination", "log_friction"),
    intercept=True,
)


def _linear_iv(mode, style):
    return EstimatorSpec(
        kind="gmm",
        builtin_moment="linear-iv",
        y="y",
        x=("r",),
        instruments=("z1", "z2", "z3"),
        gmm_mode=mode,
        weight_style=style,
    )


class SolverMix:
    """``run_bootstrap`` cycling over PPML and linear-IV GMM jobs on several
    input samples. A task is one bootstrap plus its 95% interval."""

    name = "solver-mix"
    # Solver work depends on the data, so a cycle spans several samples of
    # each kind; one sample per kind would make the seed move the figures.
    inputs = 4
    # (job, sample kind, estimator, scheme, draws); prior uses alpha = n/2
    jobs = (
        ("ppml-bayes", "gravity", _PPML, "bayes", 200),
        ("ppml-prior", "gravity", _PPML, "prior", 200),
        ("iv-two-step-pigeonhole", "iv", _linear_iv("two-step", "centered"), "pigeonhole", 200),
        ("iv-iterated-centered-bayes", "iv", _linear_iv("iterated", "centered"), "bayes", 100),
        ("iv-iterated-acm-bayes", "iv", _linear_iv("iterated", "acm"), "bayes", 100),
    )

    def __init__(self, seed, workdir, in_process=False):
        self.samples = {}
        for i in range(self.inputs):
            self.samples["gravity", i] = gravity_sample(
                seed=derive(seed, self.name, "gravity", i), n=40
            )
            self.samples["iv", i] = overidentified_iv_sample(
                seed=derive(seed, self.name, "iv", i), n=30
            )
        self.tasks = [
            (f"{job}-{i}", self.samples[kind, i], spec, scheme, draws,
             derive(seed, self.name, job, i))
            for i in range(self.inputs)
            for job, kind, spec, scheme, draws in self.jobs
        ]

    def input_samples(self):
        return list(self.samples.values())

    @staticmethod
    def _run(task, threads):
        _, sample, spec, scheme, draws, seed = task
        alpha = sample.n_units / 2 if scheme == "prior" else None
        result = pb_bootstrap.run_bootstrap(
            sample, spec, scheme=scheme, n_draws=draws, seed=seed, alpha=alpha, threads=threads
        )
        return _interval_output(result, pb_bootstrap.credible_interval(result, 0.95))

    def warm_up(self):
        self.cycle(calls=1)

    def cycle(self, threads=None, calls=None) -> Cycle:
        cycle = Cycle()
        for task in self.tasks[:calls]:
            name, draws = task[0], task[4]
            cycle.covers[name] = 1
            start = time.perf_counter()
            try:
                cycle.outputs[name] = self._run(task, threads)
                cycle.draws += draws
            except Exception as exc:  # a failed call is counted, not fatal
                cycle.errors[name] = f"{type(exc).__name__}: {exc}"
            cycle.latencies.append(time.perf_counter() - start)
        return cycle


def _variance_output(payload):
    return {"point": payload["point_estimate"], "se": payload["se"]}


def _bootstrap_output(payload):
    q = payload["quantiles"]["0.95"]
    return {
        "point": payload["point_estimate"],
        "lower": q["lower"],
        "upper": q["upper"],
        "failed": payload["failed"],
    }


def _counterfactual_output(payload):
    return {
        "point": payload["point"],
        "lower": payload["lower"],
        "upper": payload["upper"],
        "skewness": payload["skewness"],
        "n_draws": payload["n_draws"],
        "dropped": payload["dropped"],
    }


class CliLarge:
    """A fresh ``python -m polyboot.cli`` per task on an 89,700-row CSV from
    ``ols_unit_effects_dgp(300)``. With ``in_process`` the same calls go
    through ``polyboot.cli.main(argv)`` instead (the traced run)."""

    name = "cli-large"
    n_units = 300
    _OLS = ["--estimator", "ols", "--y", "y", "--x", "x", "--intercept"]

    def __init__(self, seed, workdir, in_process=False):
        self.workdir = Path(workdir)
        self.in_process = in_process
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / "cli-large.csv"
        dgp = pb_coverage.ols_unit_effects_dgp(self.n_units)
        write_csv(pb_coverage.generate_synthetic(dgp, derive(seed, self.name, "data"), 0), self.csv)
        # (task name, argv, draws, output extractor, takes --threads); the
        # cheapest call comes first because the first task is the warm-up
        self.calls = (
            ("variance", ["variance", *self._OLS, "--method", "graham"], 0,
             _variance_output, False),
            ("bootstrap", ["bootstrap", *self._OLS, "--seed", str(derive(seed, self.name, "bootstrap"))],
             1000, _bootstrap_output, True),
            ("counterfactual", ["counterfactual", *self._OLS, "--counterfactual", "toy-growth:x",
                                "--seed", str(derive(seed, self.name, "counterfactual"))],
             1000, _counterfactual_output, True),
        )

    def input_samples(self):
        return [load_csv(self.csv)]

    def _call(self, argv, out, cycle):
        """Run one CLI call writing JSON to ``out``; returns its exit code."""
        argv = [*argv, "--data", str(self.csv), "--out", str(out)]
        if self.in_process:
            try:
                return pb_cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                return exc.code
        with open(out.with_suffix(".stderr"), "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "polyboot.cli", *argv],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cycle.child_rss_kb = max(cycle.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def warm_up(self):
        self.cycle(calls=1)

    def _run_call(self, call, threads, cycle):
        name, argv, draws, extract, threaded = call
        if threads is not None and threaded:
            argv = [*argv, "--threads", str(threads)]
        out = self.workdir / f"{name}.json"
        out.unlink(missing_ok=True)
        cycle.covers[name] = 1
        start, end = time.perf_counter(), None
        try:
            code = self._call(argv, out, cycle)
            end = time.perf_counter()
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            with open(out, encoding="utf-8") as fh:
                cycle.outputs[name] = extract(json.load(fh))
            cycle.draws += draws
        except Exception as exc:  # a failed call is counted, not fatal
            cycle.errors[name] = f"{type(exc).__name__}: {exc}"
        cycle.latencies.append((end or time.perf_counter()) - start)

    def cycle(self, threads=None, calls=None) -> Cycle:
        cycle = Cycle()
        for call in self.calls[:calls]:
            self._run_call(call, threads, cycle)
        return cycle


WORKLOADS = {w.name: w for w in (CoverageSmall, SolverMix, CliLarge)}


def rebuild_sample(sample: PolyadicSample) -> PolyadicSample:
    """A new ``PolyadicSample`` from an existing sample's arrays; timing it
    measures the constructor's validation."""
    return PolyadicSample(
        order=sample.order,
        unit_labels=sample.unit_labels,
        index=sample.index,
        variables=sample.variables,
        variable_names=sample.variable_names,
        group_of_unit=sample.group_of_unit,
        cluster_ids=sample.cluster_ids,
        cluster_labels=sample.cluster_labels,
        group_labels=sample.group_labels,
    )


def problems(expected, actual, rel_tol, path="") -> list:
    """Differences between two output trees. Floats agree within ``rel_tol``
    (exactly when it is 0); every other value must be equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += problems(expected[key], actual[key], rel_tol, f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += problems(e, a, rel_tol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{path}: {actual!r} is not a number"]
        if not math.isfinite(actual):
            return [f"{path}: {actual!r} is not finite"]
        if actual == expected or math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def implausible(output) -> list:
    """Checks that hold for any seed: finite values and lower <= upper."""
    out = []
    if isinstance(output, dict) and "lower" in output and "upper" in output:
        for i, (lo, hi) in enumerate(zip(output["lower"], output["upper"])):
            if not lo <= hi:
                out.append(f"interval {i}: lower {lo!r} > upper {hi!r}")
    if isinstance(output, dict) and "methods" in output:
        for name, m in output["methods"].items():
            if m["covered"] > m["evaluated"]:
                out.append(f"{name}: covered {m['covered']} > evaluated {m['evaluated']}")
    values = [output]
    while values:
        v = values.pop()
        if isinstance(v, dict):
            values.extend(v.values())
        elif isinstance(v, list):
            values.extend(v)
        elif isinstance(v, float) and not math.isfinite(v):
            out.append(f"non-finite value {v!r}")
    return out
