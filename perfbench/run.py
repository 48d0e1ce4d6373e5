"""Run one polyboot benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coverage-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The load generator is one closed-loop client: it starts the next task only
after the previous one returned, and it calls the program with its default
thread pool. A run repeats whole cycles of the workload's task list until
``--seconds`` have passed, checks every output against the first cycle
(bit-identical) and against the stored references (relative 1e-9), and
prints as its last line one JSON object::

    {"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
cycle untraced, traced and with ``threads=1``, and reports the per-layer
metrics from the traced cycle. A seed without stored references also checks
the first program call of the default seed's cycle against its references
after the measured part of the run. Result
files with provenance, the traced spans (JSON lines) and a summary table go
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 3  # fresh processes whose median set-up time is setup_s
PROBE_REPEATS = 3  # repeats of the import and validation probes
P90_MIN_TASKS = 100

END_TO_END = {
    "draws_per_s": "1/s",
    "task_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "weights.calls": "count",
    "weights.us_per_call": "us",
    "weights.obs_per_s": "1/s",
    "weights.bytes_computed": "bytes",
    "weights.zero_weight_share": "ratio",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "estimators.calls": "count",
    "estimators.us_per_call": "us",
    "estimators.moment_evals": "count",
    "estimators.solver_iters_p50": "count",
    "estimators.solver_iters_max": "count",
    "estimators.failures": "count",
    "bootstrap.self_s": "s",
    "bootstrap.serial_ratio": "ratio",
    "bootstrap.quantile_s": "s",
    "bootstrap.failed_draw_share": "ratio",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "data_model.load_csv_s": "s",
    "data_model.validate_s": "s",
    "data_model.rows": "count",
    "coverage.generate_s": "s",
    "coverage.self_s": "s",
    "coverage.replications": "count",
    "variance.naive_s": "s",
    "variance.graham_s": "s",
    "counterfactual.propagate_s": "s",
    "counterfactual.summarize_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Import polyboot from this checkout's ``src``; exit if it is absent."""
    if not (SRC / "polyboot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyboot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyboot

    if Path(polyboot.__file__).resolve().parent != (SRC / "polyboot").resolve():
        sys.exit(f"perfbench: imported polyboot from {polyboot.__file__}, not {SRC}")


# -- provenance ---------------------------------------------------------------


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "polyboot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed):
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        # ThreadPoolExecutor's default, which the program's pool uses
        "pool_workers": min(32, (os.cpu_count() or 1) + 4),
        "platform": platform.platform(),
    }


# -- probes in fresh processes -----------------------------------------------


def setup_seconds(workload, seed):
    """Process start to ready in a fresh interpreter (``--setup-only``)."""
    from workloads import child_env

    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
    return elapsed


def import_seconds():
    """Wall time of ``python -c "import polyboot"`` in a fresh interpreter."""
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import polyboot"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


def setup_only(workload, seed):
    from workloads import WORKLOADS

    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[workload](seed, workdir).warm_up()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- checking outputs -----------------------------------------------------------


def score(cycles, expected, rel_tol):
    """(attempted, failed, notes): each output must equal the first cycle's
    bit for bit and, where references exist, match them within ``rel_tol``."""
    from workloads import implausible, problems

    attempted = failed = 0
    notes = []
    first = cycles[0].outputs
    for cycle in cycles:
        for name, n_tasks in cycle.covers.items():
            attempted += n_tasks
            if name in cycle.errors:
                found = [cycle.errors[name]]
            else:
                out = cycle.outputs[name]
                found = implausible(out) + problems(first.get(name), out, 0.0)
                if expected is not None:
                    found += problems(expected.get(name), out, rel_tol)
            if found:
                failed += n_tasks
                notes += [f"{name}{p}" if p.startswith(".") else f"{name}: {p}" for p in found[:3]]
    return attempted, failed, notes


# -- measuring ----------------------------------------------------------------


def measure_untraced(cls, seed, seconds, workdir):
    setups = [setup_seconds(cls.name, seed) for _ in range(SETUP_REPEATS)]
    workload = cls(seed, workdir)
    workload.warm_up()
    cycles, rates = [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        cycles.append(workload.cycle())
        end = time.perf_counter()
        rates.append(cycles[-1].draws / (end - cycle_start))
        if end - start >= seconds:
            break
    wall = time.perf_counter() - start
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        max(c.child_rss_kb for c in cycles),
    )
    latencies = [t for c in cycles for t in c.latencies]
    task_ms = {}
    for c in cycles:
        names = [name for name, n in c.covers.items() for _ in range(n)]
        for name, t in zip(names, c.latencies):
            task_ms.setdefault(name, []).append(t * 1e3)
    metrics = {
        # the median over cycles, so a burst of load on the machine that
        # slows part of a run moves it less than a total over the run would
        "draws_per_s": statistics.median(rates),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    extra = {
        "wall_s": wall,
        "cycles": len(cycles),
        "task_ms": task_ms,
        "samples": {
            "draws_per_s": len(rates),
            "task_p50_ms": len(latencies),
            "setup_s": len(setups),
            "peak_rss_mb": 1,
        },
    }
    if len(latencies) >= P90_MIN_TASKS:
        extra["task_p90_ms"] = {
            "value": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "samples": len(latencies),
        }
    return metrics, cycles, extra


def install(tracer):
    """Wrap polyboot's layer entry points at the names their callers use."""
    import polyboot.bootstrap as bootstrap
    import polyboot.cli as cli
    import polyboot.coverage as coverage
    import polyboot.estimators as estimators
    import polyboot.rng as rng

    def weights_attrs(span, args, result):
        w = result.weights
        span.attrs["obs"] = int(w.size)
        span.attrs["zeros"] = int(w.size - (w != 0).sum())
        # computed from array sizes (index read, weights written), not measured
        span.attrs["bytes"] = int(args[0].index.nbytes + w.nbytes)

    def bootstrap_attrs(span, args, result):
        span.attrs["requested"] = result.n_draws_requested
        span.attrs["failed"] = result.failed_draw_count
        span.attrs["iterations"] = [
            m["iterations"] for m in result.draw_metadata if "iterations" in m
        ]

    def coverage_attrs(span, args, result):
        span.attrs["replications"] = result.n_replications

    tracer.wrap(bootstrap, "weights_for_draw", "weights", after=weights_attrs)
    tracer.wrap(rng, "substream", "rng.substream")
    tracer.wrap(coverage, "run_coverage", "coverage", after=coverage_attrs)
    tracer.wrap(coverage, "generate_synthetic", "coverage.generate")
    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "load_csv", "data_model.load_csv")
    tracer.wrap(cli, "propagate", "counterfactual.propagate")
    tracer.wrap(cli, "summarize", "counterfactual.summarize")
    for module in (bootstrap, coverage, cli):
        tracer.wrap(module, "evaluate_estimator", "estimators")
        tracer.wrap(module, "run_bootstrap", "bootstrap", after=bootstrap_attrs, worker_root=True)
        tracer.wrap(module, "credible_interval", "bootstrap.quantile")
    for module in (coverage, cli):
        tracer.wrap(module, "naive_dyad_robust", "variance.naive")
        tracer.wrap(module, "graham_variance", "variance.graham")
    for module in (estimators, coverage, cli):
        tracer.count_moment_evals(module)


def layer_metrics(tracer):
    """Per-layer figures of one traced cycle."""

    def ratio(a, b):
        return a / b if b else 0.0

    # per-draw layers run in pool workers: their times are busy CPU time
    weights = tracer.by_name("weights")
    weights_s = tracer.busy("weights")
    obs = sum(s.attrs["obs"] for s in weights)
    estimates = tracer.by_name("estimators")
    runs = [s for s in tracer.by_name("bootstrap") if "requested" in s.attrs]
    iterations = [i for s in runs for i in s.attrs["iterations"]]
    return {
        "weights.calls": len(weights),
        "weights.us_per_call": ratio(weights_s, len(weights)) * 1e6,
        "weights.obs_per_s": ratio(obs, weights_s),
        "weights.bytes_computed": sum(s.attrs["bytes"] for s in weights),
        "weights.zero_weight_share": ratio(sum(s.attrs["zeros"] for s in weights), obs),
        "rng.substream_calls": len(tracer.by_name("rng.substream")),
        "rng.substream_s": tracer.busy("rng.substream"),
        "estimators.calls": len(estimates),
        "estimators.us_per_call": ratio(tracer.busy("estimators"), len(estimates)) * 1e6,
        "estimators.moment_evals": tracer.counts["moment_evals"],
        "estimators.solver_iters_p50": statistics.median(iterations) if iterations else 0,
        "estimators.solver_iters_max": max(iterations, default=0),
        "estimators.failures": sum("error" in s.attrs for s in estimates),
        "bootstrap.self_s": tracer.self_total("bootstrap"),
        "bootstrap.quantile_s": tracer.total("bootstrap.quantile"),
        "bootstrap.failed_draw_share": ratio(
            sum(s.attrs["failed"] for s in runs), sum(s.attrs["requested"] for s in runs)
        ),
        "cli.self_s": tracer.self_total("cli"),
        "data_model.load_csv_s": tracer.total("data_model.load_csv"),
        "coverage.generate_s": tracer.total("coverage.generate"),
        "coverage.self_s": tracer.self_total("coverage"),
        "coverage.replications": sum(
            s.attrs.get("replications", 0) for s in tracer.by_name("coverage")
        ),
        "variance.naive_s": tracer.total("variance.naive"),
        "variance.graham_s": tracer.total("variance.graham"),
        "counterfactual.propagate_s": tracer.total("counterfactual.propagate"),
        "counterfactual.summarize_s": tracer.total("counterfactual.summarize"),
    }


def measure_traced(cls, seed, seconds, workdir, spans_path):
    from tracing import Tracer
    from workloads import rebuild_sample

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - start, result

    import_s = statistics.median(import_seconds() for _ in range(PROBE_REPEATS))
    workload = cls(seed, workdir, in_process=True)
    workload.warm_up()
    samples = workload.input_samples()
    validate_s = sum(
        statistics.median(timed(rebuild_sample, s)[0] for _ in range(PROBE_REPEATS))
        for s in samples
    )

    rounds, cycles = [], []
    spans_path.unlink(missing_ok=True)
    start = time.perf_counter()
    while True:
        plain_s, plain = timed(workload.cycle)
        tracer = Tracer()
        install(tracer)
        try:
            traced_s, traced = timed(workload.cycle)
        finally:
            tracer.uninstall()
        serial_s, serial = timed(workload.cycle, threads=1)
        tracer.write_jsonl(spans_path, round_index=len(rounds))
        figures = layer_metrics(tracer)
        figures["bootstrap.serial_ratio"] = plain_s / serial_s
        figures["trace.overhead_ratio"] = traced_s / plain_s
        rounds.append(figures)
        cycles += [plain, traced, serial]
        if time.perf_counter() - start >= seconds:
            break

    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["cli.import_s"] = import_s
    metrics["data_model.validate_s"] = validate_s
    metrics["data_model.rows"] = sum(s.n_obs for s in samples)
    extra = {
        "rounds": len(rounds),
        "samples": {
            "per_layer": len(rounds),
            "cli.import_s": PROBE_REPEATS,
            "data_model.validate_s": PROBE_REPEATS,
        },
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return {name: metrics[name] for name in PER_LAYER}, cycles, extra


# -- reporting ------------------------------------------------------------------


def _table(rows, columns):
    lines = ["| metric | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|"]
    for name, cells in rows:
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return lines


def write_summary():
    """Tabulate the newest result file per workload and trace mode."""
    latest = {}
    for path in sorted(RESULTS.glob("*.json"), key=lambda p: p.stat().st_mtime):
        record = json.loads(path.read_text(encoding="utf-8"))
        latest[(record["trace"], record["workload"])] = record
    lines = ["# polyboot benchmark results", ""]
    for trace, title, units in ((0, "End to end (untraced)", END_TO_END), (1, "Per layer (traced)", PER_LAYER)):
        columns = [w for (t, w) in latest if t == trace]
        if not columns:
            continue
        rows = []
        for name, unit in units.items():
            cells = []
            for w in columns:
                metric = latest[(trace, w)]["result"]["metrics"].get(name)
                cells.append("" if metric is None else f"{metric['value']:.6g}")
            rows.append((f"{name} ({unit})", cells))
        seeds = ", ".join(f"{w}: seed {latest[(trace, w)]['seed']}" for w in columns)
        lines += [f"## {title}", "", seeds, ""] + _table(rows, columns) + [""]
    (RESULTS / "summary.md").write_text("\n".join(lines), encoding="utf-8")


def run(workload, seed, seconds, trace, references):
    """Measure one workload; returns the result record (the printed line is
    its ``result``)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    rel_tol = references["rel_tol"]
    stored = references["outputs"][workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
            metrics, cycles, extra = measure_traced(cls, seed, seconds, workdir, spans)
            units = PER_LAYER
        else:
            metrics, cycles, extra = measure_untraced(cls, seed, seconds, workdir)
            units = END_TO_END
        attempted, failed, notes = score(cycles, stored.get(str(seed)), rel_tol)
        if str(seed) not in stored:
            default = str(references["default_seed"])
            check = cls(int(default), workdir / "reference", in_process=True)
            a, f, n = score([check.cycle(calls=1)], stored[default], rel_tol)
            attempted, failed, notes = attempted + a, failed + f, notes + n
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "result": result,
        "error_share": failed / attempted,
        "mismatches": notes[:20],
        **extra,
        "provenance": provenance(seed),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["coverage-small", "solver-mix", "cli-large"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), references)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    write_summary()
    for note in record["mismatches"]:
        print(f"mismatch: {note}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
