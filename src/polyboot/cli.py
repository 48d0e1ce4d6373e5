"""Command-line front end for reproducible batch runs.

Commands: estimate, bootstrap, variance, counterfactual, coverage-sim,
marginal-prior-atoms, make-fixture. Every stochastic command requires an
explicit --seed and is a pure function of its flags, so re-running
reproduces output byte for byte. Exit codes: 0 ok, 2 data error (a path
that cannot be read or written is one), 3 solver or numerical error, 4
configuration error; each error class carries its code (``errors.py``).

A command parses its input CSV once per content: the parsed sample is kept
as an uncompressed ``.npz`` entry under ``$XDG_CACHE_HOME/polyboot``, else
``~/.cache/polyboot``, and a later command on the same file reads that
entry instead (rebuilt through ``PolyadicSample``, so it is validated
again). An entry is keyed by the sha256 of the file's bytes, the tuple
arity, the numpy version and the source of ``data_model.py``, so other
content or other parsing code never hits it. Entries are parsed copies of
the input data, written with file mode 0600; the cache keeps the
CACHE_ENTRIES most recently used and evicts the rest. Deleting the
directory is always safe, and any fault of the cache (no home directory,
an unwritable directory, a corrupt entry) falls back to parsing the file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import stat
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .bootstrap import check_level, credible_interval, limiting_prior_atoms, run_bootstrap
from .counterfactual import propagate, resolve_counterfactual, summarize
from .coverage import (
    CoverageConfig,
    mean_unit_effects_dgp,
    ols_unit_effects_dgp,
    run_coverage,
)
from . import data_model
from .data_model import PolyadicSample, load_csv, validate
from .errors import DataError, ParamError, PolybootError
from .estimators import EstimatorSpec, build_moment, evaluate_estimator
from .fixtures import FIXTURE_NAMES, make_fixture
from .variance import graham_variance, naive_dyad_robust
from .weights import uniform_weights

EXIT_OK = 0

CACHE_ENTRIES = 16  # parsed samples the cache keeps; the least recently used goes first
_CACHE_FAULTS = (OSError, EOFError, KeyError, TypeError, ValueError, RuntimeError,
                 zipfile.BadZipFile, DataError)
_ARRAY_FIELDS = ("index", "variables", "cluster_ids")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(ParamError.exit_code)


def _emit(payload, out_path):
    """Write ``payload`` (a JSON-able object, or ready text) to ``out_path`` or
    stdout. A non-finite float (a NaN coverage or skewness) is written as null."""
    if not isinstance(payload, str):
        try:
            payload = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # re-read NaN and the infinities as null: strict JSON
            nulled = json.loads(json.dumps(payload), parse_constant=lambda _: None)
            payload = json.dumps(nulled, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    return Path(base if os.path.isabs(base) else Path.home() / ".cache") / "polyboot"


def _decode(entry) -> dict:
    """The ``PolyadicSample`` fields of an open ``.npz`` entry."""
    return {name: int(v) if name == "order" else v if name in _ARRAY_FIELDS else tuple(v.tolist())
            for name, v in ((name, entry[name]) for name in entry.files)}


def _load_sample(path, order) -> PolyadicSample:
    """``load_csv(path, order)``, parsed once per content (module docstring)."""
    entry = None
    try:
        seen = os.stat(path)
        if stat.S_ISREG(seen.st_mode):
            key = hashlib.sha256(f"{order}\0{np.__version__}\0".encode())
            key.update(hashlib.sha256(Path(data_model.__file__).read_bytes()).digest())
            with open(path, "rb") as fh:
                key.update(fh.read())
            entry = _cache_dir() / f"{key.hexdigest()}.npz"
            os.utime(entry)  # a hit makes its entry the most recently used
            with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                return PolyadicSample(**_decode(npz))
    except _CACHE_FAULTS:
        pass
    sample = load_csv(path, order=order)  # a file that fails to parse raises before a write
    if entry is not None:
        with contextlib.suppress(*_CACHE_FAULTS):
            _store(entry, sample, path, seen)
    return sample


def _store(entry, sample, path, seen):
    """Write ``sample`` to ``entry`` when the file kept its size and mtime
    through the parse and the entry decodes to the same fields, then evict
    the least recently used entries past CACHE_ENTRIES."""
    fields = {f.name: getattr(sample, f.name) for f in dataclasses.fields(sample)}
    fields = {name: value for name, value in fields.items() if value is not None}
    data = io.BytesIO()
    np.savez(data, **fields)
    with np.load(io.BytesIO(data.getvalue()), allow_pickle=False) as npz:
        decoded = _decode(npz)
    same = all(
        value.dtype == decoded[name].dtype and value.tobytes() == decoded[name].tobytes()
        if name in _ARRAY_FIELDS else value == decoded[name]
        for name, value in fields.items()
    )  # not so for a label with a trailing NUL, which numpy's fixed-width strings drop
    now = os.stat(path)
    if not same or (now.st_size, now.st_mtime_ns) != (seen.st_size, seen.st_mtime_ns):
        return
    entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)  # mode 0600
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.getbuffer())
        os.replace(temp, entry)
    finally:
        Path(temp).unlink(missing_ok=True)
    entries = sorted(entry.parent.iterdir(), key=lambda p: p.stat().st_mtime_ns)
    for old in entries[:-CACHE_ENTRIES]:
        old.unlink(missing_ok=True)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV (u1..uP, optional group/cluster, variables)")
    p.add_argument("--order", type=int, default=2, help="tuple arity P (default 2)")


def _add_estimator_args(p):
    p.add_argument(
        "--estimator",
        required=True,
        choices=["mean", "ols", "ppml", "linear-iv"],
        help="estimator / builtin moment",
    )
    p.add_argument("--column", help="variable column (mean estimator)")
    p.add_argument("--y", help="dependent variable column")
    p.add_argument("--x", nargs="+", default=[], help="regressor columns")
    p.add_argument("--instruments", nargs="+", default=[], help="instrument columns (linear-iv)")
    p.add_argument("--intercept", action="store_true", help="include an intercept")
    p.add_argument(
        "--gmm-mode",
        choices=["one-step", "two-step", "iterated"],
        default="two-step",
        help="GMM estimation mode (linear-iv)",
    )
    p.add_argument(
        "--weight-style",
        choices=["centered", "acm"],
        default="centered",
        help="GMM weight matrix style",
    )


# the flags each --estimator needs, as its error message names them
_REQUIRED_FLAGS = {
    "mean": "--column",
    "ols": "--y and --x",
    "ppml": "--y and --x",
    "linear-iv": "--y, --x and --instruments",
}


def _spec_from_args(args) -> EstimatorSpec:
    """The estimator flags, as a config 'estimator' section, through _spec_from_config."""
    cfg = {k: v for k in ("column", "y", "x", "instruments") if (v := getattr(args, k))}
    cfg.update(
        kind=args.estimator,
        intercept=args.intercept,
        gmm_mode=args.gmm_mode,
        weight_style=args.weight_style,
    )
    try:
        return _spec_from_config(cfg)
    except KeyError:
        raise ParamError(
            f"--estimator {args.estimator} requires {_REQUIRED_FLAGS[args.estimator]}"
        ) from None


def _cmd_estimate(args):
    sample = _load_sample(args.data, args.order)
    spec = _spec_from_args(args)
    theta, info = evaluate_estimator(spec, sample, uniform_weights(sample))
    _emit(
        {
            "estimator": args.estimator,
            "param_names": list(spec.param_names()),
            "point_estimate": theta.tolist(),
            "info": info,
            "diagnostics": validate(sample),
        },
        args.out,
    )
    return EXIT_OK


def _histogram(draws, bins):
    out = []
    for k in range(draws.shape[1]):
        counts, edges = np.histogram(draws[:, k], bins=bins)
        out.append({"edges": edges.tolist(), "counts": counts.tolist()})
    return out


def _add_draw_args(p):
    p.add_argument("--method", choices=["bayes", "pigeonhole", "prior"], default="bayes")
    p.add_argument("--alpha", type=float, help="prior precision (method=prior)")
    p.add_argument("--draws", type=int, default=1000, help="number of draws B")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--level", type=float, action="append", default=None)
    p.add_argument("--emit-draws", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")


def _draw_inputs(args, levels) -> tuple:
    """(sample, EstimatorSpec) for the data and estimator flags, once the
    draw flags and the interval ``levels`` are checked."""
    sample = _load_sample(args.data, args.order)
    spec = _spec_from_args(args)
    if args.method == "prior" and args.alpha is None:
        raise ParamError("--method prior requires --alpha")
    if args.method != "prior" and args.alpha is not None:
        raise ParamError("--alpha only applies to --method prior")
    for level in levels:
        check_level(level)
    return sample, spec


def _cmd_bootstrap(args):
    if args.histogram_bins < 0:
        raise ParamError("--histogram-bins must be >= 0")
    sample, spec = _draw_inputs(args, args.level)
    result = run_bootstrap(
        sample, spec, args.method, args.draws, args.seed, args.alpha, args.threads
    )
    payload = result.to_dict(emit_draws=args.emit_draws)
    payload["quantiles"] = {}
    for level in args.level:
        ci = credible_interval(result, level)
        payload["quantiles"][f"{level:g}"] = {
            "lower": ci.lower.tolist(),
            "upper": ci.upper.tolist(),
        }
    if args.histogram_bins:
        payload["histogram"] = _histogram(result.draws, args.histogram_bins)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_variance(args):
    sample = _load_sample(args.data, args.order)
    spec = _spec_from_args(args)
    moment = build_moment(spec, sample)
    theta, _ = evaluate_estimator(spec, sample, uniform_weights(sample))
    if args.method == "graham":
        est = graham_variance(moment, sample, theta)
    else:
        est = naive_dyad_robust(moment, sample, theta)
    payload = est.to_dict()
    payload["param_names"] = list(spec.param_names())
    payload["point_estimate"] = theta.tolist()
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_counterfactual(args):
    # a bad level or counterfactual fails before the draws are made
    if len(args.level) > 1:
        raise ParamError("counterfactual takes one --level")
    sample, spec = _draw_inputs(args, args.level)
    name, _, arg = args.counterfactual.partition(":")
    if name == "identity" and not arg:
        g = resolve_counterfactual(f"identity:{len(spec.param_names())}")
    else:
        g = resolve_counterfactual(args.counterfactual)
    result = run_bootstrap(
        sample, spec, args.method, args.draws, args.seed, args.alpha, args.threads
    )
    preds = propagate(sample, result, g)
    summary = summarize(preds, args.level[0], thresholds=args.threshold)
    payload = summary.to_dict()
    payload["counterfactual"] = g.name
    payload["method"] = result.method
    payload["seed"] = args.seed
    payload["B"] = result.n_draws_requested
    if args.emit_draws:
        payload["draws"] = preds.draws.tolist()
    _emit(payload, args.out)
    return EXIT_OK


def _is_number(v):
    # exact int/float comparison: inf, nan and ints past the float range fail
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


_JSON_TYPES = {  # what a typed config value must be, and how its error names it
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (_is_number, "a finite number"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "a list of finite numbers"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "strings": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                "a list of strings"),
}


def _typed(cfg, key, kind, *default):
    """cfg[key], or the default when one is given and the key is absent; a
    value that is not the JSON ``kind`` raises TypeError."""
    value = cfg.get(key, *default) if default else cfg[key]
    check, name = _JSON_TYPES[kind]
    if not check(value):
        raise TypeError(f"{key!r} must be {name}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


_DGPS = {  # dgp type: its factory and the number parameters it takes after n
    "unit-effects-mean": (mean_unit_effects_dgp, ("sigma_c", "sigma_eps")),
    "unit-effects-ols": (
        ols_unit_effects_dgp, ("slope", "sigma_a", "sigma_b", "sigma_nu", "sigma_eps")
    ),
}


def _dgp_from_config(cfg):
    kind = cfg.get("type")
    if not isinstance(kind, str) or kind not in _DGPS:
        raise ParamError(f"unknown dgp type {kind!r}")
    factory, keys = _DGPS[kind]
    params = {key: _typed(cfg, key, "number") for key in keys if key in cfg}
    return factory(_typed(cfg, "n", "integer"), **params)


def _section(cfg, key):
    """cfg[key], which must be a JSON object."""
    value = cfg[key]
    if not isinstance(value, dict):
        raise ParamError(f"config section {key!r} must be a JSON object")
    return value


def _spec_from_config(cfg) -> EstimatorSpec:
    """The one EstimatorSpec builder; a missing required key raises KeyError."""
    kind = cfg.get("kind")
    if kind == "mean":
        return EstimatorSpec(kind="mean", column=cfg["column"])
    if kind not in ("ols", "ppml", "linear-iv"):
        raise ParamError(f"unknown estimator kind {kind!r}")
    intercept = _typed(cfg, "intercept", "boolean", False)
    regression = dict(y=cfg["y"], x=_typed(cfg, "x", "strings"), intercept=intercept)
    if kind != "linear-iv":
        return EstimatorSpec(kind=kind, **regression)
    return EstimatorSpec(
        kind="gmm",
        builtin_moment="linear-iv",
        instruments=_typed(cfg, "instruments", "strings"),
        gmm_mode=cfg.get("gmm_mode", "two-step"),
        weight_style=cfg.get("weight_style", "centered"),
        **regression,
    )


def _cmd_coverage(args):
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParamError(f"the config is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParamError(str(exc)) from None
    if not isinstance(cfg, dict):
        raise ParamError("config must be a JSON object")
    dgp = source = None
    try:
        if "dgp" in cfg:
            dgp = _dgp_from_config(_section(cfg, "dgp"))
        elif "source" in cfg:
            src = _section(cfg, "source")
            if not isinstance(src["data"], str):
                raise TypeError(f"source.data must be a path string, got {src['data']!r}")
            source = (src["data"], _typed(src, "order", "integer", 2))
        else:
            raise ParamError("config needs a 'dgp' or 'source' section")
        settings = dict(
            estimator=_spec_from_config(_section(cfg, "estimator")),
            methods=_typed(cfg, "methods", "strings"),
            n_replications=_typed(cfg, "replications", "integer"),
            n_bootstrap=_typed(cfg, "draws", "integer", 500),
            level=_typed(cfg, "level", "number", 0.95),
            truth=_typed(cfg, "truth", "numbers") if "truth" in cfg else None,
            target_index=_typed(cfg, "target_index", "integer", 0),
        )
    except KeyError as exc:
        raise ParamError(f"config is missing the key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParamError(f"config value of the wrong type: {exc}") from None
    config = CoverageConfig(
        seed=args.seed,
        dgp=dgp,
        source_sample=None if source is None else _load_sample(*source),
        threads=args.threads,
        **settings,
    )
    progress = None
    if args.progress:

        def progress(done, total):
            print(f"replication {done}/{total}", file=sys.stderr, flush=True)

    report = run_coverage(config, progress=progress)
    if args.format == "csv":
        lines = ["method,coverage,mean_width,evaluated,failures,skipped_reason"]
        for m in report.methods:
            reason = m.skipped_reason or ""
            lines.append(
                f"{m.method},{m.coverage!r},{m.mean_width!r},{m.n_evaluated},"
                f"{m.n_failures},{reason}"
            )
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_prior_atoms(args):
    sample = _load_sample(args.data, args.order)
    spec = _spec_from_args(args)
    atoms = limiting_prior_atoms(sample, spec)
    _emit(
        {
            "estimator": args.estimator,
            "param_names": list(spec.param_names()),
            "locations": atoms.locations.tolist(),
            "masses": atoms.masses.tolist(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_make_fixture(args):
    path = make_fixture(args.name, args.seed, args.out_dir)
    _emit({"fixture": args.name, "path": path}, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyboot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="point estimate on uniform weights")
    _add_data_args(p)
    _add_estimator_args(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("bootstrap", help="posterior / bootstrap draws and quantiles")
    _add_data_args(p)
    _add_estimator_args(p)
    _add_draw_args(p)
    p.add_argument("--histogram-bins", type=int, default=0)
    p.set_defaults(fn=_cmd_bootstrap)

    p = sub.add_parser("variance", help="analytic variance report")
    _add_data_args(p)
    _add_estimator_args(p)
    p.add_argument("--method", choices=["graham", "naive"], default="graham")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_variance)

    p = sub.add_parser("counterfactual", help="propagate draws through g(data, theta)")
    _add_data_args(p)
    _add_estimator_args(p)
    _add_draw_args(p)
    p.add_argument("--counterfactual", required=True, help="e.g. toy-growth:<column> or identity")
    p.add_argument("--threshold", type=float, action="append", default=[])
    p.set_defaults(fn=_cmd_counterfactual)

    p = sub.add_parser("coverage-sim", help="Monte Carlo coverage experiment")
    p.add_argument("--config", required=True, help="JSON experiment description")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--progress", action="store_true", help="stream replication counts to stderr")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("marginal-prior-atoms", help="limiting marginal prior atoms")
    _add_data_args(p)
    _add_estimator_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_prior_atoms)

    p = sub.add_parser("make-fixture", help="write a named fixture CSV")
    p.add_argument("--name", required=True, choices=list(FIXTURE_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default="fixtures")
    p.set_defaults(fn=_cmd_make_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "level") and not args.level:
        args.level = [0.95]
    try:
        return args.fn(args)
    except PolybootError as exc:  # each error class carries its code (errors.py)
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path that cannot be read or written
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
