"""Command-line front end for reproducible batch runs.

Commands: estimate, bootstrap, variance, counterfactual, coverage-sim,
marginal-prior-atoms, make-fixture. Every stochastic command requires an
explicit --seed and is a pure function of its flags, so re-running
reproduces output byte for byte. Exit codes: 0 ok, 2 data error, 3 solver
or numerical error, 4 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bootstrap import check_level, credible_interval, limiting_prior_atoms, run_bootstrap
from .counterfactual import propagate, resolve_counterfactual, summarize
from .coverage import (
    CoverageConfig,
    mean_unit_effects_dgp,
    ols_unit_effects_dgp,
    run_coverage,
)
from .data_model import load_csv, validate
from .errors import (
    CounterfactualError,
    DataError,
    DegenerateDraw,
    DgpError,
    EvalError,
    ParamError,
    PolybootError,
    SingularDesign,
    SingularJacobian,
    SingularWeightMatrix,
    SolverError,
    Unsupported,
)
from .estimators import EstimatorSpec, build_moment, evaluate_estimator
from .fixtures import FIXTURE_NAMES, make_fixture
from .variance import graham_variance, naive_dyad_robust
from .weights import uniform_weights

EXIT_OK = 0
EXIT_DATA = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

_SOLVER_ERRORS = (
    SolverError,
    SingularDesign,
    SingularWeightMatrix,
    SingularJacobian,
    DegenerateDraw,
    DgpError,
    CounterfactualError,
    EvalError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def _emit(payload, out_path):
    """Write ``payload`` (a JSON-able object, or ready text) to ``out_path`` or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    sample = load_csv(args.data, order=args.order)
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
    sample = load_csv(args.data, order=args.order)
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
    sample = load_csv(args.data, order=args.order)
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
    sample, spec = _draw_inputs(args, args.level[:1])
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


def _dgp_from_config(cfg):
    kind = cfg.get("type")
    if kind == "unit-effects-mean":
        return mean_unit_effects_dgp(
            int(cfg["n"]), cfg.get("sigma_c", 1.0), cfg.get("sigma_eps", 0.3)
        )
    if kind == "unit-effects-ols":
        return ols_unit_effects_dgp(
            int(cfg["n"]),
            cfg.get("slope", 1.0),
            cfg.get("sigma_a", 1.0),
            cfg.get("sigma_b", 1.0),
            cfg.get("sigma_nu", 0.3),
            cfg.get("sigma_eps", 0.3),
        )
    raise ParamError(f"unknown dgp type {kind!r}")


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
    regression = dict(y=cfg["y"], x=tuple(cfg["x"]), intercept=bool(cfg.get("intercept", False)))
    if kind != "linear-iv":
        return EstimatorSpec(kind=kind, **regression)
    return EstimatorSpec(
        kind="gmm",
        builtin_moment="linear-iv",
        instruments=tuple(cfg["instruments"]),
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
            source = (src["data"], int(src.get("order", 2)))
        else:
            raise ParamError("config needs a 'dgp' or 'source' section")
        settings = dict(
            estimator=_spec_from_config(_section(cfg, "estimator")),
            methods=tuple(cfg["methods"]),
            n_replications=int(cfg["replications"]),
            n_bootstrap=int(cfg.get("draws", 500)),
            level=float(cfg.get("level", 0.95)),
            truth=tuple(cfg["truth"]) if "truth" in cfg else None,
            target_index=int(cfg.get("target_index", 0)),
        )
    except KeyError as exc:
        raise ParamError(f"config is missing the key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParamError(f"config value of the wrong type: {exc}") from None
    config = CoverageConfig(
        seed=args.seed,
        dgp=dgp,
        source_sample=None if source is None else load_csv(source[0], order=source[1]),
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
    sample = load_csv(args.data, order=args.order)
    name, _, rest = args.functional.partition(":")
    if name != "ratio-of-means":
        raise ParamError("supported functional: ratio-of-means:<ycol>:<xcol>")
    ycol, _, xcol = rest.partition(":")
    if not ycol or not xcol:
        raise ParamError("functional needs both columns: ratio-of-means:<ycol>:<xcol>")
    y = sample.column(ycol)
    x = sample.column(xcol)

    def rho(variables):
        return np.column_stack([x * x, x * y])

    def chi(a):
        if a[0] == 0:
            return np.array([np.nan])
        return np.array([a[1] / a[0]])

    atoms = limiting_prior_atoms(sample, rho, chi)
    _emit(
        {
            "functional": args.functional,
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
    p.add_argument(
        "--functional", required=True, help="estimator as chi(E[rho]); ratio-of-means:<ycol>:<xcol>"
    )
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ParamError, Unsupported) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PolybootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except json.JSONDecodeError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
