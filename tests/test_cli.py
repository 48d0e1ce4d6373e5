import json
import subprocess
import sys
import time

import numpy as np
import pytest

import polyboot as pb
from polyboot import cli
from polyboot.cli import main
from polyboot.fixtures import make_fixture


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejections exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def exact_line_csv(tmp_path):
    return make_fixture("exact-line", seed=0, out_dir=tmp_path)


def test_estimate_exact_line(capsys, exact_line_csv):
    code, out, _ = run(
        capsys, "estimate", "--data", exact_line_csv, "--estimator", "ols",
        "--y", "y", "--x", "x",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["point_estimate"][0] == pytest.approx(2.0, abs=1e-12)


def test_missing_column_exits_2(capsys, exact_line_csv):
    code, _, err = run(
        capsys, "estimate", "--data", exact_line_csv, "--estimator", "ols",
        "--y", "lnflow", "--x", "x",
    )
    assert code == 2
    assert "lnflow" in err


def test_ppml_all_zero_y_exits_3(capsys, tmp_path):
    p = tmp_path / "zeros.csv"
    p.write_text("u1,u2,y,x\nA,B,0,1\nB,A,0,2\nA,C,0,3\nC,A,0,4\n")
    code, _, err = run(
        capsys, "estimate", "--data", str(p), "--estimator", "ppml",
        "--y", "y", "--x", "x",
    )
    assert code == 3
    assert "solver" in err


def test_bad_flag_exits_4(capsys, exact_line_csv):
    code, _, _ = run(capsys, "estimate", "--data", exact_line_csv, "--estimator", "nope")
    assert code == 4


def test_alpha_without_prior_exits_4(capsys, exact_line_csv):
    code, _, err = run(
        capsys, "bootstrap", "--data", exact_line_csv, "--estimator", "ols",
        "--y", "y", "--x", "x", "--seed", "1", "--method", "bayes", "--alpha", "3",
    )
    assert code == 4
    assert "alpha" in err


def test_counterfactual_alpha_without_prior_exits_4(capsys, exact_line_csv):
    code, _, err = run(
        capsys, "counterfactual", "--data", exact_line_csv, "--estimator", "ols",
        "--y", "y", "--x", "x", "--counterfactual", "identity", "--seed", "1",
        "--method", "pigeonhole", "--alpha", "3",
    )
    assert code == 4
    assert "alpha" in err


def _coverage_config(tmp_path, drop=None, **sections):
    cfg = {
        "dgp": {"type": "unit-effects-mean", "n": 6},
        "estimator": {"kind": "mean", "column": "y"},
        "methods": ["naive"],
        "replications": 1,
    }
    if drop:
        section, _, key = drop.rpartition(".")
        del (cfg[section] if section else cfg)[key]
    cfg.update(sections)
    return _write_json(tmp_path, cfg)


def _write_json(tmp_path, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(value))
    return str(path)


def _draw_args(tmp_path):
    """Data, estimator and draw flags of a small mean bootstrap."""
    return ["--data", make_fixture("exact-line", 0, tmp_path), "--estimator", "mean",
            "--column", "y", "--draws", "20", "--seed", "1"]


def _csv(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return str(path)


def _not_utf8_csv(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"u1,u2,y\n\xff\xfe,B,1\nB,\xff\xfe,2\n")
    return str(path)


ERROR_MATRIX = [
    # (case, argv builder, exit code, text stderr must contain)
    ("data-is-directory",
     lambda tmp: ["estimate", "--data", str(tmp), "--estimator", "mean", "--column", "y"],
     2, "data error"),
    ("data-missing",
     lambda tmp: ["estimate", "--data", str(tmp / "none.csv"), "--estimator", "mean",
                  "--column", "y"],
     2, "data error"),
    ("config-is-directory",
     lambda tmp: ["coverage-sim", "--config", str(tmp), "--seed", "1"],
     2, "data error"),
    *[
        (f"coverage-config-without-{key}",
         lambda tmp, key=key: ["coverage-sim", "--config", _coverage_config(tmp, key),
                               "--seed", "1"],
         4, repr(key.rpartition(".")[2]))
        for key in ("replications", "methods", "estimator", "dgp.n")
    ],
    *[
        (f"data-{name}",
         lambda tmp, text=text: ["estimate", "--data", _csv(tmp, text), "--estimator", "mean",
                                 "--column", "y"],
         2, f"data error: {message}\n")
        for name, text, message in (
            ("without-u2", "u1,y\nA,1\n", "missing unit column 'u2'"),
            ("without-variables", "u1,u2,group\nA,B,g\n", "no variable columns"),
            ("empty-unit-label", "u1,u2,y\nA,B,1\nA, ,2\n", "line 3: empty unit label in 'u2'"),
            ("conflicting-group", "u1,u2,group,y\nA,B,g1,1\nA,C,g2,2\n",
             "line 3: conflicting group for unit 'A'"),
            ("header-only", "u1,u2,y\n", "no observations"),
        )
    ],
    ("data-not-utf8",
     lambda tmp: ["estimate", "--data", _not_utf8_csv(tmp), "--estimator", "mean",
                  "--column", "y"],
     2, "not UTF-8"),
    ("coverage-source-not-utf8",
     lambda tmp: ["coverage-sim", "--config",
                  _coverage_config(tmp, "dgp", source={"data": _not_utf8_csv(tmp)}),
                  "--seed", "1"],
     2, "not UTF-8"),
    ("coverage-config-not-utf8",
     lambda tmp: ["coverage-sim", "--config", _not_utf8_csv(tmp), "--seed", "1"],
     4, "not UTF-8"),
    ("coverage-source-data-not-a-path",
     lambda tmp: ["coverage-sim", "--config", _coverage_config(tmp, "dgp", source={"data": 0}),
                  "--seed", "1"],
     4, "config value of the wrong type"),
    ("coverage-config-without-dgp-or-source",
     lambda tmp: ["coverage-sim", "--config", _coverage_config(tmp, "dgp"), "--seed", "1"],
     4, "configuration error: config needs a 'dgp' or 'source' section\n"),
    ("coverage-config-unknown-dgp-type",
     lambda tmp: ["coverage-sim", "--config",
                  _coverage_config(tmp, dgp={"type": "nope", "n": 6}), "--seed", "1"],
     4, "configuration error: unknown dgp type 'nope'\n"),
    ("coverage-config-not-an-object",
     lambda tmp: ["coverage-sim", "--config", _write_json(tmp, [1, 2]), "--seed", "1"],
     4, "config must be a JSON object"),
    *[
        (f"coverage-config-{section}-not-an-object",
         lambda tmp, section=section, drop=drop: [
             "coverage-sim", "--config", _coverage_config(tmp, drop, **{section: 5}),
             "--seed", "1"],
         4, f"config section {section!r} must be a JSON object")
        for section, drop in (("dgp", None), ("estimator", None), ("source", "dgp"))
    ],
    *[
        (f"coverage-config-{key}-wrong-type",
         lambda tmp, key=key, value=value: [
             "coverage-sim", "--config", _coverage_config(tmp, **{key: value}), "--seed", "1"],
         4, "config value of the wrong type")
        for key, value in (
            ("replications", "many"),
            ("level", "x"),
            ("methods", 5),
            ("dgp", {"type": "unit-effects-mean", "n": "six"}),
            ("estimator", {"kind": "ols", "y": "y", "x": 5}),
        )
    ],
    # a value of the wrong JSON type is refused, not truncated, coerced or split
    *[
        (f"coverage-config-{name}",
         lambda tmp, values=values, drop=drop: [
             "coverage-sim", "--config", _coverage_config(tmp, drop, **values), "--seed", "1"],
         4, f"config value of the wrong type: {text}")
        for name, values, drop, text in (
            ("replications-1.9", {"replications": 1.9}, None, "'replications' must be an integer"),
            ("draws-2.5", {"draws": 2.5}, None, "'draws' must be an integer"),
            ("target-index-0.7", {"target_index": 0.7}, None, "'target_index' must be an integer"),
            ("dgp-n-6.5", {"dgp": {"type": "unit-effects-mean", "n": 6.5}}, None,
             "'n' must be an integer"),
            ("source-order-2.0", {"source": {"data": "d.csv", "order": 2.0}}, "dgp",
             "'order' must be an integer"),
            ("intercept-false-string",
             {"estimator": {"kind": "ols", "y": "y", "x": ["x"], "intercept": "false"}}, None,
             "'intercept' must be true or false"),
            ("methods-string", {"methods": "naive"}, None, "'methods' must be a list of strings"),
            ("x-string", {"estimator": {"kind": "ols", "y": "y", "x": "x"}}, None,
             "'x' must be a list of strings"),
            ("instruments-string",
             {"estimator": {"kind": "linear-iv", "y": "y", "x": ["x"],
                            "instruments": "instruments"}}, None,
             "'instruments' must be a list of strings"),
            ("dgp-sigma-c-string", {"dgp": {"type": "unit-effects-mean", "n": 6,
                                            "sigma_c": "big"}}, None,
             "'sigma_c' must be a finite number, got 'big'"),
            ("dgp-sigma-c-null", {"dgp": {"type": "unit-effects-mean", "n": 6,
                                          "sigma_c": None}}, None,
             "'sigma_c' must be a finite number, got None"),
            # JSON's 1e400 parses to inf, as the Infinity written here does
            ("dgp-sigma-c-1e400", {"dgp": {"type": "unit-effects-mean", "n": 6,
                                           "sigma_c": float("inf")}}, None,
             "'sigma_c' must be a finite number, got inf"),
            ("dgp-slope-list", {"dgp": {"type": "unit-effects-ols", "n": 6,
                                        "slope": [1, 2]}}, None,
             "'slope' must be a finite number, got [1, 2]"),
            ("dgp-slope-true", {"dgp": {"type": "unit-effects-ols", "n": 6,
                                        "slope": True}}, None,
             "'slope' must be a finite number, got True"),
            ("truth-string", {"truth": "12"}, None,
             "'truth' must be a list of finite numbers, got '12'"),
            ("level-string", {"level": "0.9"}, None, "'level' must be a finite number, got '0.9'"),
        )
    ],
    # a column the data lack is the experiment's fault, not R failed replications
    ("coverage-config-estimator-column-missing",
     lambda tmp: ["coverage-sim", "--config",
                  _coverage_config(tmp, estimator={"kind": "mean", "column": "nope"}),
                  "--seed", "1"],
     2, "data error: unknown variable column 'nope'"),
    *[
        (f"variance-{method}-overidentified",
         lambda tmp, method=method: [
             "variance", "--data", make_fixture("overidentified-iv", 11, tmp), "--estimator",
             "linear-iv", "--y", "y", "--x", "r", "--instruments", "z1", "z2", "z3",
             "--method", method],
         4, f"configuration error: {text} requires a just-identified moment")
        for method, text in (("graham", "dyadic-robust variance"), ("naive", "naive variance"))
    ],
    ("estimate-mean-without-column",
     lambda tmp: ["estimate", "--data", make_fixture("exact-line", 0, tmp), "--estimator", "mean"],
     4, "--estimator mean requires --column"),
    ("estimate-linear-iv-without-instruments",
     lambda tmp: ["estimate", "--data", make_fixture("exact-line", 0, tmp), "--estimator",
                  "linear-iv", "--y", "y", "--x", "x"],
     4, "--estimator linear-iv requires --y, --x and --instruments"),
    ("coverage-config-not-json",
     lambda tmp: ["coverage-sim", "--config", make_fixture("exact-line", 0, tmp), "--seed", "1"],
     4, "configuration error"),
    ("unknown-flag-value",
     lambda tmp: ["estimate", "--data", str(tmp), "--estimator", "nope"],
     4, "invalid choice"),
    ("bootstrap-prior-without-alpha",
     lambda tmp: ["bootstrap", *_draw_args(tmp), "--method", "prior"],
     4, "configuration error: --method prior requires --alpha\n"),
    ("bootstrap-prior-alpha-inf",
     lambda tmp: ["bootstrap", *_draw_args(tmp), "--method", "prior", "--alpha", "inf"],
     4, "alpha must be > 0"),
    ("bootstrap-histogram-bins-negative",
     lambda tmp: ["bootstrap", *_draw_args(tmp), "--histogram-bins", "-2"],
     4, "--histogram-bins must be >= 0"),
    *[
        (f"counterfactual-level-{level}",
         lambda tmp, level=level: ["counterfactual", *_draw_args(tmp), "--counterfactual",
                                   "identity", "--level", level],
         4, "level must be in (0, 1)")
        for level in ("1.5", "0", "-0.2")
    ],
    *[
        (f"counterfactual-{g}",
         lambda tmp, g=g: ["counterfactual", *_draw_args(tmp), "--counterfactual", g],
         4, text)
        for g, text in (
            ("identity:x", "identity needs a positive integer dimension"),
            ("identity:0", "identity needs a positive integer dimension"),
            ("identity:-1", "identity needs a positive integer dimension"),
            ("toy-growth", "toy-growth needs a column"),
            ("nope", "configuration error: unknown counterfactual 'nope'\n"),
        )
    ],
]


@pytest.mark.parametrize(
    "build, expected, text", [case[1:] for case in ERROR_MATRIX], ids=[c[0] for c in ERROR_MATRIX]
)
def test_error_matrix_exit_codes(capsys, tmp_path, build, expected, text):
    code, _, err = run(capsys, *build(tmp_path))
    assert code == expected
    assert text in err
    assert "Traceback" not in err


def error_classes(cls=pb.errors.PolybootError):
    """``cls`` and all its subclasses, recursively."""
    return [cls, *(c for sub in cls.__subclasses__() for c in error_classes(sub))]


EXIT_TABLE = {  # errors.py's table: each class's exit code and stderr label
    "PolybootError": (3, "error"),
    "BootstrapError": (3, "error"),
    "DataError": (2, "data error"),
    "ParamError": (4, "configuration error"),
    "Unsupported": (4, "configuration error"),
    **dict.fromkeys(
        ["_NumericalError", "DegenerateDraw", "SolverError", "SingularDesign",
         "SingularWeightMatrix", "SingularJacobian", "CounterfactualError", "DgpError"],
        (3, "solver error"),
    ),
}


def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys, tmp_path):
    classes = error_classes()
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_TABLE)  # a new class needs a row
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("the message")

        monkeypatch.setattr(cli, "_cmd_make_fixture", fail)
        code, out, err = run(capsys, "make-fixture", "--name", "exact-line", "--seed", "1",
                             "--out-dir", str(tmp_path))
        code_expected, label = EXIT_TABLE[cls.__name__]
        assert (code, out, err) == (code_expected, "", f"{label}: the message\n"), cls


@pytest.mark.parametrize(
    "build",
    [
        lambda tmp, csv: ["estimate", "--data", f"{csv}/x", "--estimator", "mean",
                          "--column", "y"],
        lambda tmp, csv: ["estimate", "--data", str(tmp / ("d" * 5000)), "--estimator", "mean",
                          "--column", "y"],
        lambda tmp, csv: ["coverage-sim", "--config", f"{csv}/x", "--seed", "1"],
        lambda tmp, csv: ["estimate", "--data", csv, "--estimator", "mean", "--column", "y",
                          "--out", f"{csv}/out.json"],
    ],
    ids=["data-under-a-file", "data-name-too-long", "config-under-a-file", "out-under-a-file"],
)
def test_a_path_that_cannot_be_read_or_written_exits_2(capsys, tmp_path, build):
    code, _, err = run(capsys, *build(tmp_path, make_fixture("exact-line", 0, tmp_path)))
    assert code == 2
    assert err.startswith("data error: ")
    assert "Traceback" not in err


def test_a_malformed_json_config_exits_4_with_the_decoder_message(capsys, tmp_path):
    text = '{"dgp": '
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text)
    code, _, err = run(capsys, "coverage-sim", "--config", str(path), "--seed", "1")
    assert (code, err) == (4, f"configuration error: {decoded.value}\n")


@pytest.mark.parametrize(
    "values, text",
    [
        ({"level": 1.5}, "level must be in (0, 1)"),
        ({"target_index": 3}, "target_index must be in [0, 1), got 3"),
        ({"target_index": -1}, "target_index must be in [0, 1), got -1"),
        ({"draws": 0, "methods": ["bayes"]}, "need at least 2 bootstrap draws for an interval"),
        ({"truth": []}, "truth has no entry at target_index 0"),
        ({"truth": ["a"]}, "config value of the wrong type"),
        ({"methods": ["naive", "naive"]}, "method 'naive' is listed twice"),
        ({"methods": []}, "need at least one method"),
    ],
    ids=["level-1.5", "target-index-past-the-end", "target-index-negative", "draws-0",
         "truth-too-short", "truth-not-a-number", "methods-duplicate", "methods-empty"],
)
def test_coverage_config_values_out_of_range_exit_4(capsys, tmp_path, values, text):
    # the mean DGP's estimator has one parameter
    code, _, err = run(
        capsys, "coverage-sim", "--config", _coverage_config(tmp_path, **values), "--seed", "1"
    )
    assert code == 4
    assert any(line.startswith(f"configuration error: {text}") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bootstrap", ["--level", "1.5"]),
        ("bootstrap", ["--level", "0.9", "--level", "0"]),
        ("counterfactual", ["--counterfactual", "identity", "--level", "1.5"]),
        ("counterfactual", ["--counterfactual", "identity:x"]),
        ("counterfactual", ["--counterfactual", "identity", "--level", "0.9", "--level", "0.5"]),
    ],
)
def test_bad_level_or_counterfactual_exits_before_the_draws(
    monkeypatch, capsys, tmp_path, command, flags
):
    def no_draws(*args, **kwargs):
        raise AssertionError("run_bootstrap was called")

    monkeypatch.setattr(cli, "run_bootstrap", no_draws)
    code, _, err = run(capsys, command, *_draw_args(tmp_path), *flags)
    assert code == 4 and "configuration error" in err


def unit_effects_csv(tmp_path):
    return make_fixture("unit-effects", seed=3, out_dir=tmp_path)


def test_bootstrap_deterministic_across_runs_and_threads(capsys, tmp_path):
    data = unit_effects_csv(tmp_path)
    args = [
        "bootstrap", "--data", data, "--estimator", "mean", "--column", "y",
        "--draws", "80", "--seed", "7", "--emit-draws",
    ]
    outputs = []
    for threads in ("1", "1", "4"):
        code, out, _ = run(capsys, *args, "--threads", threads)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_bootstrap_quantiles_consistent_with_draws(capsys, tmp_path):
    data = unit_effects_csv(tmp_path)
    code, out, _ = run(
        capsys, "bootstrap", "--data", data, "--estimator", "mean", "--column", "y",
        "--draws", "120", "--seed", "8", "--level", "0.95", "--emit-draws",
    )
    assert code == 0
    payload = json.loads(out)
    draws = np.array(payload["draws"])
    q = payload["quantiles"]["0.95"]
    assert q["lower"][0] == pytest.approx(np.quantile(draws[:, 0], 0.025))
    assert q["upper"][0] == pytest.approx(np.quantile(draws[:, 0], 0.975))


def test_bootstrap_prior_close_to_bayes(capsys, tmp_path):
    from scipy.stats import ks_2samp

    data = unit_effects_csv(tmp_path)
    n_units = 40
    base = [
        "bootstrap", "--data", data, "--estimator", "mean", "--column", "y",
        "--draws", "10000", "--seed", "9", "--emit-draws",
    ]
    _, out_b, _ = run(capsys, *base, "--method", "bayes")
    _, out_p, _ = run(capsys, *base, "--method", "prior", "--alpha", str(n_units))
    b = np.array(json.loads(out_b)["draws"])[:, 0]
    p = np.array(json.loads(out_p)["draws"])[:, 0]
    assert ks_2samp(b, p).statistic < 1.628 * np.sqrt(2 / 10000)


def test_variance_zero_residual_zero_se(capsys, tmp_path):
    p = tmp_path / "const.csv"
    rows = ["u1,u2,y"]
    for i, j in pb.full_index_set(4, 2).tolist():
        rows.append(f"u{i},u{j},5.0")
    p.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        capsys, "variance", "--data", str(p), "--estimator", "mean", "--column", "y",
        "--method", "graham",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["se"][0] == pytest.approx(0.0, abs=1e-12)
    assert "sigma1" in payload["components"]


def test_bootstrap_histogram_bins_every_draw_of_each_parameter(capsys, tmp_path):
    code, out, _ = run(
        capsys, "bootstrap", "--data", make_fixture("gravity", 3, tmp_path), "--estimator",
        "ols", "--y", "flow", "--x", "log_friction", "--intercept", "--draws", "40", "--seed", "3",
        "--histogram-bins", "5", "--emit-draws",
    )
    assert code == 0
    payload = json.loads(out)
    draws = np.array(payload["draws"])
    assert len(payload["histogram"]) == len(payload["param_names"]) == 2
    for k, hist in enumerate(payload["histogram"]):
        counts, edges = np.histogram(draws[:, k], bins=5)
        assert hist == {"edges": edges.tolist(), "counts": counts.tolist()}
        assert sum(hist["counts"]) == 40


def test_counterfactual_thresholds_give_exceedance_and_draws(capsys, tmp_path):
    code, out, _ = run(
        capsys, "counterfactual", *_draw_args(tmp_path), "--counterfactual", "identity",
        "--threshold", "0", "--threshold", "2.4", "--emit-draws",
    )
    assert code == 0
    payload = json.loads(out)
    draws = np.array(payload["draws"])
    assert draws.shape == (20, 1)
    assert list(payload["exceedance"]) == ["0.0", "2.4"]
    for key, exceed in payload["exceedance"].items():
        p = float(np.mean(draws[:, 0] > float(key)))
        assert exceed == {"probability": [p], "mc_se": [np.sqrt(p * (1 - p) / 20)]}


def test_counterfactual_identity_matches_theta(capsys, tmp_path):
    data = unit_effects_csv(tmp_path)
    base = [
        "--data", data, "--estimator", "mean", "--column", "y",
        "--draws", "101", "--seed", "10",
    ]
    code, out_cf, _ = run(
        capsys, "counterfactual", *base, "--counterfactual", "identity", "--level", "0.9",
    )
    assert code == 0
    code, out_bs, _ = run(capsys, "bootstrap", *base, "--level", "0.9")
    assert code == 0
    cf = json.loads(out_cf)
    bs = json.loads(out_bs)
    assert cf["point"] == bs["point_estimate"]
    assert cf["lower"] == bs["quantiles"]["0.9"]["lower"]
    assert cf["upper"] == bs["quantiles"]["0.9"]["upper"]


def test_coverage_single_replication(capsys, tmp_path):
    cfg = {
        "dgp": {"type": "unit-effects-mean", "n": 8},
        "estimator": {"kind": "mean", "column": "y"},
        "methods": ["bayes", "naive"],
        "replications": 1,
        "draws": 60,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(
        capsys, "coverage-sim", "--config", str(cfg_path), "--seed", "11", "--progress",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replications"] == 1
    for m in payload["methods"]:
        assert m["coverage"] in (0.0, 1.0)
    assert "replication 1/1" in err


def test_coverage_csv_format(capsys, tmp_path):
    cfg = {
        "dgp": {"type": "unit-effects-mean", "n": 6},
        "estimator": {"kind": "mean", "column": "y"},
        "methods": ["naive"],
        "replications": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(
        capsys, "coverage-sim", "--config", str(cfg_path), "--seed", "12", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("method,coverage")


def test_coverage_json_is_strict_json(capsys, tmp_path):
    # graham is skipped on the gravity fixture's missing dyads: nothing is
    # evaluated, so its coverage and mean width are null, not NaN
    cfg = {
        "source": {"data": make_fixture("gravity", 17, tmp_path)},
        "estimator": {"kind": "mean", "column": "flow"},
        "methods": ["graham", "naive"],
        "replications": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "coverage-sim", "--config", str(cfg_path), "--seed", "3")
    assert code == 0

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    graham, naive = json.loads(out, parse_constant=refuse)["methods"]
    assert graham["skipped_reason"] is not None
    assert (graham["coverage"], graham["mean_width"], graham["evaluated"]) == (None, None, 0)
    assert naive["evaluated"] == 2 and naive["mean_width"] > 0


def test_marginal_prior_atoms_cli(capsys, tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("u1,u2,y,x\nA,B,2,1\nB,A,12,2\n")
    code, out, _ = run(
        capsys, "marginal-prior-atoms", "--data", str(p), "--estimator", "ols", "--y", "y",
        "--x", "x",
    )
    assert code == 0
    # the estimate on weights 1/2, 1/2: (2 + 24) / (1 + 4)
    assert json.loads(out) == {
        "estimator": "ols", "param_names": ["x"], "locations": [[5.2]], "masses": [1.0]
    }


@pytest.mark.parametrize(
    "text, order, expected, message",
    [
        ("u1,u2,u3,y\nA,B,C,1\nB,A,C,2\n", 3, 4,
         "configuration error: limiting prior atoms are defined for dyadic samples"),
        ("u1,u2,y,x\nA,B,1,1\nB,A,2,1\nA,C,3,2\nC,A,1,5\nB,C,2,3\nC,B,4,2\n", 2, 3,
         "solver error: the estimate on the pair ('A', 'B') failed"),
    ],
    ids=["order-3", "failed-pair"],
)
def test_marginal_prior_atoms_cli_errors(capsys, tmp_path, text, order, expected, message):
    p = tmp_path / "data.csv"
    p.write_text(text)
    code, _, err = run(
        capsys, "marginal-prior-atoms", "--data", str(p), "--order", str(order),
        "--estimator", "ols", "--y", "y", "--x", "x", "--intercept",
    )
    assert code == expected and err.startswith(message)


def test_make_fixture_cli(capsys, tmp_path):
    code, out, _ = run(
        capsys, "make-fixture", "--name", "triadic", "--seed", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    path = json.loads(out)["path"]
    s = pb.load_csv(path, order=3)
    assert s.order == 3
    assert s.n_units == 6


def test_missing_file_exits_2(capsys):
    code, _, _ = run(
        capsys, "estimate", "--data", "/nonexistent.csv", "--estimator", "mean",
        "--column", "y",
    )
    assert code == 2


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "polyboot.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "bootstrap" in proc.stdout


def test_a_reader_that_closes_stdout_ends_the_command_silently_with_141(tmp_path):
    # 5,000 emitted draws are about 190 KB of JSON, well past the 64 KB a pipe holds
    argv = ["bootstrap", "--data", unit_effects_csv(tmp_path), "--estimator", "mean",
            "--column", "y", "--draws", "5000", "--seed", "1", "--emit-draws"]
    with subprocess.Popen([sys.executable, "-m", "polyboot.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""  # no "data error", no "Exception ignored" at the exit's flush


def test_import_does_not_load_scipy():
    check = "import sys, polyboot, polyboot.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- the parsed-sample cache ---------------------------------------------------

OLS_FLAGS = ["--estimator", "ols", "--y", "y", "--x", "x"]
CSV_COMMANDS = {  # command -> (flags, cluster levels of its data, whether it has unit groups)
    "estimate": (OLS_FLAGS, 2, True),
    "bootstrap": ([*OLS_FLAGS, "--draws", "30", "--seed", "3", "--emit-draws"], 2, True),
    "variance": (OLS_FLAGS, 1, True),  # the dyadic-robust variance takes no cluster column
    "counterfactual": (
        [*OLS_FLAGS, "--counterfactual", "toy-growth:x", "--draws", "30", "--seed", "3"], 2, True
    ),
    # the limiting prior has atoms only without cluster levels or unit groups
    "marginal-prior-atoms": (OLS_FLAGS, 1, False),
}


def grouped_csv(tmp_path, levels=2, name="grouped.csv", groups=True):
    """A CSV from ``write_csv`` with unit groups (unless ``groups`` is false)
    and, for levels > 1, a cluster column: every field of a sample goes
    through the cache."""
    rng = np.random.default_rng(5)
    index = np.tile(pb.full_index_set(5, 2), (levels, 1))
    clusters = {}
    if levels > 1:
        clusters = dict(cluster_ids=np.repeat(np.arange(levels), 20),
                        cluster_labels=tuple(str(2000 + t) for t in range(levels)))
    sample = pb.PolyadicSample(
        2, [f"c{i}" for i in range(5)], index, rng.standard_normal((len(index), 2)) + [0, 3],
        ("y", "x"), **clusters,
        **(dict(group_of_unit=(0, 1, 0, 1, 1), group_labels=("east", "west")) if groups else {}),
    )
    pb.write_csv(sample, tmp_path / name)
    return str(tmp_path / name)


def cache_entries(tmp_path):
    return sorted((tmp_path / "cache" / "polyboot").glob("*"))


def forbid_parsing(monkeypatch):
    def parse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(cli, "load_csv", parse)


@pytest.mark.parametrize("command", list(CSV_COMMANDS))
def test_cache_gives_the_same_out_cold_warm_and_without_a_cache(
    monkeypatch, capsys, tmp_path, command
):
    flags, levels, groups = CSV_COMMANDS[command]
    data = grouped_csv(tmp_path, levels, groups=groups)

    def out_bytes(name):
        out = tmp_path / f"{name}.json"
        code, _, err = run(capsys, command, *flags, "--data", data, "--out", str(out))
        assert code == 0 and err == ""
        return out.read_bytes()

    cold = out_bytes("cold")
    (entry,) = cache_entries(tmp_path)
    assert entry.stat().st_mode & 0o777 == 0o600
    with pytest.MonkeyPatch.context() as mp:
        forbid_parsing(mp)
        assert out_bytes("warm") == cold
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))  # not a directory
    assert out_bytes("unwritable") == cold

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(cli.Path, "home", no_home)
    assert out_bytes("no-home") == cold
    assert cache_entries(tmp_path) == [entry]


def test_coverage_on_a_grouped_source_exits_4(capsys, tmp_path):
    cfg = _coverage_config(tmp_path, "dgp", source={"data": grouped_csv(tmp_path, levels=1)})
    code, _, err = run(capsys, "coverage-sim", "--config", cfg, "--seed", "1")
    assert (code, err) == (4, "configuration error: the pigeonhole DGP does not carry unit groups\n")


def test_coverage_source_reads_the_cache(monkeypatch, capsys, tmp_path):
    source = {"data": make_fixture("exact-line", 0, tmp_path)}
    cfg = _coverage_config(tmp_path, "dgp", source=source)
    outputs = [run(capsys, "coverage-sim", "--config", cfg, "--seed", "1")]
    assert len(cache_entries(tmp_path)) == 1
    forbid_parsing(monkeypatch)
    outputs.append(run(capsys, "coverage-sim", "--config", cfg, "--seed", "1"))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_an_edited_csv_misses(capsys, tmp_path):
    path = tmp_path / "pairs.csv"
    means = []
    for y in ("2", "4"):
        path.write_text(f"u1,u2,y\nA,B,{y}\nB,A,6\n")
        code, out, _ = run(capsys, "estimate", "--data", str(path), "--estimator", "mean",
                           "--column", "y")
        means.append(json.loads(out)["point_estimate"])
    assert means == [[4.0], [5.0]]
    assert len(cache_entries(tmp_path)) == 2


@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_a_damaged_entry_is_parsed_around_and_replaced(capsys, tmp_path, damage):
    args = ["bootstrap", "--data", grouped_csv(tmp_path), *CSV_COMMANDS["bootstrap"][0]]
    first = run(capsys, *args)
    (entry,) = cache_entries(tmp_path)
    good = entry.read_bytes()
    entry.write_bytes(good[: len(good) // 2] if damage == "truncated" else b"\x93NUMPY garbage")
    assert run(capsys, *args) == first
    assert entry.read_bytes() == good


def test_a_bad_csv_exits_2_on_every_call_and_is_not_stored(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u1,u2,y\nA,B,x\nB,A,1\n")
    for _ in range(2):
        code, _, err = run(capsys, "estimate", "--data", str(path), "--estimator", "mean",
                           "--column", "y")
        assert code == 2 and "line 2: column 'y' is not numeric" in err
    assert cache_entries(tmp_path) == []


def test_a_label_numpy_strings_cannot_hold_is_not_stored(capsys, tmp_path):
    # a NUL sends the file to the row-by-row reader, which keeps it in the label
    path = tmp_path / "nul.csv"
    path.write_text("u1,u2,y\nA\x00,B,1\nB,A\x00,2\n")
    outputs = [run(capsys, "estimate", "--data", str(path), "--estimator", "mean",
                   "--column", "y") for _ in range(2)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert pb.load_csv(path).unit_labels == ("A\x00", "B")
    assert cache_entries(tmp_path) == []


def test_a_csv_changed_while_it_is_parsed_is_not_stored(monkeypatch, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("u1,u2,y\nA,B,2\nB,A,6\n")
    load_csv = cli.load_csv

    def edit_then_parse(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write("A,C,1\n")
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", edit_then_parse)
    assert cli._load_sample(str(path), 2).n_obs == 3
    assert cache_entries(tmp_path) == []


def test_the_cache_keeps_its_bound_and_evicts_the_least_recently_used(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "CACHE_ENTRIES", 3)
    paths = []
    for i in range(4):
        paths.append(tmp_path / f"d{i}.csv")
        paths[-1].write_text(f"u1,u2,y\nA,B,{i}\nB,A,1\n")

    def load(i):
        time.sleep(0.05)  # file times may be as coarse as one clock tick
        return cli._load_sample(str(paths[i]), 2)

    for i in (0, 1, 2, 0, 3):  # the hit on d0 makes d1 the least recently used
        load(i)
    assert len(cache_entries(tmp_path)) == 3
    forbid_parsing(monkeypatch)
    for i in (0, 2, 3):
        assert load(i).variables[0, 0] == i
    with pytest.raises(AssertionError, match="the CSV was parsed"):
        load(1)
