import json
import subprocess
import sys

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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bootstrap", ["--level", "1.5"]),
        ("bootstrap", ["--level", "0.9", "--level", "0"]),
        ("counterfactual", ["--counterfactual", "identity", "--level", "1.5"]),
        ("counterfactual", ["--counterfactual", "identity:x"]),
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


def test_marginal_prior_atoms_cli(capsys, tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("u1,u2,y,x\nA,B,2,1\nB,A,12,2\n")
    code, out, _ = run(
        capsys, "marginal-prior-atoms", "--data", str(p),
        "--functional", "ratio-of-means:y:x",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["locations"] == [[4.0]]
    assert payload["masses"] == [1.0]


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


def test_import_does_not_load_scipy():
    check = "import sys, polyboot, polyboot.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
