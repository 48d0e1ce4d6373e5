"""The scripts under ``scripts/`` import, and the kernel timing and the
experiments run at tiny sizes, so a renamed or re-shaped API fails here
rather than in the script."""

import importlib.util
from pathlib import Path

import pytest

import polyboot as pb

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script runs only under a __main__ guard
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    load(path)


def test_kernel_timing_runs(monkeypatch, capsys):
    timing = load(next(p for p in SCRIPTS if p.stem == "kernel_timing"))
    dgp = pb.coverage.ols_unit_effects_dgp(6)
    monkeypatch.setattr(timing, "SHAPES", [("ols n=6 B=20 bayes", dgp, timing.OLS, "bayes", 20)])
    monkeypatch.setattr(timing, "PPML_SHAPES", [
        ("ppml n=8 B=20 bayes", 8, "bayes", None, 20),
        ("ppml n=8 B=20 prior n/2", 8, "prior", 4.0, 20),
    ])
    monkeypatch.setattr(timing, "IV_SHAPES", [
        ("iv two-step n=8 L=3 B=20 bayes", 8, 3, False, "two-step", "centered", "bayes", 20),
        ("iv iter-acm n=8 L=5 B=20 bayes", 8, 5, True, "iterated", "acm", "bayes", 20),
        ("iv two-step n=40 L=13 B=4 bayes", 40, 12, True, "two-step", "centered", "bayes", 4),
    ])
    monkeypatch.setattr(timing, "DRAW_SHAPES", [("draws n=5 B=4 prior n/2", 5, "prior", 2.5, 4)])
    monkeypatch.setattr(timing, "USER_SHAPES", [
        ("user ppml n=8 B=10 bayes", timing.GRAVITY, 8, 10),
        ("user iv 2-step n=8 B=10 bayes", timing.IV_TWO_STEP, 8, 10),
    ])
    timing.main(repeats=1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and lines[1].startswith("ols n=6 B=20 bayes")
    assert lines[2].split()[-2:] == ["block", "rows"]
    # both PPML jobs: the difference, then the rows of a block (20 draws fit in one)
    assert lines[3].startswith("ppml n=8 B=20 bayes") and lines[4].startswith("ppml n=8 B=20 prior")
    assert all(float(line.split()[-2]) < 1e-12 and line.split()[-1] == "20" for line in lines[3:5])
    assert lines[5].split()[1:] == ["weight-row", "ms", "factorized", "ms", "max", "rel", "diff"]
    assert lines[6].startswith("iv two-step n=8 L=3") and lines[7].startswith("iv iter-acm n=8 L=5")
    assert all(len(line.split()) == 9 for line in lines[6:9])  # label, two times, the difference
    assert all(float(line.split()[-1]) < 1e-12 for line in lines[6:8])
    # L = 13 over n = 40: the dense features pass weights.BLOCK_BYTES, so only weight rows run
    assert lines[8].startswith("iv two-step n=40 L=13") and lines[8].split()[-2:] == ["-", "-"]
    # the draw inputs, checked against per-row substreams before they are timed
    assert lines[9].split() == ["shape", "log_draws", "ms", "us", "per", "draw"]
    assert lines[10].startswith("draws n=5 B=4 prior n/2") and len(lines[10].split()) == 7
    # the builtin moments as user moments: IV to rounding, PPML to the builtin's absolute stop
    assert lines[11].split()[1:4] == ["user", "moment", "ms"]
    assert lines[12].startswith("user ppml n=8") and lines[13].startswith("user iv 2-step n=8")
    assert float(lines[12].split()[-2]) < 1e-7 and float(lines[13].split()[-2]) < 1e-12


def test_cli_peak_rss_runs(capsys):
    peak = load(next(p for p in SCRIPTS if p.stem == "cli_peak_rss"))
    peak.main(["--n", "6", "--draws", "20", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["call", "inherited", "MB", "pinned", "MB"]
    assert [line.split()[0] for line in lines[1:]] == ["variance", "bootstrap", "counterfactual"]
    assert all(float(mb) > 0 for line in lines[1:] for mb in line.split()[1:])


def test_coverage_experiment_runs(monkeypatch, capsys):
    experiment = load(next(p for p in SCRIPTS if p.stem == "coverage_experiment"))
    monkeypatch.setattr("sys.argv", ["coverage_experiment.py", "--n", "6", "--reps", "2",
                                     "--draws", "20", "--seed", "1"])
    experiment.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n=6  R=2  B=20  nominal=95%")
    assert lines[1].split() == ["method", "coverage", "mc", "se", "mean", "width", "failures"]
    assert [line.split()[0] for line in lines[2:]] == ["bayes", "pigeonhole", "naive"]
    for line in lines[2:]:
        _, coverage, se, *_ = line.split()
        p = float(coverage)  # 2 replications: p in {0, 0.5, 1}, se sqrt(p(1 - p) / 2)
        assert 0.0 <= p <= 1.0 and float(se) == pytest.approx((p * (1 - p) / 2) ** 0.5, abs=5e-4)


def test_prior_limit_experiment_runs(monkeypatch, capsys):
    experiment = load(next(p for p in SCRIPTS if p.stem == "prior_limit_experiment"))
    monkeypatch.setattr("sys.argv", ["prior_limit_experiment.py", "--draws", "50", "--seed", "1"])
    experiment.main()
    out = capsys.readouterr().out
    assert out.count("KS = ") == 4 and out.count("share of draws within 1e-3") == 3
    assert "limiting atoms:" in out
