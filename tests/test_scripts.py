"""The scripts under ``scripts/`` import, and the kernel timing runs, so a
renamed or re-shaped API fails here rather than in the script."""

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
    monkeypatch.setattr(timing, "PPML_SHAPES", [("ppml n=8 B=20 bayes", 8, "bayes", 20)])
    monkeypatch.setattr(timing, "IV_SHAPES", [
        ("iv two-step n=8 L=3 B=20 bayes", 8, 3, "two-step", "centered", "bayes", 20),
        ("iv iter-acm n=8 L=5 B=20 bayes", 8, 5, "iterated", "acm", "bayes", 20),
    ])
    timing.main(repeats=1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and lines[1].startswith("ols n=6 B=20 bayes")
    assert lines[3].startswith("ppml n=8 B=20 bayes") and float(lines[3].split()[-1]) < 1e-12
    assert lines[4].split()[1:] == ["per-row", "ms", "batched", "ms", "max", "rel", "diff"]
    assert lines[5].startswith("iv two-step n=8 L=3") and lines[6].startswith("iv iter-acm n=8 L=5")
    assert all(len(line.split()) == 9 for line in lines[5:])  # label, two times, the difference
    assert all(float(line.split()[-1]) < 1e-12 for line in lines[5:])
