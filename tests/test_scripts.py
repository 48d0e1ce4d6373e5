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
    timing.main(repeats=1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("ols n=6 B=20 bayes")
