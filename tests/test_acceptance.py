"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute. Every tolerance below is pinned, including the runtime
budget each criterion carries.
"""

import contextlib
import json
import time

import numpy as np
from scipy.stats import ks_2samp

import polyboot as pb
from polyboot.fixtures import (
    make_fixture,
    overidentified_iv_sample,
    ratio_of_means_sample,
)
from conftest import random_dyadic_sample, weighted_ols
import oracles


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:6.1f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS ({elapsed:6.1f}s): {description}")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s budget"


def test_criterion_01_dirichlet_construction():
    with criterion(1, "normalized exponential draws match Dirichlet moments", 10.0):
        n, draws = 10, 100_000
        v, _ = pb.unit_draws(n, "bayes", seed=1001, b0=0, b1=draws)
        w = v / v.sum(axis=1, keepdims=True)
        mean_acc = w.sum(axis=0)
        sq = np.einsum("ij,ij->i", w, w)
        # E[W_k] = 1/n with Var(W_k) = (n-1)/(n^2 (n+1))
        se_w = np.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
        assert np.max(np.abs(mean_acc / draws - 1.0 / n)) < 3 * se_w
        target = 2.0 / (n + 1)
        se_sq = sq.std(ddof=1) / np.sqrt(draws)
        assert abs(sq.mean() - target) < 3 * se_sq


def test_criterion_02_ols_reweighting_identity():
    with criterion(2, "weighted OLS equals sqrt-weight-scaled OLS oracle", 5.0):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for trial in range(100):
            s = random_dyadic_sample(rng, int(rng.integers(4, 10)))
            w = pb.weights_for_draw(s, "bayes", seed=2000 + trial, b=trial)
            spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
            theta, _ = pb.evaluate_estimator(spec, s, w)
            design = np.column_stack([np.ones(s.n_obs), s.column("x")])
            ref = oracles.scaled_ols(s.column("y"), design, w)
            worst = max(worst, float(np.max(np.abs(theta - ref))))
        assert worst < 1e-10


def test_criterion_03_gmm_stacking_equivalence():
    with criterion(3, "two-step GMM equals stacked just-identified root", 30.0):
        iv = overidentified_iv_sample()
        spec = pb.EstimatorSpec(
            kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
            instruments=("z1", "z2", "z3"),
        )
        moment = pb.build_moment(spec, iv)
        stacked = oracles.stacked_two_step_moment(moment)
        worst = 0.0
        for b in range(20):
            w = pb.weights_for_draw(iv, "bayes", seed=1003, b=b)
            two_step, _ = pb.gmm(moment, iv, w, mode="two-step")
            theta1, _ = pb.gmm(moment, iv, w, mode="one-step")
            init = oracles.stacked_init(moment, iv, w, theta_init=theta1)
            root, _ = pb.gauss_newton(stacked, iv, w, init=init)
            worst = max(worst, abs(float(two_step[0]) - float(root[moment.n_params])))
        assert worst < 1e-6


def test_criterion_04_graham_sigma2_oracle():
    with criterion(4, "accumulator shared-unit term equals triple-loop oracle", 10.0):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(4, 13))
            s = random_dyadic_sample(rng, n)
            if trial % 2 == 0:
                moment = pb.mean_moment(s.variable_names, "y")
                theta = np.array([float(s.variables[:, 0].mean())])
            else:
                moment = pb.ols_moment(s.variable_names, "y", ("x",), intercept=True)
                theta = weighted_ols(s, pb.uniform_weights(s), "y", ("x",), intercept=True)
            est = pb.graham_variance(moment, s, theta)
            ref = oracles.triple_loop_sigma2(oracles.phi_tilde_matrix(moment, s, theta))
            worst = max(worst, float(np.max(np.abs(est.sigma2 - ref))))
        assert worst < 1e-12


def test_criterion_05_coverage_contrast():
    with criterion(5, "unit-effects coverage: bayes >= .90, naive <= .80, pigeonhole close", 600.0):
        config = pb.CoverageConfig(
            estimator=pb.EstimatorSpec(kind="mean", column="y"),
            methods=("bayes", "pigeonhole", "naive"),
            n_replications=500,
            n_bootstrap=500,
            level=0.95,
            seed=1005,
            dgp=pb.mean_unit_effects_dgp(40, sigma_c=1.0, sigma_eps=0.3),
        )
        report = pb.run_coverage(config)
        bayes = oracles.method(report, "bayes").coverage
        naive = oracles.method(report, "naive").coverage
        pigeon = oracles.method(report, "pigeonhole").coverage
        print(f"    coverage: bayes={bayes:.3f} pigeonhole={pigeon:.3f} naive={naive:.3f}")
        assert bayes >= 0.90
        assert naive <= 0.80
        assert abs(pigeon - bayes) <= 0.07
        # ordering on unit-effect DGPs
        assert bayes >= pigeon - 0.05
        assert bayes > naive and pigeon > naive


def test_criterion_06_large_n_method_agreement():
    with criterion(6, "n=100 OLS: bootstrap SDs and analytic SE pairwise within 15%", 120.0):
        dgp = pb.ols_unit_effects_dgp(100)
        sample = pb.generate_synthetic(dgp, seed=1006, r=0)
        spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
        bayes = pb.run_bootstrap(sample, spec, "bayes", n_draws=600, seed=61)
        pigeon = pb.run_bootstrap(sample, spec, "pigeonhole", n_draws=600, seed=62)
        moment = pb.build_moment(spec, sample)
        analytic = pb.graham_variance(moment, sample, bayes.point_estimate)
        slope = 1  # intercept occupies index 0
        sds = {
            "bayes": bayes.draws[:, slope].std(ddof=1),
            "pigeonhole": pigeon.draws[:, slope].std(ddof=1),
            "graham": float(analytic.se[slope]),
        }
        print(f"    SDs: {sds}")
        names = list(sds)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = sds[names[i]], sds[names[j]]
                assert abs(a - b) / min(a, b) < 0.15, (names[i], names[j])


def test_criterion_07_prior_limit_chain():
    with criterion(7, "prior(alpha) KS to bayes decreases along n/4, n/2, n", 60.0):
        sample = pb.generate_synthetic(pb.mean_unit_effects_dgp(8), seed=42, r=0)
        spec = pb.EstimatorSpec(kind="mean", column="y")
        n = sample.n_units
        bayes = pb.run_bootstrap(sample, spec, "bayes", n_draws=10_000, seed=101)
        stats = []
        for mult in (0.25, 0.5, 1.0):
            prior = pb.run_bootstrap(sample, spec, "prior", alpha=mult * n, n_draws=10_000, seed=202)
            stats.append(ks_2samp(prior.draws[:, 0], bayes.draws[:, 0]).statistic)
        print(f"    KS chain: {[f'{s:.4f}' for s in stats]}")
        assert stats[0] > stats[1] > stats[2]
        critical_1pct = 1.628 * np.sqrt(2.0 / 10_000)
        assert stats[2] < critical_1pct


def test_criterion_08_limiting_prior_atoms():
    with criterion(8, "tiny-alpha prior mass sits on the limiting atoms", 60.0):
        sample = ratio_of_means_sample(seed=5, n=4, symmetric=True)
        spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",))
        result = pb.run_bootstrap(
            sample, spec, "prior", alpha=1e-6 * sample.n_units, n_draws=10_000, seed=77
        )
        atoms = pb.limiting_prior_atoms(sample, spec)
        dist = np.min(
            np.abs(result.draws[:, 0][:, None] - atoms.locations[:, 0][None, :]), axis=1
        )
        share = float(np.mean(dist < 1e-3))
        print(f"    mass within 1e-3 of atoms: {share:.4f}")
        assert share >= 0.95


def test_criterion_09_counterfactual_propagation():
    with criterion(9, "monotone g maps interval endpoints; delta width within 20%", 60.0):
        dgp = pb.ols_unit_effects_dgp(100)
        sample = pb.generate_synthetic(dgp, seed=9, r=0)
        spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
        # B = 1001 puts the 2.5% / 97.5% quantiles exactly on order statistics
        result = pb.run_bootstrap(sample, spec, "bayes", n_draws=1001, seed=55)
        g = pb.CounterfactualFn(
            "exp-half-slope", 1, lambda s, th: np.array([np.exp(0.5 * th[1])])
        )
        preds = pb.propagate(sample, result, g)
        level = 0.95
        theta_ci = pb.credible_interval(result, level)
        summary = pb.summarize(preds, level)
        assert summary.interval.lower[0] == np.exp(0.5 * theta_ci.lower[1])
        assert summary.interval.upper[0] == np.exp(0.5 * theta_ci.upper[1])

        moment = pb.build_moment(spec, sample)
        analytic = pb.graham_variance(moment, sample, result.point_estimate)
        gradient = np.array([0.0, 0.5 * np.exp(0.5 * result.point_estimate[1])])
        lo, hi = pb.delta_method_interval(float(preds.point[0]), gradient, analytic, level)
        bootstrap_width = float(summary.interval.upper[0] - summary.interval.lower[0])
        delta_width = hi - lo
        gap = abs(bootstrap_width - delta_width) / min(bootstrap_width, delta_width)
        print(f"    widths: bootstrap={bootstrap_width:.4f} delta={delta_width:.4f} gap={gap:.3f}")
        assert gap < 0.20


def test_criterion_10_thread_count_determinism(tmp_path):
    with criterion(10, "identical output across --threads for stochastic commands", 60.0):
        import subprocess
        import sys

        data = make_fixture("unit-effects", seed=3, out_dir=tmp_path)
        cfg = tmp_path / "cov.json"
        cfg.write_text(json.dumps({
            "dgp": {"type": "unit-effects-mean", "n": 10},
            "estimator": {"kind": "mean", "column": "y"},
            "methods": ["bayes", "naive"],
            "replications": 3,
            "draws": 50,
        }))
        commands = {
            "bootstrap": [
                "bootstrap", "--data", data, "--estimator", "mean", "--column", "y",
                "--draws", "60", "--seed", "7", "--emit-draws",
            ],
            "counterfactual": [
                "counterfactual", "--data", data, "--estimator", "mean", "--column", "y",
                "--counterfactual", "toy-growth:y", "--draws", "60", "--seed", "7",
                "--emit-draws",
            ],
            "coverage-sim": ["coverage-sim", "--config", str(cfg), "--seed", "7"],
        }
        for name, argv in commands.items():
            stdouts = set()
            files = set()
            for threads in ("1", "2", "4"):
                out_path = tmp_path / f"{name}-{threads}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "polyboot.cli", *argv,
                     "--threads", threads, "--out", str(out_path)],
                    capture_output=True,
                )
                assert proc.returncode == 0, (name, proc.stderr)
                stdouts.add(proc.stdout)
                files.add(out_path.read_bytes())
            assert len(stdouts) == 1 and len(files) == 1, f"{name} varies with --threads"
