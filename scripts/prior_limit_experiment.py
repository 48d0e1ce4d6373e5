#!/usr/bin/env python
"""Marginal-prior limit diagnostics.

Two experiments on a fixed synthetic dyadic sample:

1. Kolmogorov-Smirnov distance between Gamma(alpha/n) prior draws and the
   Bayesian bootstrap posterior as alpha rises to n (they coincide there).
2. Concentration of the prior draws on the discrete limiting atoms as
   alpha falls toward zero, compared against the computed atom locations
   (OLS without an intercept on asymmetric dyads).

Usage: python scripts/prior_limit_experiment.py [--draws 10000] [--seed 7]
"""

import argparse

import numpy as np
from scipy.stats import ks_2samp

import polyboot as pb
from polyboot.fixtures import ratio_of_means_sample


def ks_chain(draws, seed):
    sample = pb.generate_synthetic(pb.mean_unit_effects_dgp(8), seed=42, r=0)
    spec = pb.EstimatorSpec(kind="mean", column="y")
    n = sample.n_units
    bayes = pb.run_bootstrap(sample, spec, "bayes", n_draws=draws, seed=seed)
    print(f"KS distance to the Bayesian bootstrap posterior ({draws} draws, n={n}):")
    for mult in (0.125, 0.25, 0.5, 1.0):
        prior = pb.run_bootstrap(sample, spec, "prior", alpha=mult * n, n_draws=draws, seed=seed + 1)
        stat = ks_2samp(prior.draws[:, 0], bayes.draws[:, 0]).statistic
        print(f"  alpha = {mult:5.3f} n   KS = {stat:.4f}")
    print(f"  1% two-sample critical value: {1.628 * np.sqrt(2 / draws):.4f}")


def atom_concentration(draws, seed):
    sample = ratio_of_means_sample(n=4, symmetric=False)
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",))
    atoms = pb.limiting_prior_atoms(sample, spec)
    print("\nlimiting atoms:", np.sort(atoms.locations[:, 0]).round(4).tolist())
    for alpha_scale in (1e-1, 1e-3, 1e-6):
        res = pb.run_bootstrap(
            sample, spec, "prior", alpha=alpha_scale * sample.n_units, n_draws=draws, seed=seed + 2
        )
        dist = np.min(np.abs(res.draws[:, 0][:, None] - atoms.locations[:, 0][None, :]), axis=1)
        print(f"  alpha/n = {alpha_scale:7.0e}: share of draws within 1e-3 of an atom = "
              f"{np.mean(dist < 1e-3):.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    ks_chain(args.draws, args.seed)
    atom_concentration(args.draws, args.seed)


if __name__ == "__main__":
    main()
