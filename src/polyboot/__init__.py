"""Bayesian bootstrap inference for dyadic and polyadic data."""

from .bootstrap import (
    BootstrapResult,
    CredibleInterval,
    DiscreteAtomSet,
    credible_interval,
    limiting_prior_atoms,
    run_bootstrap,
)
from .counterfactual import (
    CounterfactualFn,
    PredictionDraws,
    propagate,
    register_counterfactual,
    resolve_counterfactual,
    summarize,
)
from .coverage import (
    CoverageConfig,
    CoverageReport,
    SyntheticDGP,
    generate_synthetic,
    mean_unit_effects_dgp,
    ols_unit_effects_dgp,
    pigeonhole_dgp_resample,
    run_coverage,
    unit_sample,
)
from .data_model import (
    PolyadicSample,
    full_index_set,
    load_csv,
    validate,
    write_csv,
)
from .estimators import (
    EstimatorSpec,
    MomentFunction,
    build_moment,
    evaluate_estimator,
    gauss_newton,
    gmm,
    linear_iv_moment,
    mean_moment,
    ols_moment,
    ppml_moment,
)
from .gmm_weights import weight_factor
from .variance import (
    VarianceEstimate,
    delta_method_interval,
    graham_variance,
    naive_dyad_robust,
)
from .weights import (
    product_weights,
    uniform_weights,
    unit_draws,
    weights_for_block,
    weights_for_draw,
)

__version__ = "0.1.0"
