"""Numerical laboratory for Bayesian linear inverse problems on flat tori.

Forward operators are Fourier multipliers (possibly hypoelliptic: symbol
decay sandwiched between two orders), priors are Gaussian with spectral
covariances, and the noise is Gaussian white noise.  The package computes
MAP/CM estimates and posterior Gaussians, predicts convergence and
contraction exponents, and runs the Monte-Carlo experiments that verify
the predicted log-log slopes empirically.
"""

from .lattice import (
    FrequencyLattice,
    SpectralField,
    build_lattice,
    forward_transform,
    hermitian_defect,
    inverse_transform,
)
from .operators import (
    DenseOp,
    MultiplierOp,
    adjoint,
    apply,
    bessel_op,
    compose,
    densify,
    heat_op,
    hypoellipticity_check,
    hypoellipticity_refinement,
    invert,
    norm_sandwich_check,
    symbol_values,
    variable_coeff_op,
)
from .fields import (
    GaussianPrior,
    gaussian_prior,
    operator_sqrt,
    prior_trace_check,
    sample_prior,
    sample_white_noise,
    sobolev_norm,
)
from .rates import (
    HypothesisWarning,
    RatePrediction,
    SmoothnessParams,
    bayes_rate,
    contraction_rate,
    credible_rate,
    frequentist_rate,
)
from .posterior import (
    GaussianModel,
    MultiplierBall,
    PosteriorGaussian,
    SolverError,
    credible_ball_prob,
    map_estimate,
    map_estimate_discrete,
    posterior,
    posterior_covariance,
    posterior_covariance_update,
    posterior_trace,
    sample_posterior,
)
from .experiments import (
    CurveSet,
    ExperimentConfig,
    RateTable,
    TruthField,
    default_config,
    fit_loglog_slope,
    make_hat_truth,
    run_appendix_b,
    run_bayes_convergence,
    run_contraction,
    run_credible,
    run_experiment,
    run_frequentist_convergence,
    write_rate_csv,
)

__version__ = "0.1.0"

__all__ = [
    "FrequencyLattice", "SpectralField", "build_lattice", "forward_transform",
    "inverse_transform", "hermitian_defect",
    "MultiplierOp", "DenseOp", "bessel_op", "heat_op", "apply", "compose",
    "adjoint", "invert", "densify", "symbol_values", "variable_coeff_op",
    "hypoellipticity_check", "hypoellipticity_refinement", "norm_sandwich_check",
    "GaussianPrior", "gaussian_prior", "operator_sqrt",
    "sample_prior", "sample_white_noise", "sobolev_norm", "prior_trace_check",
    "HypothesisWarning", "RatePrediction", "SmoothnessParams", "bayes_rate",
    "contraction_rate", "credible_rate", "frequentist_rate",
    "GaussianModel", "PosteriorGaussian", "SolverError", "map_estimate",
    "map_estimate_discrete", "posterior", "posterior_covariance",
    "posterior_covariance_update", "posterior_trace", "sample_posterior",
    "credible_ball_prob", "MultiplierBall",
    "ExperimentConfig", "RateTable", "TruthField", "CurveSet", "default_config",
    "fit_loglog_slope", "make_hat_truth", "run_bayes_convergence",
    "run_frequentist_convergence", "run_contraction", "run_credible",
    "run_appendix_b", "run_experiment", "write_rate_csv",
]
