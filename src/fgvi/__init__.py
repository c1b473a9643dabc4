"""Uncertainty deficit of factorized Gaussian variational approximations.

Closed-form solutions and entropy-gap decompositions for dense Gaussian
targets, extremal bounds on each piece of the gap over condition-number
classes of correlation matrices, and a stochastic fitting engine for
probing the same quantities on non-Gaussian targets.
"""

from .bounds import (
    BoundsReport,
    EigenProfile,
    TraceShrinkageBounds,
    bound_kl_joint,
    bound_log_det_C,
    bound_log_det_S,
    bound_trace_S,
    bounds_report,
    envelope_sweep,
)
from .engine import (
    DivergenceError,
    MixtureTarget,
    OptimizerConfig,
    ShrinkageComparison,
    VariationalState,
    elbo_sample_terms,
    fit_fgvi,
    gaussian_log_density_fn,
    max_entropy_gap_bound,
    mixture_init_mean,
    mixture_log_density,
    mixture_log_density_fn,
    mixture_log_density_grad,
    mixture_moments,
    shrinkage_comparison,
)
from .gaussian import (
    ConditioningError,
    ConstantOffDiagClosedForms,
    CorrelationMatrix,
    DecompositionReport,
    FactorizedGaussian,
    GaussianTarget,
    IndefiniteError,
    ShrinkageMatrix,
    constant_offdiag_closed_forms,
    correlation_from_covariance,
    decompose,
    fgvi_solve,
    gaussian_entropy,
    reverse_kl_asymptote,
    reverse_kl_solve,
    shrinkage_matrix,
)
from .generators import (
    ConstantOffDiagConfig,
    GenerationError,
    KernelConfig,
    constant_offdiag_target,
    random_correlation_matrix,
    squared_exponential_target,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gaussian core
    "GaussianTarget",
    "FactorizedGaussian",
    "CorrelationMatrix",
    "ShrinkageMatrix",
    "DecompositionReport",
    "ConstantOffDiagClosedForms",
    "correlation_from_covariance",
    "fgvi_solve",
    "reverse_kl_solve",
    "shrinkage_matrix",
    "gaussian_entropy",
    "decompose",
    "constant_offdiag_closed_forms",
    "reverse_kl_asymptote",
    "ConditioningError",
    "IndefiniteError",
    # generators
    "KernelConfig",
    "ConstantOffDiagConfig",
    "GenerationError",
    "squared_exponential_target",
    "constant_offdiag_target",
    "random_correlation_matrix",
    # bounds
    "EigenProfile",
    "BoundsReport",
    "TraceShrinkageBounds",
    "bound_log_det_S",
    "bound_log_det_C",
    "bound_trace_S",
    "bound_kl_joint",
    "bounds_report",
    "envelope_sweep",
    # engine
    "MixtureTarget",
    "VariationalState",
    "OptimizerConfig",
    "DivergenceError",
    "ShrinkageComparison",
    "mixture_log_density",
    "mixture_log_density_grad",
    "mixture_log_density_fn",
    "gaussian_log_density_fn",
    "mixture_init_mean",
    "mixture_moments",
    "elbo_sample_terms",
    "fit_fgvi",
    "shrinkage_comparison",
    "max_entropy_gap_bound",
]
