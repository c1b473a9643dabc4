"""The public surface of the package."""

import fgvi
from fgvi import bounds, engine, gaussian, generators

# The public names, written out independently of the package's own lists.
_PUBLIC = {
    "__version__",
    # gaussian
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
    "mixture_log_density_fn",
    "gaussian_log_density_fn",
    "mixture_init_mean",
    "mixture_moments",
    "elbo_sample_terms",
    "fit_fgvi",
    "shrinkage_comparison",
    "max_entropy_gap_bound",
}


def test_public_names():
    assert len(_PUBLIC) == 45
    assert set(fgvi.__all__) == _PUBLIC
    assert len(fgvi.__all__) == len(set(fgvi.__all__))
    for name in fgvi.__all__:
        getattr(fgvi, name)


def test_each_public_name_is_declared_in_one_submodule():
    lists = [set(module.__all__) for module in (gaussian, generators, bounds, engine)]
    assert sum(map(len, lists)) == len(set().union(*lists))
    assert set().union(*lists) | {"__version__"} == _PUBLIC
    for module in (gaussian, generators, bounds, engine):
        for name in module.__all__:
            assert getattr(fgvi, name) is getattr(module, name)
