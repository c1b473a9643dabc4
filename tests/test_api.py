"""The public surface of the package."""

import numpy as np
import pytest

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
    assert len(_PUBLIC) == 44
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


# Each frozen record that holds arrays, with valid arguments to build it.
_RECORDS = {
    "GaussianTarget": (
        fgvi.GaussianTarget,
        lambda: {"mean": np.zeros(2), "covariance": np.eye(2)},
    ),
    "FactorizedGaussian": (
        fgvi.FactorizedGaussian,
        lambda: {"mean": np.zeros(2), "variances": np.ones(2)},
    ),
    "ShrinkageMatrix": (fgvi.ShrinkageMatrix, lambda: {"diagonal": np.ones(2)}),
    "MixtureTarget": (
        fgvi.MixtureTarget,
        lambda: {"weights": np.full(2, 0.5), "means": np.zeros((2, 3)),
                 "component_variance": 1.0},
    ),
    "EigenProfile": (
        fgvi.EigenProfile,
        lambda: {"values": np.array([1.5, 0.5]), "condition_ratio": 3.0},
    ),
}


@pytest.mark.parametrize(
    "record, field",
    [
        ("GaussianTarget", "mean"),
        ("GaussianTarget", "covariance"),
        ("FactorizedGaussian", "mean"),
        ("FactorizedGaussian", "variances"),
        ("ShrinkageMatrix", "diagonal"),
        ("MixtureTarget", "weights"),
        ("MixtureTarget", "means"),
        ("EigenProfile", "values"),
    ],
)
def test_records_keep_their_own_copies(record, field):
    """Mutating a float64 input after construction leaves the record as built."""
    cls, arguments = _RECORDS[record]
    given = arguments()
    built = cls(**given)
    kept = getattr(built, field).copy()
    given[field] += 1.0
    assert not np.shares_memory(getattr(built, field), given[field])
    assert np.array_equal(getattr(built, field), kept)
