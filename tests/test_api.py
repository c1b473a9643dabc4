"""The public surface of the package."""

import numpy as np
import pytest

import fgvi
from fgvi import bounds, cli, engine, gaussian, generators

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
    "OptimizerConfig": (fgvi.OptimizerConfig, lambda: {"init_mean": np.zeros(2)}),
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
        ("OptimizerConfig", "init_mean"),
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


# Each array argument of the package: (call taking it and a scratch
# directory, the name its messages use, a valid value).
_DOORS = {
    "GaussianTarget.mean": (
        lambda a, _: fgvi.GaussianTarget(a, np.eye(2)), "mean", np.zeros(2)
    ),
    "GaussianTarget.covariance": (
        lambda a, _: fgvi.GaussianTarget(np.zeros(2), a), "covariance", np.eye(2)
    ),
    "FactorizedGaussian.mean": (
        lambda a, _: fgvi.FactorizedGaussian(a, np.ones(2)), "mean", np.zeros(2)
    ),
    "FactorizedGaussian.variances": (
        lambda a, _: fgvi.FactorizedGaussian(np.zeros(2), a), "variances", np.ones(2)
    ),
    "ShrinkageMatrix.diagonal": (lambda a, _: fgvi.ShrinkageMatrix(a), "diagonal", np.ones(2)),
    "MixtureTarget.weights": (
        lambda a, _: fgvi.MixtureTarget(a, np.zeros((2, 3)), 1.0), "weights", np.full(2, 0.5)
    ),
    "MixtureTarget.means": (
        lambda a, _: fgvi.MixtureTarget(np.full(2, 0.5), a, 1.0), "means", np.zeros((2, 3))
    ),
    "EigenProfile.values": (
        lambda a, _: fgvi.EigenProfile(a, 3.0), "values", np.array([1.5, 0.5])
    ),
    # The one door of fit_fgvi's initial mean.
    "OptimizerConfig.init_mean": (
        lambda a, _: fgvi.OptimizerConfig(init_mean=a), "init_mean", np.zeros(2)
    ),
    "write_matrix_file": (
        lambda a, tmp: cli.write_matrix_file(str(tmp / "matrix.txt"), a), "matrix", np.eye(2)
    ),
}


@pytest.mark.parametrize("case", ["complex", "empty axis", "nan", "inf"])
@pytest.mark.parametrize("door", sorted(_DOORS))
def test_every_array_door_refuses_complex_empty_and_non_finite_input(door, case, tmp_path):
    """One intake rule: the valid value is taken, and each bad variant of it
    is refused with a ValueError that names the argument, before anything
    is written."""
    call, what, valid = _DOORS[door]
    call(valid, tmp_path)
    if case == "complex":
        bad, message = valid + 1j, f"{what} must be real, got dtype complex128"
    elif case == "empty axis":
        bad = np.zeros(valid.shape[:-1] + (0,))
        kind = "a vector of length >= 1" if valid.ndim == 1 else "a matrix with no empty axis"
        message = f"{what} must be {kind}, got shape {bad.shape}"
    else:
        bad, message = valid.copy(), f"{what} must be finite"
        bad.flat[-1] = float(case)
    (tmp_path / "matrix.txt").unlink(missing_ok=True)
    with pytest.raises(ValueError) as info:
        call(bad, tmp_path)
    assert type(info.value) is ValueError
    assert str(info.value) == message
    assert not (tmp_path / "matrix.txt").exists()
