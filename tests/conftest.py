"""Shared corpus builders plus the acceptance-summary hook."""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy loads:
# threaded BLAS makes the suite's small kernels many times slower on few
# cores, and the suite should time the same program on every host.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np  # noqa: E402
import pytest

from fgvi.bounds import bound_kl_joint, bound_log_det_C, bound_log_det_S, bound_trace_S
from fgvi.engine import OptimizerConfig, fit_fgvi, gaussian_log_density_fn
from fgvi.gaussian import GaussianTarget
from fgvi.generators import ConstantOffDiagConfig, constant_offdiag_target

import acceptance_log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance pass/fail lines after the normal report.

    The per-criterion lines are printed inside the tests too, but pytest
    captures stdout of passing tests; this keeps them visible in every run.
    """
    if not acceptance_log.lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_log.lines:
        terminalreporter.write_line(line)


def random_spd_target(n: int, rng: np.random.Generator) -> GaussianTarget:
    """Random SPD covariance with a random mean.

    Wishart-style base with extra degrees of freedom plus a small ridge,
    then rescaled by lognormal per-coordinate deviations.  This keeps
    condition numbers roughly in 1e1..1e5, so comparisons at 1e-9
    relative against explicit inversion stay meaningful in double
    precision.
    """
    base = rng.standard_normal((n, n + 10))
    core = base @ base.T / (n + 10)
    core += 0.05 * (np.trace(core) / n) * np.eye(n)
    scale = np.exp(rng.normal(0.0, 1.0, size=n))
    covariance = core * np.outer(scale, scale)
    mean = rng.normal(0.0, 3.0, size=n)
    return GaussianTarget(mean=mean, covariance=covariance)


def extremal_profiles(n: int, ratio: float) -> dict:
    """Bound name -> the profile attaining it, from the bound_* functions."""
    trace = bound_trace_S(n, ratio)
    return {
        "log_det_S": bound_log_det_S(n, ratio)[1],
        "log_det_C": bound_log_det_C(n, ratio)[1],
        "trace_S_lower": trace.lower_profile,
        "trace_S_upper": trace.upper_profile,
        "kl_joint": bound_kl_joint(n, ratio)[1],
    }


def target_corpus(n: int, count: int, base_seed: int = 0) -> list[GaussianTarget]:
    """Deterministic list of random targets; the seed folds in n."""
    rng = np.random.default_rng(base_seed * 1_000_003 + n)
    return [random_spd_target(n, rng) for _ in range(count)]


@pytest.fixture(scope="session")
def correlated_fits():
    """Default-settings fits of the eps = 0.5, n = 5 Gaussian target at
    seeds 0-4, shared by criterion 8 and the engine tests."""
    target = constant_offdiag_target(ConstantOffDiagConfig(n=5, eps=0.5))
    density = gaussian_log_density_fn(target)
    states = [fit_fgvi(density, 5, OptimizerConfig(seed=seed)) for seed in range(5)]
    return target, states
