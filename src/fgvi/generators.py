"""Seeded covariance constructors used throughout the experiments.

Three families: squared-exponential Gram matrices over uniformly random
scalar inputs, the constant off-diagonal (equicorrelation) family, and
Wishart-style random correlation matrices for property tests.

All randomness comes from ``numpy.random.default_rng`` (PCG64) with an
explicit unsigned 64-bit seed; uniform and normal draws use numpy's
standard algorithms, so a fixed config on a fixed numpy version
reproduces every matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gaussian import (
    CorrelationMatrix,
    GaussianTarget,
    _check_dimension,
    _check_seed,
    _constant_offdiag_spectrum,
    _correlation_entries,
)
from .linalg import ConditioningError

__all__ = [
    "KernelConfig",
    "ConstantOffDiagConfig",
    "GenerationError",
    "squared_exponential_target",
    "constant_offdiag_target",
    "random_correlation_matrix",
]


class GenerationError(RuntimeError):
    """A generated covariance failed positive-definiteness validation."""


@dataclass(frozen=True, kw_only=True)
class KernelConfig:
    """Configuration of the squared-exponential family.

    ``n`` inputs are drawn uniformly from (0, 200); the covariance is
    Sigma_ij = exp(-(x_i - x_j)^2 / rho^2) plus ``jitter`` on the diagonal.
    Only rho / 200 shapes the kernel, so a wider domain would build no
    target that another rho does not.  Small rho gives near-independent
    coordinates, large rho a nearly singular, highly correlated matrix.
    """

    domain_upper: ClassVar[float] = 200.0

    n: int
    rho: float
    seed: int
    jitter: float = 1e-8

    def __post_init__(self):
        _check_dimension(self.n)
        if not self.rho > 0.0:
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if not (np.isfinite(self.jitter) and self.jitter >= 0.0):
            raise ValueError(f"jitter must be finite and non-negative, got {self.jitter!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class ConstantOffDiagConfig:
    """Configuration of the constant off-diagonal family: unit variances,
    every correlation equal to eps."""

    n: int
    eps: float

    def __post_init__(self):
        _check_dimension(self.n)
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps!r}")


def squared_exponential_target(config: KernelConfig) -> GaussianTarget:
    """Zero-mean Gaussian target with a squared-exponential covariance.

    Raises:
        GenerationError: the jittered Gram matrix still failed the
            positive-definiteness check; increase ``jitter``.
    """
    rng = np.random.default_rng(config.seed)
    x = rng.uniform(0.0, config.domain_upper, config.n)
    diff = x[:, None] - x[None, :]
    cov = np.exp(-(diff * diff) / (config.rho * config.rho))
    cov.flat[:: config.n + 1] += config.jitter
    try:
        return GaussianTarget(mean=np.zeros(config.n), covariance=cov)
    except ConditioningError as exc:
        raise GenerationError(
            f"squared-exponential covariance (n={config.n}, rho={config.rho}) is "
            f"numerically singular at jitter={config.jitter}; increase jitter"
        ) from exc


def constant_offdiag_target(config: ConstantOffDiagConfig) -> GaussianTarget:
    """Zero-mean Gaussian target with unit variances and constant
    off-diagonal correlation eps.

    Its log|C|, S and extreme eigenvalues come from the family's closed
    forms, not from a factor and eigvalsh, so building it calls no LAPACK;
    an eps whose exact Cholesky pivots fail the pivot test raises the same
    ConditioningError, at the same column, as factoring the matrix would.
    The covariance still goes through GaussianTarget's intake, every check
    included, and the target keeps the matrix built here, which nothing
    else holds, rather than a copy.
    """
    n, eps = config.n, config.eps
    spectrum = _constant_offdiag_spectrum(n, eps)
    cov = np.full((n, n), eps, dtype=float)
    np.fill_diagonal(cov, 1.0)
    return GaussianTarget._from_spectrum(np.zeros(n), cov, spectrum)


def random_correlation_matrix(n: int, seed: int) -> CorrelationMatrix:
    """Random correlation matrix from a rescaled Wishart draw.

    A is n x n standard normal, B = A Aᵀ + n * 1e-6 * I, and B is rescaled
    to unit diagonal.  Deterministic in (n, seed).  B is exactly symmetric
    and positive definite, so it is not factored: a target built from C is.
    """
    _check_dimension(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = a @ a.T + n * 1e-6 * np.eye(n)
    return CorrelationMatrix(entries=_correlation_entries(b))
