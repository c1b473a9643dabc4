"""Covariance family construction and seeded reproducibility."""

import numpy as np
import pytest

from fgvi.gaussian import GaussianTarget, correlation_from_covariance
from fgvi.generators import (
    ConstantOffDiagConfig,
    GenerationError,
    KernelConfig,
    constant_offdiag_target,
    random_correlation_matrix,
    squared_exponential_target,
)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(n=0, rho=1.0, seed=0)
    with pytest.raises(ValueError):
        KernelConfig(n=4, rho=0.0, seed=0)
    with pytest.raises(ValueError):
        KernelConfig(n=4, rho=1.0, seed=-1)
    with pytest.raises(ValueError):
        KernelConfig(n=4, rho=1.0, seed=2**64)
    with pytest.raises(ValueError):
        KernelConfig(n=4, rho=1.0, seed=0, jitter=-1e-9)
    for jitter in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="jitter must be finite"):
            KernelConfig(n=4, rho=1.0, seed=0, jitter=jitter)
    # Keywords only, so a call written for an older field order fails.
    with pytest.raises(TypeError):
        KernelConfig(4, 1.0, 0)


def test_constant_offdiag_config_validation():
    with pytest.raises(ValueError):
        ConstantOffDiagConfig(n=3, eps=1.0)
    with pytest.raises(ValueError):
        ConstantOffDiagConfig(n=3, eps=-0.2)
    with pytest.raises(ValueError):
        ConstantOffDiagConfig(n=0, eps=0.1)


def test_kernel_target_is_deterministic():
    config = KernelConfig(n=10, rho=50.0, seed=42)
    first = squared_exponential_target(config)
    second = squared_exponential_target(config)
    assert np.array_equal(first.covariance, second.covariance)
    third = squared_exponential_target(KernelConfig(n=10, rho=50.0, seed=43))
    assert not np.array_equal(first.covariance, third.covariance)


def test_kernel_target_structure():
    target = squared_exponential_target(KernelConfig(n=20, rho=30.0, seed=5))
    cov = target.covariance
    assert np.allclose(np.diag(cov), 1.0 + 1e-8, rtol=0, atol=1e-15)
    off = cov - np.diag(np.diag(cov))
    assert np.all(off >= 0.0)
    assert np.all(off < 1.0)
    assert np.array_equal(target.mean, np.zeros(20))


def test_kernel_short_length_scale_is_nearly_diagonal():
    target = squared_exponential_target(KernelConfig(n=8, rho=1e-3, seed=1))
    off = target.covariance - np.diag(np.diag(target.covariance))
    assert np.max(np.abs(off)) < 1e-10


def test_kernel_failure_suggests_jitter():
    # rho far beyond the domain makes all entries ~1: numerically singular
    config = KernelConfig(n=40, rho=1e9, seed=0, jitter=0.0)
    with pytest.raises(GenerationError, match="jitter"):
        squared_exponential_target(config)


def test_constant_offdiag_matrix_entries():
    target = constant_offdiag_target(ConstantOffDiagConfig(n=4, eps=0.3))
    expected = 0.3 * np.ones((4, 4)) + 0.7 * np.eye(4)
    assert np.array_equal(target.covariance, expected)
    assert np.array_equal(target.mean, np.zeros(4))


def test_constant_offdiag_zero_eps_is_identity():
    target = constant_offdiag_target(ConstantOffDiagConfig(n=5, eps=0.0))
    assert np.array_equal(target.covariance, np.eye(5))


def test_constant_offdiag_eigenvalues():
    target = constant_offdiag_target(ConstantOffDiagConfig(n=3, eps=0.5))
    values = np.sort(np.linalg.eigvalsh(target.covariance))
    assert np.allclose(values, [0.5, 0.5, 2.0], atol=1e-12)


def test_random_correlation_basics():
    c = random_correlation_matrix(7, seed=9)
    assert np.all(np.diag(c.entries) == 1.0)
    assert np.all(np.abs(c.entries - np.eye(7)) < 1.0)
    again = random_correlation_matrix(7, seed=9)
    assert np.array_equal(c.entries, again.entries)
    other = random_correlation_matrix(7, seed=10)
    assert not np.array_equal(c.entries, other.entries)


def test_random_correlation_matches_validated_target():
    # The Wishart draw B is exactly symmetric, so rescaling it directly gives
    # the same bits as rescaling the covariance a GaussianTarget validated.
    for n in (1, 2, 3, 8, 31, 64):
        for seed in range(4):
            a = np.random.default_rng(seed).standard_normal((n, n))
            b = a @ a.T + n * 1e-6 * np.eye(n)
            validated = correlation_from_covariance(GaussianTarget(mean=np.zeros(n), covariance=b))
            drawn = random_correlation_matrix(n, seed).entries
            assert drawn.tobytes() == validated.entries.tobytes(), (n, seed)


def test_random_correlation_single_coordinate():
    c = random_correlation_matrix(1, seed=0)
    assert np.array_equal(c.entries, np.eye(1))


def test_generated_targets_pass_validation():
    # construction already validates; re-wrapping must also succeed
    for seed in range(3):
        target = squared_exponential_target(KernelConfig(n=12, rho=40.0, seed=seed))
        GaussianTarget(mean=target.mean, covariance=target.covariance)
