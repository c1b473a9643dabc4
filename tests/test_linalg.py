"""Factorization and log-determinant plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgvi.linalg import (
    ConditioningError,
    inverse_diagonal,
    log_det_from_cholesky,
    spd_cholesky,
)

from conftest import random_spd_target


def _random_spd(n, seed):
    return random_spd_target(n, np.random.default_rng(seed)).covariance


def test_cholesky_matches_numpy():
    for seed, n in enumerate((1, 2, 3, 7, 25, 80)):
        matrix = _random_spd(n, seed)
        lower = spd_cholesky(matrix)
        expected = np.linalg.cholesky(matrix)
        assert np.allclose(lower, expected, rtol=1e-10, atol=1e-12)


def test_cholesky_reconstructs_input():
    matrix = _random_spd(12, 3)
    lower = spd_cholesky(matrix)
    assert np.allclose(lower @ lower.T, matrix, rtol=1e-12, atol=1e-13)
    assert np.array_equal(np.triu(lower, 1), np.zeros_like(lower))


def test_indefinite_matrix_rejected_with_pivot_location():
    matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ConditioningError, match="column 1"):
        spd_cholesky(matrix)


def test_singular_matrix_rejected():
    ones = np.ones((4, 4))
    with pytest.raises(ConditioningError):
        spd_cholesky(ones)


def test_pivot_threshold_is_relative():
    # Scaling, uniform or per coordinate, must not change what counts as
    # singular.
    for matrix in (1e-30 * np.eye(3), np.diag([1e10, 1e-3])):
        lower = spd_cholesky(matrix)
        assert np.allclose(lower @ lower.T, matrix)


def test_log_det_matches_slogdet():
    for seed, n in enumerate((2, 5, 30)):
        matrix = _random_spd(n, 10 + seed)
        lower = spd_cholesky(matrix)
        sign, expected = np.linalg.slogdet(matrix)
        assert sign == 1.0
        assert log_det_from_cholesky(lower) == pytest.approx(expected, rel=1e-10)


def test_log_det_avoids_overflow_and_underflow():
    # det(1e-4 * I) underflows past n ~ 80 if computed as a raw product.
    n = 400
    lower = spd_cholesky(1e-4 * np.eye(n))
    assert log_det_from_cholesky(lower) == pytest.approx(n * np.log(1e-4), rel=1e-12)


def test_inverse_diagonal_matches_explicit_inverse():
    for seed, n in enumerate((1, 2, 6, 40)):
        matrix = _random_spd(n, 20 + seed)
        diag = inverse_diagonal(spd_cholesky(matrix))
        expected = np.diag(np.linalg.inv(matrix))
        assert np.allclose(diag, expected, rtol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=16), seed=st.integers(0, 2**31 - 1))
def test_factorization_round_trip_property(n, seed):
    matrix = _random_spd(n, seed)
    lower = spd_cholesky(matrix)
    assert np.all(np.diag(lower) > 0)
    assert np.allclose(lower @ lower.T, matrix, rtol=1e-11, atol=1e-12)
