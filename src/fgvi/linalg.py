"""Dense SPD linear algebra with explicit conditioning control.

Everything covariance-shaped in this package funnels through a single
Cholesky factorization per matrix.  Log-determinants are accumulated from
the factor diagonal, so they stay finite even when the determinant itself
would under- or overflow, and diagonals of inverses are recovered by
per-coordinate triangular solves against the shared factor rather than by
forming the inverse.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

PIVOT_RTOL = 1e-12


class ConditioningError(ArithmeticError):
    """A factorization pivot fell below the relative threshold."""


def spd_cholesky(matrix: np.ndarray, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    A pivot at or below ``pivot_rtol`` times its own diagonal entry
    ``a[j, j]`` aborts with :class:`ConditioningError` naming the offending
    column, which separates "numerically singular" from merely
    ill-conditioned input independently of how each coordinate is scaled.

    Args:
        matrix: symmetric positive-definite array, shape (n, n).  Only the
            lower triangle is referenced.
        pivot_rtol: relative pivot threshold.

    Returns:
        Lower-triangular factor ``L`` with ``L @ L.T == matrix``.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        threshold = pivot_rtol * float(a[j, j])
        pivot = float(a[j, j] - lower[j, :j] @ lower[j, :j])
        if pivot <= threshold:
            raise ConditioningError(
                f"pivot {pivot:.6e} at column {j} is below threshold "
                f"{threshold:.6e}; matrix is numerically singular or not "
                "positive definite"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def log_det_from_cholesky(lower: np.ndarray) -> float:
    """log|A| for A = L Lᵀ, summed over the factor diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def inverse_diagonal(lower: np.ndarray) -> np.ndarray:
    """Diagonal of A⁻¹ from the Cholesky factor of A.

    Solves L y = e_i for every coordinate against the one shared factor;
    (A⁻¹)_ii = ‖L⁻¹ e_i‖².  The full inverse is never formed.
    """
    n = lower.shape[0]
    cols = solve_triangular(lower, np.eye(n), lower=True, check_finite=False)
    return np.sum(cols * cols, axis=0)
