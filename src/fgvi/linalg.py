"""Dense SPD linear algebra with explicit conditioning control.

A matrix is factored once, by LAPACK ``potrf``, and everything derived
from it reads that one factor.  Log-determinants are accumulated from the
factor diagonal, so they stay finite even when the determinant itself
would under- or overflow, and diagonals of inverses come from the
triangular inverse of the factor (``trtri``), never from the full inverse.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

PIVOT_RTOL = 1e-12


class ConditioningError(ArithmeticError):
    """A factorization pivot fell below its threshold at the given column."""

    def __init__(self, column: int, pivot: float, threshold: float):
        super().__init__(
            f"pivot {pivot:.6e} at column {column} is below threshold "
            f"{threshold:.6e}; matrix is numerically singular or not "
            "positive definite"
        )
        self.column, self.pivot, self.threshold = column, pivot, threshold


def spd_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    A pivot at or below ``PIVOT_RTOL`` times its own diagonal entry
    ``a[j, j]`` aborts with :class:`ConditioningError` naming the offending
    column, which separates "numerically singular" from merely
    ill-conditioned input independently of how each coordinate is scaled.
    LAPACK stops at the first pivot that is not positive and leaves it on
    the diagonal, so the first failing column is never past that one.

    Args:
        matrix: symmetric positive-definite array, shape (n, n).  Only the
            lower triangle is referenced.

    Returns:
        Lower-triangular factor ``L`` with ``L @ L.T == matrix``.
    """
    thresholds = PIVOT_RTOL * np.diag(matrix)
    lower, info = lapack.dpotrf(matrix, lower=1, clean=1)
    pivots = np.diag(lower) ** 2
    if info:
        pivots[info - 1] = lower[info - 1, info - 1]
    bad = np.flatnonzero(~(pivots > thresholds))
    if bad.size:
        j = int(bad[0])
        raise ConditioningError(j, float(pivots[j]), float(thresholds[j]))
    return lower


def log_det_from_cholesky(lower: np.ndarray) -> float:
    """log|A| for A = L Lᵀ, summed over the factor diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def lower_inverse(lower: np.ndarray) -> np.ndarray:
    """L⁻¹ of a lower-triangular factor, by LAPACK ``trtri``."""
    inverse, info = lapack.dtrtri(lower, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"factor is singular: zero pivot at column {info - 1}")
    return inverse


def inverse_diagonal(lower: np.ndarray) -> np.ndarray:
    """Diagonal of A⁻¹ from the lower Cholesky factor of A.

    (A⁻¹)_ii = ‖L⁻¹ e_i‖², the column sums of squares of the triangular
    inverse of the factor.
    """
    inverse = lower_inverse(lower)
    return np.einsum("ij,ij->j", inverse, inverse)
