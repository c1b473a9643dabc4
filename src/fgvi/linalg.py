"""Dense SPD linear algebra with explicit conditioning control.

A matrix is factored once, by LAPACK ``potrf``, and everything derived
from it reads that one factor.  Log-determinants are accumulated from the
factor diagonal, so they stay finite even when the determinant itself
would under- or overflow, and diagonals of inverses come from the
triangular inverse of the factor (``trtri``), never from the full inverse.
Both routines come from scipy's compiled LAPACK wrappers, loaded without
the ``scipy.linalg`` package, whose import would be most of ``import fgvi``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np

PIVOT_RTOL = 1e-12


def _load_lapack():
    """scipy's ``_flapack`` extension, the module ``scipy.linalg.lapack`` re-exports.

    It is loaded from its file and registered under its own name, so a later
    ``import scipy.linalg`` reuses this very module.  Where scipy's layout
    differs or the file will not load alone, the public package is imported.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        scipy = importlib.util.find_spec("scipy")
        folders = [os.path.join(folder, "linalg") for folder in scipy.submodule_search_locations]
        spec = PathFinder.find_spec(name, folders)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, AttributeError, TypeError, ValueError):
        # A missing package or file gives a None spec, a package without a
        # path a TypeError, a file that needs scipy's own set-up an ImportError.
        from scipy.linalg import lapack

        return lapack
    sys.modules[name] = module
    return module


lapack = _load_lapack()


class ConditioningError(ArithmeticError):
    """A factorization pivot fell below its threshold at the given column."""

    def __init__(self, column: int, pivot: float, threshold: float):
        super().__init__(
            f"pivot {pivot:.6e} at column {column} is below threshold "
            f"{threshold:.6e}; matrix is numerically singular or not "
            "positive definite"
        )
        self.column, self.pivot, self.threshold = column, pivot, threshold


def spd_cholesky(matrix: np.ndarray, overwrite: bool = False) -> np.ndarray:
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
        overwrite: factor in ``matrix``'s own memory where it is
            Fortran-ordered; otherwise ``matrix`` is left as it is.

    Returns:
        Lower-triangular factor ``L`` with ``L @ L.T == matrix``.
    """
    thresholds = PIVOT_RTOL * matrix.diagonal()
    lower, info = lapack.dpotrf(matrix, lower=1, clean=1, overwrite_a=overwrite)
    pivots = lower.diagonal() ** 2
    if info:
        pivots[info - 1] = lower[info - 1, info - 1]
    passed = pivots > thresholds
    if not passed.all():
        j = int(passed.argmin())
        raise ConditioningError(j, float(pivots[j]), float(thresholds[j]))
    return lower


def log_det_from_cholesky(lower: np.ndarray) -> float:
    """log|A| for A = L Lᵀ, summed over the factor diagonal."""
    return 2.0 * float(np.log(lower.diagonal()).sum())


def lower_inverse(lower: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """L⁻¹ of a lower-triangular factor by LAPACK ``trtri``, in its memory if ``overwrite``."""
    inverse, info = lapack.dtrtri(lower, lower=1, overwrite_c=overwrite)
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
