"""Factorization and log-determinant plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fgvi
from fgvi.linalg import (
    ConditioningError,
    inverse_diagonal,
    log_det_from_cholesky,
    spd_cholesky,
)

from conftest import random_spd_target


def _random_spd(n, seed):
    return random_spd_target(n, np.random.default_rng(seed)).covariance


def _reference_cholesky(a, pivot_rtol=1e-12):
    """Column-by-column factor with the pivot test applied in order; returns
    the factor, or the first failing column."""
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= pivot_rtol * a[j, j]:
            return j
        lower[j, j] = np.sqrt(pivot)
        lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


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
    with pytest.raises(ConditioningError, match="column 1") as info:
        spd_cholesky(matrix)
    assert info.value.column == 1
    assert info.value.pivot <= info.value.threshold


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
    with pytest.raises(np.linalg.LinAlgError):
        inverse_diagonal(np.array([[1.0, 0.0], [1.0, 0.0]]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=16), seed=st.integers(0, 2**31 - 1))
def test_factorization_round_trip_property(n, seed):
    matrix = _random_spd(n, seed)
    lower = spd_cholesky(matrix)
    assert np.all(np.diag(lower) > 0)
    assert np.allclose(lower @ lower.T, matrix, rtol=1e-11, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=16),
    rank=st.integers(min_value=0, max_value=16),
    indefinite=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_cholesky_matches_column_reference(n, rank, indefinite, seed):
    # The same factor on full-rank input; the same first failing column on
    # rank-deficient or indefinite input.
    matrix = _random_spd(n, seed)
    if rank < n:
        base = np.random.default_rng(seed).standard_normal((n, rank))
        matrix = base @ base.T
    if indefinite:
        matrix = matrix - np.median(np.linalg.eigvalsh(matrix)) * np.eye(n)
    reference = _reference_cholesky(matrix)
    if isinstance(reference, int):
        with pytest.raises(ConditioningError) as info:
            spd_cholesky(matrix)
        assert info.value.column == reference
        assert info.value.pivot <= info.value.threshold
    else:
        assert np.allclose(spd_cholesky(matrix), reference, rtol=1e-10, atol=1e-12)


# Which LAPACK module a fresh interpreter loads, which scipy modules that
# brings in, and what the loaded routines compute.  A fresh interpreter,
# because in this process the test modules' import order decides what is
# already in sys.modules.  With argv[1] == "fallback", find_spec finds
# nothing while fgvi loads, so the direct load fails and the fallback runs.
_LOADER_PROBE = """
import glob, importlib.util, json, os, sys
import numpy as np

scipy_linalg = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
if sys.argv[1] == "fallback":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda *args, **kwargs: None
import fgvi.cli
from fgvi import linalg
if sys.argv[1] == "fallback":
    importlib.util.find_spec = find_spec
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

b = np.random.default_rng(0).standard_normal((7, 12))
lower = linalg.spd_cholesky(b @ b.T)
inverse = linalg.lower_inverse(lower)

import scipy.linalg.lapack
print(json.dumps({
    "scipy_modules": scipy_modules,
    "module": linalg.lapack.__name__,
    "extension_present": bool(glob.glob(os.path.join(scipy_linalg, "_flapack*"))),
    "same_routines": all(
        getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name)
        for name in ("dpotrf", "dtrtri")
    ),
    "factor": lower.tobytes().hex(),
    "inverse": inverse.tobytes().hex(),
}))
"""


@pytest.fixture(scope="module")
def loader_runs():
    """The probe's record for the direct load and for the fallback."""
    src = str(Path(fgvi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = {}
    for mode in ("direct", "fallback"):
        result = subprocess.run(
            [sys.executable, "-c", _LOADER_PROBE, mode],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        runs[mode] = json.loads(result.stdout)
    return runs


def test_startup_imports_no_scipy_package(loader_runs):
    assert loader_runs["direct"]["scipy_modules"] == ["scipy.linalg._flapack"]
    for run in loader_runs.values():
        assert not {"scipy.special", "scipy.stats"} & set(run["scipy_modules"])


def test_extension_is_loaded_directly_where_it_exists(loader_runs):
    direct = loader_runs["direct"]
    expected = "scipy.linalg._flapack" if direct["extension_present"] else "scipy.linalg.lapack"
    assert direct["module"] == expected
    assert loader_runs["fallback"]["module"] == "scipy.linalg.lapack"


def test_later_scipy_import_reuses_the_routines(loader_runs):
    assert loader_runs["direct"]["same_routines"]
    assert loader_runs["fallback"]["same_routines"]


def test_fallback_computes_the_same_bits(loader_runs):
    direct, fallback = loader_runs["direct"], loader_runs["fallback"]
    assert fallback["factor"] == direct["factor"]
    assert fallback["inverse"] == direct["inverse"]
