"""Factorized Gaussian approximation of dense Gaussian targets.

For a target N(mu, Sigma) the best factorized Gaussian under the exclusive
divergence KL(q || p) keeps the mean and takes variances

    Psi_ii = 1 / (Sigma^-1)_ii,

which never exceed the marginal variances Sigma_ii.  The resulting entropy
deficit splits exactly into two non-negative pieces,

    H(p) - H(q) = 1/2 log|S| + 1/2 log (1 / |C|),

where S = diag(Sigma_ii / Psi_ii) measures per-coordinate variance
shrinkage and C is the correlation matrix of Sigma, whose log-determinant
measures how much entropy the correlations themselves remove.  The gap
equals KL(q || p) at the optimum; the KL is also formed by the trace
identity, which restates the gap without the entropies' large terms.

All entropies and divergences are in nats.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ConditioningError,
    log_det_from_cholesky,
    lower_inverse,
    spd_cholesky,
)

__all__ = [
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
]

LOG_TWO_PI_E = math.log(2.0 * math.pi) + 1.0

# Floor on log|Sigma| / n: below it the geometric-mean variance exp(log|Sigma|/n)
# is a hard underflow and entropies stop being meaningful floating-point
# quantities.  The total log|Sigma| is never exponentiated, so it may be lower.
MIN_LOG_DET = -700.0

_SEED_MAX = 2**64

SYMMETRY_RTOL = 1e-12
# Side of the square tiles the symmetry check compares with their mirrors.
_SYMMETRY_TILE = 256


def _check_square_symmetric(a: np.ndarray, what: str) -> np.ndarray:
    """0.5 * (a + a.T), once each |a_ij - a_ji| is within SYMMETRY_RTOL *
    max(1, |a_ij|); a nan gap passes.  Each tile on and above the diagonal is
    compared with its mirror's transpose, so a large matrix is read in order.
    A pair that is equal bit for bit, as all of exactly symmetric input is,
    needs no average: there the average is a itself, and a itself is
    returned, not a copy.  The first pair that differs, where +0.0 and -0.0
    do too, has a copied; only such pairs are checked and averaged in the
    copy, and a sum a_ij + a_ji past the double range is taken as
    0.5 * a_ij + 0.5 * a_ji."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    n, size = a.shape[0], _SYMMETRY_TILE
    out = a
    for i in range(0, n, size):
        for j in range(i, n, size):
            upper, mirror = a[i : i + size, j : j + size], a[j : j + size, i : i + size].T
            if upper.tobytes() == mirror.tobytes():
                continue
            scale = np.abs(upper)
            if i != j:  # the mirror's entries are the scales of their own rows
                np.minimum(scale, np.abs(mirror), out=scale)
            if (np.abs(upper - mirror) > SYMMETRY_RTOL * np.maximum(scale, 1.0)).any():
                gap, scale = np.abs(a - a.T), np.maximum(1.0, np.abs(a))
                r, c = np.unravel_index(int(np.argmax(gap / scale)), a.shape)
                raise ValueError(
                    f"{what} is not symmetric: entries ({r},{c}) and ({c},{r}) "
                    f"differ by {gap[r, c]:.3e}"
                )
            with np.errstate(over="ignore"):
                mean = (upper + mirror) * 0.5
            overflowed = np.isinf(mean)
            if overflowed.any():
                mean[overflowed] = 0.5 * upper[overflowed] + 0.5 * mirror[overflowed]
            if out is a:
                out = a.copy()
            out[i : i + size, j : j + size] = mean
            if i != j:
                out[j : j + size, i : i + size] = mean.T
    return out


def _correlation_entries(cov: np.ndarray) -> np.ndarray:
    """C_ij = Sigma_ij / sqrt(Sigma_ii Sigma_jj), unit diagonal; symmetric when Sigma is."""
    scale = np.sqrt(cov.diagonal())
    c = cov / (scale[:, None] * scale)  # the products of np.outer, bit for bit
    c.flat[:: c.shape[0] + 1] = 1.0
    return c


def _one_blas_thread(environ) -> bool:
    """Whether each BLAS call runs on one thread: OpenBLAS, which numpy's and
    scipy's wheels link, reads OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS; an
    MKL build reads MKL_NUM_THREADS."""
    openblas = environ.get("OPENBLAS_NUM_THREADS") or environ.get("OMP_NUM_THREADS")
    return openblas == "1" and environ.get("MKL_NUM_THREADS", "1") == "1"


# Read once, as BLAS reads its thread count once, when it loads.
_ONE_BLAS_THREAD = _one_blas_thread(os.environ)

# From this n up, with one BLAS thread, a target factors C on a worker thread
# while the calling thread finds C's extreme eigenvalues.  dpotrf and dtrtri
# release the GIL at every n; numpy's eigvalsh keeps it up to n = 500, so
# below 501 the worker only waits.  Build plus decompose of an
# equicorrelated target, ms, 2-core x86-64, numpy 2.4, one OpenBLAS thread:
#   n                    256   384   500   502   512  1000  2000
#   one after the other  4.8  12.2  19.5  20.4  23.4   127   909
#   side by side         6.0  13.9  20.5  14.1  15.9    97   747
# With threaded BLAS the cores are already busy: at n = 2000 side by side
# took 899 ms against 709 ms one after the other.  numpy's and scipy's wheels
# each bundle their own OpenBLAS, so the two calls share no BLAS state.
_OVERLAP_MIN_N = 501


def _factor_and_spectrum(cov: np.ndarray) -> tuple[float, np.ndarray, float, float]:
    """(log|C|, S, smallest and largest eigenvalue of C) for the correlation
    matrix C of cov.  C is factored, and its factor inverted, in the memory of
    one Fortran-ordered copy, whose column sums of squares are S_ii =
    (C^-1)_ii; eigvalsh reads C itself.  From _OVERLAP_MIN_N up, with one
    BLAS thread, the factor runs on a worker thread beside eigvalsh.  The
    worker allocates no n x n array: glibc would keep its memory in the
    worker's own arena and raise peak RSS.  It is joined before this returns
    or raises, and its ConditioningError is raised here ahead of any error of
    eigvalsh, as when the two run in turn."""
    corr = _correlation_entries(cov)
    work = corr.copy().T  # C^T is C bit for bit
    if cov.shape[0] < _OVERLAP_MIN_N or not _ONE_BLAS_THREAD:
        factored = [_factor_correlation(work)]
        eigvals = np.linalg.eigvalsh(corr)
    else:
        factored = []

        def factor():
            try:
                factored.append(_factor_correlation(work))
            except BaseException as exc:  # raised again on the calling thread
                factored.append(exc)

        worker = threading.Thread(target=factor, name="fgvi-factor")
        worker.start()
        try:
            eigvals = np.linalg.eigvalsh(corr)
        finally:
            worker.join()
            if isinstance(factored[0], BaseException):
                raise factored[0]
    log_det, shrinkage = factored[0]
    return log_det, shrinkage, float(eigvals[0]), float(eigvals[-1])


def _factor_correlation(work: np.ndarray) -> tuple[float, np.ndarray]:
    """(log|C|, S) from a Fortran-ordered C, factored and inverted in place."""
    lower = spd_cholesky(work, overwrite=True)
    log_det = log_det_from_cholesky(lower)
    inverse = lower_inverse(lower, overwrite=True)
    return log_det, np.einsum("ij,ij->j", inverse, inverse)


def _check_dimension(value: int, what: str = "n") -> None:
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < _SEED_MAX:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _real_array(x, what: str, ndim: int, copy: bool = True, finite: bool = True) -> np.ndarray:
    """The one intake rule of array arguments: x as a float64 array with ``ndim`` non-empty
    axes, a new one if ``copy``, and finite if ``finite``; complex input is refused, not cut
    to its real part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got dtype {x.dtype}")
    x = x.astype(float, copy=copy)
    if x.ndim != ndim or 0 in x.shape:
        kind = "a vector of length >= 1" if ndim == 1 else "a matrix with no empty axis"
        raise ValueError(f"{what} must be {kind}, got shape {x.shape}")
    if finite and not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


@dataclass(frozen=True)
class GaussianTarget:
    """A multivariate Gaussian N(mean, covariance).

    Both must be real and finite: complex input is refused, not cut to its
    real part.  The covariance is validated symmetric (relative tolerance
    1e-12) and positive definite at construction.  The target keeps its own
    copy of both: exactly symmetric input is tested bit for bit and copied
    last, once the work below has freed its arrays; other input is stored as
    0.5 * (Sigma + Sigma^T).  Only its correlation matrix
    C = D^-1/2 Sigma D^-1/2 is factored, once, so the pivot test is blind to
    how each coordinate is scaled.  log|C| is read off the factor L_C, which
    is then inverted in its own memory to read S_ii = (C^-1)_ii.  C's
    smallest and largest eigenvalues, for κ(C), come from one eigvalsh at
    construction too; for n >= 501 with one BLAS thread it runs on the
    calling thread while a worker thread factors C.  The target keeps S,
    log|C| and the two eigenvalues, not L_C^-1: its one n x n array is the
    covariance, and log|Sigma| follows.  Sigma's whitening is built by
    whitening().
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = _real_array(self.mean, "mean", 1)
        # Finite before the symmetry check's inf - inf.  Neither copies exactly
        # symmetric float64 input, so no copy is alive while C is worked on.
        given = _real_array(self.covariance, "covariance", 2, copy=False)
        cov = _check_square_symmetric(given, "covariance")
        if cov.shape[0] != mean.size:
            raise ValueError(
                f"dimension mismatch: mean has length {mean.size}, "
                f"covariance is {cov.shape[0]}x{cov.shape[1]}"
            )
        diag = cov.diagonal()
        if (diag <= 0.0).any():
            j = int(np.argmax(diag <= 0.0))
            raise ConditioningError(j, float(diag[j]), 0.0)
        log_det_c, shrinkage, smallest, largest = _factor_and_spectrum(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov.copy() if cov is given else cov)
        object.__setattr__(self, "_log_det_c", log_det_c)
        object.__setattr__(self, "_shrinkage", shrinkage)
        object.__setattr__(self, "_eigenvalue_min", smallest)
        object.__setattr__(self, "_eigenvalue_max", largest)

    @property
    def n(self) -> int:
        return self.mean.size

    @property
    def log_det_covariance(self) -> float:
        return self._log_det_c + float(np.log(self.covariance.diagonal()).sum())

    def whitening(self) -> np.ndarray:
        """W = L_C^-1 D^-1/2, the inverse of Sigma's factor D^1/2 L_C.

        Each call factors C and inverts L_C again, one dpotrf and one dtrtri,
        the same bits as at construction; a caller that needs W more than
        once keeps it, as gaussian_log_density_fn does.
        """
        cov = self.covariance
        inverse_c = lower_inverse(spd_cholesky(_correlation_entries(cov)), overwrite=True)
        return inverse_c / np.sqrt(cov.diagonal())


@dataclass(frozen=True)
class FactorizedGaussian:
    """A Gaussian with diagonal covariance: own copies of mean and variances."""

    mean: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        mean = _real_array(self.mean, "mean", 1)
        var = _real_array(self.variances, "variances", 1)
        if mean.size != var.size:
            raise ValueError(
                f"mean and variances must be vectors of equal length >= 1, "
                f"got shapes {mean.shape} and {var.shape}"
            )
        if (var <= 0.0).any():
            bad = np.flatnonzero(var <= 0.0)
            raise ValueError(f"variance at index {bad[0]} is not positive: {var[bad[0]]!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", var)

    @property
    def n(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class CorrelationMatrix:
    """A correlation matrix: unit diagonal, positive definite, |C_ij| < 1.
    A plain record; GaussianTarget is what validates and factors a matrix."""

    entries: np.ndarray


@dataclass(frozen=True)
class ShrinkageMatrix:
    """Own copy of the per-coordinate variance ratios Sigma_ii / Psi_ii."""

    diagonal: np.ndarray

    def __post_init__(self):
        d = _real_array(self.diagonal, "diagonal", 1)
        if (d <= 0.0).any():
            raise ValueError("shrinkage ratios must be finite and positive")
        object.__setattr__(self, "diagonal", d)

    @property
    def trace(self) -> float:
        return float(self.diagonal.sum())

    @property
    def log_det(self) -> float:
        return float(np.log(self.diagonal).sum())


class IndefiniteError(ArithmeticError):
    """C passed its pivot test, but its smallest computed eigenvalue is not positive."""

    def __init__(self, eigenvalue: float):
        super().__init__(f"smallest correlation eigenvalue {eigenvalue:.6e} is not positive")
        self.eigenvalue = eigenvalue


_GAP_IDENTITY_ATOL = 1e-9
_LOG_DET_S_FLOOR = -1e-10
_LOG_DET_C_CEIL = 1e-10


@dataclass(frozen=True)
class DecompositionReport:
    """Entropy-gap decomposition of one Gaussian target.

    Invariants enforced at construction: every field is finite (else
    OverflowError), the gap equals
    ``(log_det_S + log_det_C) / 2`` within 1e-9 absolute and ``kl_q_p``
    within 1e-9 relative, which from :func:`decompose` only rounding can
    break, and the two log-determinants carry their analytic signs.
    """

    log_det_S: float
    log_det_C: float
    entropy_p: float
    entropy_q: float
    entropy_gap: float
    kl_q_p: float
    condition_number: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise OverflowError(f"{name} is not finite: {value!r}")
        recomposed = 0.5 * self.log_det_S + 0.5 * self.log_det_C
        if abs(self.entropy_gap - recomposed) > _GAP_IDENTITY_ATOL:
            raise ValueError(
                f"entropy gap {self.entropy_gap!r} does not match "
                f"(log_det_S + log_det_C)/2 = {recomposed!r}"
            )
        if self.log_det_S < _LOG_DET_S_FLOOR:
            raise ValueError(f"log_det_S must be non-negative, got {self.log_det_S!r}")
        if self.log_det_C > _LOG_DET_C_CEIL:
            raise ValueError(f"log_det_C must be non-positive, got {self.log_det_C!r}")
        if abs(self.entropy_gap - self.kl_q_p) > _GAP_IDENTITY_ATOL * max(1.0, abs(self.kl_q_p)):
            raise ValueError(
                f"entropy gap {self.entropy_gap!r} does not match KL {self.kl_q_p!r}"
            )
        if self.condition_number < 1.0:
            raise ValueError(f"condition number must be >= 1, got {self.condition_number!r}")


def correlation_from_covariance(target: GaussianTarget) -> CorrelationMatrix:
    """Correlation matrix C_ij = Sigma_ij / sqrt(Sigma_ii Sigma_jj).

    The diagonal is set to exactly 1 rather than recomputed.
    """
    return CorrelationMatrix(entries=_correlation_entries(target.covariance))


def fgvi_solve(target: GaussianTarget) -> FactorizedGaussian:
    """Best factorized Gaussian under KL(q || p).

    The mean is copied from the target; variance i equals
    ``1 / (Sigma^-1)_ii = Sigma_ii / (C^-1)_ii``, read from the target's
    inverse-correlation diagonal S, which the target formed once from L_C^-1;
    this call inverts nothing.
    Each variance is no larger than the matching marginal variance
    Sigma_ii, strictly smaller as soon as coordinate i carries any
    correlation.
    """
    variances = target.covariance.diagonal() / target._shrinkage
    return FactorizedGaussian(mean=target.mean, variances=variances)


def reverse_kl_solve(target: GaussianTarget) -> FactorizedGaussian:
    """Best factorized Gaussian under the inclusive divergence KL(p || q).

    Moment matching: the mean is copied and variance i equals the marginal
    variance Sigma_ii exactly, so the shrinkage diagonal is all ones and
    the entire entropy gap comes from lost correlation.
    """
    return FactorizedGaussian(mean=target.mean, variances=target.covariance.diagonal())


def shrinkage_matrix(target: GaussianTarget, approx: FactorizedGaussian) -> ShrinkageMatrix:
    """Per-coordinate variance ratios S_ii = Sigma_ii / Psi_ii.  A ratio past
    the double range, as over a subnormal Psi_ii, is refused by
    ShrinkageMatrix."""
    if approx.n != target.n:
        raise ValueError(
            f"dimension mismatch: target has n={target.n}, approximation has n={approx.n}"
        )
    with np.errstate(over="ignore"):
        ratios = target.covariance.diagonal() / approx.variances
    return ShrinkageMatrix(diagonal=ratios)


def gaussian_entropy(covariance_log_det: float, n: int) -> float:
    """Differential entropy of an n-dimensional Gaussian, in nats.

    Computed as ``(covariance_log_det + n * log(2*pi*e)) / 2`` so callers
    pass log-determinants, never raw determinants.
    """
    _check_dimension(n)
    if not math.isfinite(covariance_log_det):
        raise ValueError(f"log-determinant must be finite, got {covariance_log_det!r}")
    if covariance_log_det / n < MIN_LOG_DET:
        raise ValueError(
            f"log-determinant per coordinate {covariance_log_det / n!r} is below "
            f"{MIN_LOG_DET}; the geometric-mean variance underflows double precision"
        )
    return 0.5 * (covariance_log_det + n * LOG_TWO_PI_E)


def decompose(target: GaussianTarget) -> DecompositionReport:
    """Full entropy-gap decomposition of one Gaussian target.

    Solves the factorized approximation, splits the entropy gap into the
    shrinkage and correlation log-determinants, and forms KL(q || p) by
    the trace identity

        KL = (trace(Psi Sigma^-1) - log|Psi Sigma^-1| - n) / 2.

    Its trace term, sum_i (Sigma_ii / S_ii)(S_ii / Sigma_ii), is n up to
    rounding, so the KL restates the gap; their agreement catches only
    cancellation in H(p) - H(q), whose entropies each carry
    sum(log Sigma_ii) and n log(2 pi e) / 2, terms the KL never forms.
    The condition number is the ratio of C's extreme eigenvalues, which
    the target found when it was built: this call factors nothing and finds
    no eigenvalue.  IndefiniteError if the smallest is not positive.
    """
    n = target.n
    sigma_diag = target.covariance.diagonal()
    shrink = target._shrinkage
    log_det_s = float(np.log(shrink).sum())
    log_det_sigma = target.log_det_covariance

    variances = sigma_diag / shrink
    if not variances.all():
        i = int(np.argmin(variances))
        raise ValueError(
            f"factorized variance Psi_ii of coordinate {i} underflows to zero: "
            f"Sigma_ii = {float(sigma_diag[i])!r}, S_ii = {float(shrink[i])!r}"
        )
    log_det_psi = float(np.log(variances).sum())
    # The floor checks come first: S_ii / Sigma_ii overflows on a variance below
    # the floor, or on a subnormal one above it, whose infinite KL the report refuses.
    entropy_p = gaussian_entropy(log_det_sigma, n)
    entropy_q = gaussian_entropy(log_det_psi, n)
    gap = entropy_p - entropy_q

    with np.errstate(over="ignore"):
        inv_diag = shrink / sigma_diag
    trace_term = float(variances @ inv_diag)
    kl = 0.5 * (trace_term - (log_det_psi - log_det_sigma) - n)

    smallest = target._eigenvalue_min
    if not smallest > 0.0:
        raise IndefiniteError(smallest)
    condition = target._eigenvalue_max / smallest

    return DecompositionReport(
        log_det_S=log_det_s,
        # Read off the one factor of C: like log|S|, blind to coordinate scales.
        log_det_C=target._log_det_c,
        entropy_p=entropy_p,
        entropy_q=entropy_q,
        entropy_gap=gap,
        kl_q_p=kl,
        condition_number=condition,
    )


@dataclass(frozen=True)
class ConstantOffDiagClosedForms:
    """Closed-form decomposition for unit-variance, constant-correlation
    targets: Sigma_ii = 1, Sigma_ij = eps."""

    psi_ratio: float
    log_det_S: float
    log_det_C: float
    per_component_gap: float
    trace_S_over_n: float


def constant_offdiag_closed_forms(n: int, eps: float) -> ConstantOffDiagClosedForms:
    """Exact decomposition of the constant off-diagonal family.

    For Sigma with unit diagonal and constant correlation eps in [0, 1):

        psi_ratio   = (1 - eps)(1 + (n-1) eps) / (1 + (n-2) eps)
        log|S|      = -n log(psi_ratio)
        log|C|      = (n-1) log(1 - eps) + log(1 + (n-1) eps)
        trace(S)/n  = (1 + (n-2) eps) / ((1 - eps)(1 + (n-1) eps))

    and the per-component entropy gap is (log|S| + log|C|) / (2n).  As n
    grows the gap per component vanishes while psi_ratio tends to 1 - eps
    and trace(S)/n tends to 1 / (1 - eps).
    """
    if n < 2:
        raise ValueError(f"closed forms require n >= 2, got {n}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps!r}")
    one_minus = 1.0 - eps
    top = 1.0 + (n - 1) * eps
    mid = 1.0 + (n - 2) * eps
    psi_ratio = one_minus * top / mid
    log_det_s = -n * math.log(psi_ratio)
    log_det_c = (n - 1) * math.log1p(-eps) + math.log1p((n - 1) * eps)
    gap_per_component = (log_det_s + log_det_c) / (2.0 * n)
    trace_over_n = mid / (one_minus * top)
    return ConstantOffDiagClosedForms(
        psi_ratio=psi_ratio,
        log_det_S=log_det_s,
        log_det_C=log_det_c,
        per_component_gap=gap_per_component,
        trace_S_over_n=trace_over_n,
    )
