"""Extremal envelopes of the entropy-gap pieces over a condition-number class.

All bounds range over correlation-like spectra: eigenvalue profiles with a
fixed extreme-eigenvalue ratio R = lambda_1 / lambda_n and trace n.  That
class is a polytope whose vertices are the n-1 two-level spectra: j
eigenvalues at the top edge R lambda_n and n-j at the bottom edge lambda_n,
with lambda_n = n / (jR + n - j).  The maximizers of the convex objectives,
sum(1/lambda_i) and the joint divergence, are found by evaluating them in
closed form at every vertex at once; only the winning vertex is built as
a profile.  The maximizer of sum(log lambda_i) and the minimizer of
sum(1/lambda_i) pin one eigenvalue at each edge and hold the interior ones
equal; both have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenProfile",
    "BoundsReport",
    "TraceShrinkageBounds",
    "bound_log_det_S",
    "bound_log_det_C",
    "bound_trace_S",
    "bound_kl_joint",
    "bounds_report",
    "envelope_sweep",
]

_PROFILE_RTOL = 1e-10


@dataclass(frozen=True)
class EigenProfile:
    """An eigenvalue profile in the candidate class: sorted descending,
    trace n, extreme ratio equal to ``condition_ratio``."""

    values: np.ndarray
    condition_ratio: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"values must be a vector of length >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or v[-1] <= 0.0:
            raise ValueError("eigenvalues must be finite and positive")
        if np.any(np.diff(v) > 0.0):
            raise ValueError("eigenvalues must be sorted descending")
        if self.condition_ratio < 1.0:
            raise ValueError(f"condition ratio must be >= 1, got {self.condition_ratio!r}")
        if abs(v[0] - self.condition_ratio * v[-1]) > _PROFILE_RTOL * v[0]:
            raise ValueError(
                f"extreme ratio {v[0] / v[-1]!r} does not match "
                f"condition ratio {self.condition_ratio!r}"
            )
        n = v.size
        total = float(np.sum(v))
        if abs(total - n) > _PROFILE_RTOL * n:
            raise ValueError(f"eigenvalues must sum to n={n}, got {total!r}")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


class TraceShrinkageBounds(NamedTuple):
    lower: float
    upper: float
    lower_profile: EigenProfile
    upper_profile: EigenProfile


def _check_n_ratio(n: int, condition_ratio: float, min_n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < min_n:
        raise ValueError(f"n must be an integer >= {min_n}, got {n!r}")
    if not (math.isfinite(condition_ratio) and condition_ratio >= 1.0):
        raise ValueError(f"condition ratio must be >= 1, got {condition_ratio!r}")


def _two_level_vertices(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices of the class, j = 1..n-1: j eigenvalues at the top edge
    ratio*lam_n and n-j at the bottom edge lam_n = n / (j ratio + n - j).

    Returns arrays over j of lam_n, sum(1/lambda) and sum(log lambda).
    sum(1/lambda) = (j/ratio + n - j) / lam_n is evaluated in the expanded
    form n + (ratio-1)^2/ratio * j(n-j)/n, which is exactly symmetric under
    j -> n-j, so mirror vertices tie exactly, and keeps its small excess
    over n accurate at ratios near 1.
    """
    j = np.arange(1, n)
    bottom = n / (j * ratio + (n - j))
    inverse_sum = n + (ratio - 1.0) * ((ratio - 1.0) / ratio) * (j * (n - j) / n)
    log_sum = j * math.log(ratio) + n * np.log(bottom)
    return bottom, inverse_sum, log_sum


def _vertex_profile(n: int, ratio: float, bottom: np.ndarray, index: int) -> EigenProfile:
    """Profile of the vertex at position ``index`` of _two_level_vertices."""
    lam_n = float(bottom[index])
    values = np.full(n, lam_n)
    values[: index + 1] = ratio * lam_n
    return EigenProfile(values=values, condition_ratio=ratio)


def _max_inverse_sum(n: int, ratio: float) -> tuple[float, EigenProfile]:
    """Maximum of sum(1/lambda_i) over the class; the objective is convex,
    so a vertex attains it."""
    bottom, inverse_sum, _ = _two_level_vertices(n, ratio)
    best = int(np.argmax(inverse_sum))
    return float(inverse_sum[best]), _vertex_profile(n, ratio, bottom, best)


def bound_log_det_S(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the shrinkage log-determinant log|S| over all
    correlation matrices with the given extreme-eigenvalue ratio.

    Uses log|S| <= n log(F/n) where F is the class maximum of
    sum(1/lambda_i); returns the bound and its maximizing profile.
    """
    _check_n_ratio(n, condition_ratio, min_n=2)
    f_max, profile = _max_inverse_sum(n, condition_ratio)
    return n * math.log(f_max / n), profile


def bound_log_det_C(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the correlation log-determinant log|C| over the class.

    The maximizer pins one eigenvalue at each edge, 2/(1+R) and 2R/(1+R),
    and holds every interior eigenvalue at 1; the stationary point always
    lies inside its feasible interval for n >= 2.  The bound is never
    positive and is exactly zero at R = 1.
    """
    _check_n_ratio(n, condition_ratio, min_n=1)
    ratio = condition_ratio
    if n == 1:
        return 0.0, EigenProfile(values=np.ones(1), condition_ratio=1.0)
    lam_n = 2.0 / (1.0 + ratio)
    lo = n / (1.0 + ratio * (n - 1))
    hi = n / (n - 1.0 + ratio)
    assert lo - 1e-12 <= lam_n <= hi + 1e-12, "stationary point left its interval"
    # The n-2 interior eigenvalues share what the trace leaves (none at n == 2).
    lam_mid = (n - (1.0 + ratio) * lam_n) / max(n - 2, 1)
    values = np.concatenate([[ratio * lam_n], np.full(n - 2, lam_mid), [lam_n]])
    values[::-1].sort()
    value = float(np.sum(np.log(values)))
    return value, EigenProfile(values=values, condition_ratio=ratio)


def bound_trace_S(n: int, condition_ratio: float) -> TraceShrinkageBounds:
    """Two-sided bounds on trace(S) = sum(1/lambda_i) over the class.

    The upper bound reuses the maximizer of the shrinkage bound.  The
    lower bound's profile pins one eigenvalue at each edge and puts the
    n-2 interior ones at the stationary point sqrt(R) lam_n, with
    lam_n = n / (1 + R + (n-2) sqrt(R)) always inside its feasible
    interval; the minimum is then

        sum(1/lambda_i) = (sqrt(R) + 1/sqrt(R) + n - 2)^2 / n.

    At n == 2 the class holds one profile, and both bounds are its value.
    """
    _check_n_ratio(n, condition_ratio, min_n=2)
    ratio = condition_ratio
    upper, upper_profile = _max_inverse_sum(n, ratio)
    if n == 2:
        return TraceShrinkageBounds(upper, upper, upper_profile, upper_profile)
    root = math.sqrt(ratio)
    lam_n = n / (1.0 + ratio + (n - 2) * root)
    values = np.concatenate([[ratio * lam_n], np.full(n - 2, root * lam_n), [lam_n]])
    lower = (root + 1.0 / root + n - 2) ** 2 / n
    lower_profile = EigenProfile(values=values, condition_ratio=ratio)
    return TraceShrinkageBounds(lower, upper, lower_profile, upper_profile)


def bound_kl_joint(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the whole entropy gap (equivalently KL(q || p)) over
    the class, tighter than summing the two separate bounds.

    The gap is (n log(F/n) + sum(log lambda_i)) / 2 with F = sum(1/lambda_i).
    In the reciprocal weights omega_i = (1/lambda_i) / F, which form the same
    kind of ratio-R class with unit sum, it is convex, so it peaks at a
    weight vertex; those are the eigenvalue vertices with top and bottom
    swapped.  Returns the bound and its maximizing eigenvalue profile.
    """
    _check_n_ratio(n, condition_ratio, min_n=2)
    bottom, inverse_sum, log_sum = _two_level_vertices(n, condition_ratio)
    gaps = 0.5 * (n * np.log(inverse_sum / n) + log_sum)
    best = int(np.argmax(gaps))
    return float(gaps[best]), _vertex_profile(n, condition_ratio, bottom, best)


@dataclass(frozen=True)
class BoundsReport:
    """All envelope values at one (n, condition ratio) point.

    ``maximizers`` maps each bound name to the profile attaining it.  The
    joint KL bound never exceeds the sum of the two separate bounds, and
    the correlation bound never exceeds zero; both facts are enforced.
    """

    n: int
    condition_ratio: float
    upper_log_det_S: float
    upper_log_det_C: float
    lower_trace_S: float
    upper_trace_S: float
    joint_kl_upper: float
    maximizers: dict[str, EigenProfile] = field(repr=False)

    def __post_init__(self):
        if self.upper_log_det_C > 1e-12:
            raise ValueError(
                f"correlation bound must be non-positive, got {self.upper_log_det_C!r}"
            )
        if self.lower_trace_S > self.upper_trace_S + 1e-9:
            raise ValueError("trace bounds are crossed")
        if self.joint_kl_upper > self.separate_kl_upper + 1e-9:
            raise ValueError(
                f"joint bound {self.joint_kl_upper!r} exceeds the sum of the "
                f"separate bounds {self.separate_kl_upper!r}"
            )

    @property
    def separate_kl_upper(self) -> float:
        """Gap bound obtained by adding the two separate envelopes."""
        return 0.5 * self.upper_log_det_S + 0.5 * self.upper_log_det_C


def bounds_report(n: int, condition_ratio: float) -> BoundsReport:
    """Assemble every bound at one (n, condition ratio) point."""
    upper_s, profile_s = bound_log_det_S(n, condition_ratio)
    upper_c, profile_c = bound_log_det_C(n, condition_ratio)
    trace_bounds = bound_trace_S(n, condition_ratio)
    joint, profile_joint = bound_kl_joint(n, condition_ratio)
    return BoundsReport(
        n=n,
        condition_ratio=float(condition_ratio),
        upper_log_det_S=upper_s,
        upper_log_det_C=upper_c,
        lower_trace_S=trace_bounds.lower,
        upper_trace_S=trace_bounds.upper,
        joint_kl_upper=joint,
        maximizers={
            "log_det_S": profile_s,
            "log_det_C": profile_c,
            "trace_S_lower": trace_bounds.lower_profile,
            "trace_S_upper": trace_bounds.upper_profile,
            "kl_joint": profile_joint,
        },
    )


def envelope_sweep(n: int, ratio_grid) -> list[BoundsReport]:
    """Bounds at every point of an ascending condition-ratio grid."""
    grid = [float(r) for r in ratio_grid]
    if not grid:
        raise ValueError("condition-ratio grid must be non-empty")
    if any(r < 1.0 for r in grid):
        raise ValueError("condition-ratio grid values must be >= 1")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("condition-ratio grid must be ascending")
    return [bounds_report(n, r) for r in grid]
