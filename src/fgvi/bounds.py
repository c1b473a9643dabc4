"""Extremal envelopes of the entropy-gap pieces over a condition-number class.

All bounds range over correlation-like spectra: eigenvalue profiles with a
fixed extreme-eigenvalue ratio R = lambda_1 / lambda_n and trace n.  That
class is a polytope whose vertices are the n-1 two-level spectra: j
eigenvalues at the top edge R lambda_n and n-j at the bottom edge
lambda_n = (n/R) / (j + (n-j)/R), a form that never builds the overflowing
j R.  Every envelope has a closed form: the convex sum(1/lambda_i) peaks at
j = floor(n/2), the joint divergence is the one scan over vertices, and the
maximizer of sum(log lambda_i) and the minimizer of sum(1/lambda_i) pin one
eigenvalue at each edge and hold the interior ones equal.  One helper,
_profile, builds every maximizing spectrum.
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
        raise ValueError(f"condition ratio must be finite and >= 1, got {condition_ratio!r}")


def _profile(ratio: float, levels, counts) -> EigenProfile:
    """The spectrum holding counts[k] eigenvalues at levels[k], sorted
    descending: a pinned edge can cross an interior level by rounding."""
    values = np.repeat(levels, counts)
    values[::-1].sort()
    return EigenProfile(values=values, condition_ratio=ratio)


def _vertex(n: int, ratio: float, j: int) -> EigenProfile:
    """The two-level vertex with j eigenvalues at the top edge."""
    bottom = (n / ratio) / (j + (n - j) / ratio)
    return _profile(ratio, (ratio * bottom, bottom), (j, n - j))


def bound_log_det_S(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the shrinkage log-determinant log|S| over all
    correlation matrices with the given extreme-eigenvalue ratio.

    Uses log|S| <= n log(F/n) where F is the class maximum of
    sum(1/lambda_i), the upper trace bound; returns the bound and the
    profile attaining F.
    """
    trace = bound_trace_S(n, condition_ratio)
    return n * math.log(trace.upper / n), trace.upper_profile


def bound_log_det_C(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the correlation log-determinant log|C| over the class.

    The maximizer pins one eigenvalue at each edge, 2/(1+R) and 2R/(1+R),
    and holds every interior eigenvalue at exactly 1, since the two edges
    sum to 2.  The bound is never positive and is exactly zero at R = 1.
    """
    _check_n_ratio(n, condition_ratio, min_n=1)
    if n == 1:
        return 0.0, _profile(1.0, (1.0,), (1,))
    lam_n = 2.0 / (1.0 + condition_ratio)
    profile = _profile(condition_ratio, (condition_ratio * lam_n, 1.0, lam_n), (1, n - 2, 1))
    return float(np.sum(np.log(profile.values))), profile


def bound_trace_S(n: int, condition_ratio: float) -> TraceShrinkageBounds:
    """Two-sided bounds on trace(S) = sum(1/lambda_i) over the class.

    The objective is convex, so a vertex attains the upper bound; at vertex
    j it is n + (R-1)^2/R * j(n-j)/n, largest at j = floor(n/2) (tied
    exactly with its mirror).  The lower bound's profile pins one eigenvalue
    at each edge and puts the n-2 interior ones at the stationary point
    sqrt(R) lam_n, with lam_n = n / (1 + R + (n-2) sqrt(R)) always inside
    its feasible interval; the minimum is then

        sum(1/lambda_i) = (sqrt(R) + 1/sqrt(R) + n - 2)^2 / n.

    At n == 2 the class holds one profile, and both bounds are its value.
    """
    _check_n_ratio(n, condition_ratio, min_n=2)
    ratio = condition_ratio
    j = n // 2
    upper = n + (ratio - 1.0) * ((ratio - 1.0) / ratio) * (j * (n - j) / n)
    upper_profile = _vertex(n, ratio, j)
    if n == 2:
        return TraceShrinkageBounds(upper, upper, upper_profile, upper_profile)
    root = math.sqrt(ratio)
    lam_n = n / (1.0 + ratio + (n - 2) * root)
    lower = (root + 1.0 / root + n - 2) ** 2 / n
    lower_profile = _profile(ratio, (ratio * lam_n, root * lam_n, lam_n), (1, n - 2, 1))
    return TraceShrinkageBounds(lower, upper, lower_profile, upper_profile)


def bound_kl_joint(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the whole entropy gap (equivalently KL(q || p)) over
    the class, tighter than summing the two separate bounds.

    The gap is (n log(F/n) + sum(log lambda_i)) / 2 with F = sum(1/lambda_i).
    In the reciprocal weights omega_i = (1/lambda_i) / F, which form the same
    kind of ratio-R class with unit sum, it is convex, so it peaks at a
    weight vertex; those are the eigenvalue vertices with top and bottom
    swapped.  At the vertex with j eigenvalues at the top edge,
    F lam_n = j/R + n - j and sum(log lambda_i) = j log R + n log lam_n,
    so lam_n cancels and the gap is exactly

        g(j) = (n log1p(-(j/n)(R-1)/R) + j log R) / 2,

    concave in j.  Returns the largest g(j) over j = 1..n-1 and its vertex.
    """
    _check_n_ratio(n, condition_ratio, min_n=2)
    ratio = condition_ratio
    j = np.arange(1, n)
    gaps = 0.5 * (n * np.log1p(-(j / n) * ((ratio - 1.0) / ratio)) + j * math.log(ratio))
    best = int(np.argmax(gaps))
    return float(gaps[best]), _vertex(n, ratio, best + 1)


@dataclass(frozen=True)
class BoundsReport:
    """All envelope values at one (n, condition ratio) point.

    ``maximizers`` maps each bound name to the profile attaining it.  Every
    bound is finite (else OverflowError), the joint KL bound never exceeds
    the sum of the two separate ones, and the correlation bound is at most 0.
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
        if not np.isfinite([self.upper_log_det_S, self.upper_trace_S, self.joint_kl_upper]).all():
            raise OverflowError(f"bounds at n={self.n}, R={self.condition_ratio!r} overflow")
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
    trace_bounds = bound_trace_S(n, condition_ratio)
    upper_c, profile_c = bound_log_det_C(n, condition_ratio)
    joint, profile_joint = bound_kl_joint(n, condition_ratio)
    return BoundsReport(
        n=n,
        condition_ratio=float(condition_ratio),
        # bound_log_det_S, read off the one trace bound already at hand
        upper_log_det_S=n * math.log(trace_bounds.upper / n),
        upper_log_det_C=upper_c,
        lower_trace_S=trace_bounds.lower,
        upper_trace_S=trace_bounds.upper,
        joint_kl_upper=joint,
        maximizers={
            "log_det_S": trace_bounds.upper_profile,
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
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("condition-ratio grid must be ascending")
    return [bounds_report(n, r) for r in grid]
