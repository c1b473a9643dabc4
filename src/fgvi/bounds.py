"""Extremal envelopes of the entropy-gap pieces over a condition-number class.

All bounds range over correlation-like spectra: eigenvalue profiles with a
fixed extreme-eigenvalue ratio R = lambda_1 / lambda_n and trace n.  That
class is a polytope whose vertices are the n-1 two-level spectra: j
eigenvalues at the top edge R lambda_n and n-j at the bottom edge
lambda_n = (n/R) / (j + (n-j)/R), a form that never builds the overflowing
j R.  Every envelope has a closed form: the convex sum(1/lambda_i) peaks at
j = floor(n/2), the concave joint divergence peaks next to j = n t*, and the
maximizer of sum(log lambda_i) and the minimizer of sum(1/lambda_i) pin one
eigenvalue at each edge and hold the interior ones equal.  Near R = 1 the
naive t* = R/(R-1) - 1/log R cancels, so t* is h(-x) / (x (-expm1(-x))),
x = log R and h(y) = expm1(y) - y, a ratio of non-negative parts.

Each envelope value has one scalar helper, and bounds_report calls only
those: it builds no spectrum.  One helper, _profile, builds every
maximizing spectrum, and only the bound_* functions call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# 1/k! for k = 25 down to 2, Horner order: h(y) = y^2 sum_k y^(k-2)/k!, whose
# tail past k = 25 is below 2^-60 relative for |y| <= 2.
_H_TAYLOR = tuple(1 / math.factorial(k) for k in range(25, 1, -1))


@dataclass(frozen=True)
class EigenProfile:
    """An eigenvalue profile in the candidate class: sorted descending,
    trace n, extreme ratio equal to ``condition_ratio``; an own copy."""

    values: np.ndarray
    condition_ratio: float

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
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


class TraceShrinkageBounds(NamedTuple):
    lower: float
    upper: float
    lower_profile: EigenProfile
    upper_profile: EigenProfile


def _check_n_ratio(n: int, condition_ratio: float) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
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


def _upper_trace_S(n: int, ratio: float) -> float:
    """Class maximum of sum(1/lambda_i): vertex j = floor(n/2)."""
    j = n // 2
    return n + (ratio - 1.0) * ((ratio - 1.0) / ratio) * (j * (n - j) / n)


def _lower_trace_S(n: int, ratio: float) -> float:
    """Class minimum of sum(1/lambda_i) for n >= 3."""
    root = math.sqrt(ratio)
    return (root + 1.0 / root + n - 2) ** 2 / n


def _upper_log_det_S(n: int, ratio: float) -> float:
    """n log(F/n) for the upper trace bound F, as
    n log1p((R-1) (R-1)/R j(n-j)/n^2) at j = floor(n/2): F/n itself rounds
    to 1 near R = 1, where the bound is O((R-1)^2)."""
    j = n // 2
    return n * math.log1p((ratio - 1.0) * ((ratio - 1.0) / ratio) * (j * (n - j) / (n * n)))


def _upper_log_det_C(ratio: float) -> float:
    """-log1p((R-1)^2/(4R)) for n >= 2."""
    # 0.0 minus, not unary minus, so that R = 1 gives +0.0
    return 0.0 - math.log1p((ratio - 1.0) * ((ratio - 1.0) / ratio) / 4.0)


def _expm1_minus_identity(y: float) -> float:
    """h(y) = e^y - 1 - y >= 0: by its Taylor series for |y| <= 2, where
    expm1(y) - y would cancel, and as that difference beyond."""
    if abs(y) > 2.0:
        return math.expm1(y) - y
    acc = 0.0
    for coefficient in _H_TAYLOR:
        acc = acc * y + coefficient
    return acc * y * y


def _joint_gap(n: int, j: int, log_ratio: float) -> float:
    """g(j) = (n/2) log1p((1-t) h(t x) + t h(-(1-t) x)), t = j/n, x = log R;
    both h terms are non-negative, so nothing cancels."""
    t, rest = j / n, (n - j) / n
    return 0.5 * n * math.log1p(
        rest * _expm1_minus_identity(t * log_ratio) + t * _expm1_minus_identity(-rest * log_ratio)
    )


def _joint_kl(n: int, ratio: float) -> tuple[float, int]:
    """The largest joint gap g(j) over j = 1..n-1 and its j; see bound_kl_joint."""
    x = math.log(ratio)
    if x == 0.0:
        return 0.0, 1
    low = math.floor(n * (_expm1_minus_identity(-x) / (x * -math.expm1(-x))))  # n t*
    gaps = {j: _joint_gap(n, j, x) for j in range(max(1, low - 1), min(n - 1, low + 2) + 1)}
    j = max(gaps, key=gaps.get)  # the smaller j of a tie, as max keeps the first
    return gaps[j], j


def bound_log_det_S(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the shrinkage log-determinant log|S| over all
    correlation matrices with the given extreme-eigenvalue ratio.

    Uses log|S| <= n log(F/n) where F is the class maximum of
    sum(1/lambda_i), the upper trace bound; returns the bound and the
    profile attaining F.
    """
    _check_n_ratio(n, condition_ratio)
    return _upper_log_det_S(n, condition_ratio), _vertex(n, condition_ratio, n // 2)


def bound_log_det_C(n: int, condition_ratio: float) -> tuple[float, EigenProfile]:
    """Upper bound on the correlation log-determinant log|C| over the class.

    The maximizer pins one eigenvalue at each edge, 2/(1+R) and 2R/(1+R),
    and holds every interior eigenvalue at exactly 1, since the two edges
    sum to 2.  The bound is log(4R/(1+R)^2) = -log1p((R-1)^2/(4R)), never
    positive and exactly zero at R = 1.
    """
    _check_n_ratio(n, condition_ratio)
    ratio = condition_ratio
    lam_n = 2.0 / (1.0 + ratio)
    profile = _profile(ratio, (ratio * lam_n, 1.0, lam_n), (1, n - 2, 1))
    return _upper_log_det_C(ratio), profile


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
    _check_n_ratio(n, condition_ratio)
    ratio = condition_ratio
    upper = _upper_trace_S(n, ratio)
    upper_profile = _vertex(n, ratio, n // 2)
    if n == 2:
        return TraceShrinkageBounds(upper, upper, upper_profile, upper_profile)
    root = math.sqrt(ratio)
    lam_n = n / (1.0 + ratio + (n - 2) * root)
    lower = _lower_trace_S(n, ratio)
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

        g(j) = (n log1p(-t s) + j log R) / 2,  t = j/n,  s = (R-1)/R,

    concave in j, with its maximum over real t at t* = 1/s - 1/log R.  Near
    R = 1 both terms are near 1/(R-1), so that form loses its digits and
    can name the wrong vertex; with x = log R and h(y) = expm1(y) - y,

        t* = h(-x) / (x (-expm1(-x))),  from 1/2 at R = 1 to 1 as R -> inf.

    Returns the largest g(j) over j = floor(n t*) - 1 .. floor(n t*) + 2 in
    1..n-1, each valued as (n/2) log1p((1-t) h(t x) + t h(-(1-t) x)), whose
    terms are non-negative, and its vertex; at R = 1 it is 0, at j = 1.
    """
    _check_n_ratio(n, condition_ratio)
    gap, j = _joint_kl(n, condition_ratio)
    return gap, _vertex(n, condition_ratio, j)


@dataclass(frozen=True)
class BoundsReport:
    """All envelope values at one (n, condition ratio) point.

    Every bound is finite (else OverflowError), the joint KL bound never
    exceeds the sum of the two separate ones, and the correlation bound is
    at most 0.  It holds values only; the bound_* functions give the
    profile attaining each bound.
    """

    n: int
    condition_ratio: float
    upper_log_det_S: float
    upper_log_det_C: float
    lower_trace_S: float
    upper_trace_S: float
    joint_kl_upper: float

    def __post_init__(self):
        checked = (self.upper_log_det_S, self.upper_trace_S, self.joint_kl_upper)
        if not all(map(math.isfinite, checked)):
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
    """Every bound at one (n, condition ratio) point, values only."""
    _check_n_ratio(n, condition_ratio)
    ratio = condition_ratio
    upper_trace = _upper_trace_S(n, ratio)
    return BoundsReport(
        n=n,
        condition_ratio=float(ratio),
        upper_log_det_S=_upper_log_det_S(n, ratio),
        upper_log_det_C=_upper_log_det_C(ratio),
        lower_trace_S=_lower_trace_S(n, ratio) if n > 2 else upper_trace,
        upper_trace_S=upper_trace,
        joint_kl_upper=_joint_kl(n, ratio)[0],
    )


def envelope_sweep(n: int, ratio_grid) -> list[BoundsReport]:
    """Bounds at every point of an ascending condition-ratio grid."""
    grid = [float(r) for r in ratio_grid]
    if not grid:
        raise ValueError("condition-ratio grid must be non-empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("condition-ratio grid must be ascending")
    return [bounds_report(n, r) for r in grid]
