"""Stochastic fitting of factorized Gaussians to arbitrary log-densities.

The variational family is q(z) = N(nu, diag(exp(2 * log_std))).  Samples
are reparameterized as z = nu + exp(log_std) * u with u standard normal,
the entropy of q enters the objective analytically, and the evidence lower
bound

    ELBO = E_q[log p(z)] + sum(log_std) + n/2 * log(2 pi e)

is ascended with Adam on (nu, log_std).  Targets are plain callables
mapping a batch of points to values and gradients of log p, so anything
differentiable can be fitted; a Gaussian-mixture target ships as the
built-in non-Gaussian test bed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from .gaussian import (
    LOG_TWO_PI_E,
    FactorizedGaussian,
    GaussianTarget,
    ShrinkageMatrix,
    fgvi_solve,
    shrinkage_matrix,
)
from .linalg import log_det_from_cholesky

__all__ = [
    "MixtureTarget",
    "VariationalState",
    "OptimizerConfig",
    "DivergenceError",
    "ShrinkageComparison",
    "mixture_log_density",
    "mixture_log_density_grad",
    "mixture_log_density_fn",
    "gaussian_log_density_fn",
    "mixture_init_mean",
    "mixture_moments",
    "elbo_sample_terms",
    "fit_fgvi",
    "shrinkage_comparison",
    "max_entropy_gap_bound",
]

LogDensityFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class DivergenceError(RuntimeError):
    """The ELBO became non-finite during optimization."""

    def __init__(self, message: str, step: int, state: "VariationalState"):
        super().__init__(message)
        self.step = step
        self.state = state


@dataclass(frozen=True)
class MixtureTarget:
    """Gaussian mixture with shared spherical component covariance.

    ``weights`` must sum to one; ``means`` is (components, n); every
    component has covariance component_variance * I.
    """

    weights: np.ndarray
    means: np.ndarray
    component_variance: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError(f"weights must be a vector, got shape {w.shape}")
        if m.ndim != 2 or m.shape[0] != w.size:
            raise ValueError(
                f"means must be (components, n) with one row per weight, got {m.shape}"
            )
        if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        if not self.component_variance > 0.0:
            raise ValueError(
                f"component variance must be positive, got {self.component_variance!r}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))):
            raise ValueError("weights and means must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)

    @property
    def n(self) -> int:
        return self.means.shape[1]

    @property
    def components(self) -> int:
        return self.means.shape[0]


def _component_log_terms(target: MixtureTarget, z: np.ndarray) -> np.ndarray:
    """log w_k + log N(z | mu_k, sigma^2 I) for a batch, shape (batch, K)."""
    var = target.component_variance
    n = target.n
    diff = z[:, None, :] - target.means[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    log_norm = -0.5 * n * (math.log(2.0 * math.pi) + math.log(var))
    return np.log(target.weights)[None, :] + log_norm - 0.5 * sq / var


def _log_density_at(target: MixtureTarget, z: np.ndarray) -> tuple:
    """(log p, gradient) at one point (n,) or a batch (m, n) of points."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    if z.shape[1] != target.n:
        raise ValueError(f"points have dimension {z.shape[1]}, target has n={target.n}")
    values, grads = mixture_log_density_fn(target)(z)
    return (float(values[0]), grads[0]) if single else (values, grads)


def mixture_log_density(target: MixtureTarget, z: np.ndarray) -> float | np.ndarray:
    """log p(z) under the mixture; z is one point (n,) or a batch (m, n)."""
    return _log_density_at(target, z)[0]


def mixture_log_density_grad(target: MixtureTarget, z: np.ndarray) -> np.ndarray:
    """Gradient of log p at z; same batch semantics as the density."""
    return _log_density_at(target, z)[1]


def mixture_log_density_fn(target: MixtureTarget) -> LogDensityFn:
    """Batched (values, gradients) callable sharing one responsibility pass."""

    def fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        terms = _component_log_terms(target, z)
        top = np.max(terms, axis=1)
        weights = np.exp(terms - top[:, None])
        total = np.sum(weights, axis=1)
        values = top + np.log(total)
        resp = weights / total[:, None]
        pull = target.means[None, :, :] - z[:, None, :]
        grads = np.sum(resp[:, :, None] * pull, axis=1) / target.component_variance
        return values, grads

    return fn


def gaussian_log_density_fn(target: GaussianTarget) -> LogDensityFn:
    """Batched (values, gradients) callable for a dense Gaussian target."""
    lower = target.cholesky_lower
    log_det = log_det_from_cholesky(lower)
    norm = -0.5 * (target.n * math.log(2.0 * math.pi) + log_det)

    def fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = z - target.mean[None, :]
        half = solve_triangular(lower, diff.T, lower=True, check_finite=False)
        values = norm - 0.5 * np.sum(half * half, axis=0)
        grads = -solve_triangular(lower.T, half, lower=False, check_finite=False).T
        return values, grads

    return fn


def mixture_init_mean(target: MixtureTarget, seed: int) -> np.ndarray:
    """Seeded draw from the mixture, for initializing a fit.

    Picks a component by weight and adds spherical noise, so the starting
    mean lands inside one mode's basin of attraction at the target's own
    scale.  Starting instead near the origin of a well-separated symmetric
    mixture stalls the optimizer on a broad mode-covering solution: the
    log-variance gradient there is strongly positive while the mean
    gradient cancels by symmetry, and once the approximation widens enough
    to cover both modes the symmetric point becomes locally stable.
    """
    rng = np.random.default_rng(seed)
    k = rng.choice(target.components, p=target.weights)
    scale = math.sqrt(target.component_variance)
    return target.means[k] + scale * rng.standard_normal(target.n)


def mixture_moments(target: MixtureTarget) -> GaussianTarget:
    """Exact mean and covariance of the mixture as a Gaussian target.

    mean = sum_k w_k mu_k and covariance = sigma^2 I plus the spread of the
    component means around the overall mean.
    """
    mean = target.weights @ target.means
    centered = target.means - mean[None, :]
    spread = (target.weights[:, None] * centered).T @ centered
    cov = target.component_variance * np.eye(target.n) + spread
    return GaussianTarget(mean=mean, covariance=cov)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings for the stochastic ELBO ascent.  Defaults are the
    recorded ones; every field can be overridden."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    mc_samples: int = 10
    max_steps: int = 20000
    tolerance: float = 1e-4
    window: int = 200
    average_decay: float = 0.999
    init_jitter: float = 0.1
    init_mean: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1 or self.max_steps < 1 or self.window < 1:
            raise ValueError("mc_samples, max_steps and window must be positive")
        if not (self.learning_rate > 0.0 and self.tolerance >= 0.0):
            raise ValueError("learning_rate must be positive and tolerance non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 <= self.average_decay < 1.0:
            raise ValueError("average_decay must lie in [0, 1)")
        if not self.init_jitter >= 0.0:
            raise ValueError(f"init_jitter must be non-negative, got {self.init_jitter!r}")


@dataclass(frozen=True)
class VariationalState:
    """Snapshot of a factorized Gaussian fit.

    ``elbo_trace`` holds (step, estimate) pairs with steps strictly
    increasing, one entry per optimization step taken.
    """

    mean: np.ndarray
    log_std: np.ndarray
    step_count: int
    elbo_trace: tuple[tuple[int, float], ...]

    @property
    def n(self) -> int:
        return self.mean.size

    @property
    def variances(self) -> np.ndarray:
        return np.exp(2.0 * self.log_std)

    def as_factorized(self) -> FactorizedGaussian:
        return FactorizedGaussian(mean=self.mean.copy(), variances=self.variances)


def elbo_sample_terms(
    log_density: LogDensityFn,
    mean: np.ndarray,
    log_std: np.ndarray,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample ELBO values and parameter gradients at fixed noise.

    For z = mean + exp(log_std) * u the pathwise gradients are

        d/d mean    = grad log p(z)
        d/d log_std = grad log p(z) * exp(log_std) * u + 1

    where the +1 is the exact gradient of the analytic entropy term.
    Returns (elbo_samples, grad_mean_samples, grad_log_std_samples); the
    averages over the sample axis are unbiased for the ELBO and its
    gradient.
    """
    scales = np.exp(log_std)
    z = mean[None, :] + scales[None, :] * noise
    values, grads = log_density(z)
    entropy = float(np.sum(log_std)) + 0.5 * mean.size * LOG_TWO_PI_E
    elbo_samples = values + entropy
    grad_log_std = grads * (scales[None, :] * noise) + 1.0
    return elbo_samples, grads, grad_log_std


def fit_fgvi(log_density: LogDensityFn, n: int, config: OptimizerConfig | None = None) -> VariationalState:
    """Fit a factorized Gaussian to a log-density by stochastic ELBO ascent.

    ``log_density`` maps a batch (m, n) to (values (m,), gradients (m, n))
    and must be finite at the initialization point.  The mean starts at
    ``config.init_mean`` when given, otherwise at a seeded
    N(0, init_jitter^2) perturbation of the origin; log_std starts at zero.
    Multimodal targets need an initial mean inside a mode's basin of
    attraction (see :func:`mixture_init_mean`); a small perturbation of the
    origin reliably stalls on a broad symmetric solution instead of
    collapsing.
    Optimization stops when the relative change between consecutive
    trailing-window ELBO averages falls below ``tolerance``, or at
    ``max_steps``.

    A constant-step stochastic optimizer never sits still: it hovers around
    the optimum with jitter set by the step size and gradient noise.  The
    returned parameters are therefore a bias-corrected exponential tail
    average of the iterates (decay ``average_decay``), which strips that
    hover without touching the optimization path; the ELBO trace stays raw.

    Raises:
        DivergenceError: the ELBO estimate became non-finite; the error
            carries the failing step and the state at that step.
    """
    if config is None:
        config = OptimizerConfig()
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")

    rng = np.random.default_rng(config.seed)
    if config.init_mean is not None:
        mean = np.array(config.init_mean, dtype=float)
        if mean.shape != (n,) or not np.all(np.isfinite(mean)):
            raise ValueError(f"init_mean must be a finite vector of length {n}")
    else:
        mean = config.init_jitter * rng.standard_normal(n)
    log_std = np.zeros(n)

    init_values, _ = log_density(mean[None, :])
    if not np.all(np.isfinite(init_values)):
        raise ValueError("log-density is not finite at the initialization point")

    first_moment = np.zeros(2 * n)
    second_moment = np.zeros(2 * n)
    averaged = np.zeros(2 * n)
    trace: list[tuple[int, float]] = []
    elbo_values = np.empty(config.max_steps)
    previous_window: float | None = None
    steps_taken = 0

    for step in range(1, config.max_steps + 1):
        noise = rng.standard_normal((config.mc_samples, n))
        # Overflow here is a detected failure mode, not a warning condition:
        # the finiteness check below turns it into DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            elbo_samples, grad_mean, grad_log_std = elbo_sample_terms(
                log_density, mean, log_std, noise
            )
            elbo = float(np.mean(elbo_samples))
        if not math.isfinite(elbo):
            state = VariationalState(
                mean=mean, log_std=log_std, step_count=step, elbo_trace=tuple(trace)
            )
            raise DivergenceError(
                f"ELBO became non-finite at step {step}", step=step, state=state
            )
        trace.append((step, elbo))
        elbo_values[step - 1] = elbo
        steps_taken = step

        gradient = np.concatenate([
            np.mean(grad_mean, axis=0),
            np.mean(grad_log_std, axis=0),
        ])
        first_moment = config.beta1 * first_moment + (1.0 - config.beta1) * gradient
        second_moment = config.beta2 * second_moment + (1.0 - config.beta2) * gradient**2
        hat_first = first_moment / (1.0 - config.beta1**step)
        hat_second = second_moment / (1.0 - config.beta2**step)
        update = config.learning_rate * hat_first / (np.sqrt(hat_second) + config.adam_epsilon)
        mean = mean + update[:n]
        log_std = log_std + update[n:]
        averaged = config.average_decay * averaged + (1.0 - config.average_decay) * np.concatenate(
            [mean, log_std]
        )

        if step % config.window == 0:
            window_mean = float(np.mean(elbo_values[step - config.window: step]))
            if previous_window is not None:
                change = abs(window_mean - previous_window)
                if change <= config.tolerance * max(1.0, abs(previous_window)):
                    break
            previous_window = window_mean

    averaged = averaged / (1.0 - config.average_decay**steps_taken)
    mean, log_std = averaged[:n], averaged[n:]
    return VariationalState(
        mean=mean, log_std=log_std, step_count=steps_taken, elbo_trace=tuple(trace)
    )


class ShrinkageComparison(NamedTuple):
    S: ShrinkageMatrix
    S_G: ShrinkageMatrix
    trace_S: float
    trace_S_G: float


def shrinkage_comparison(target: MixtureTarget, fitted: VariationalState) -> ShrinkageComparison:
    """Shrinkage of a stochastic fit against the moment-matched dense
    Gaussian baseline.

    S compares the fitted variances to the true mixture marginals; S_G is
    the shrinkage the best factorized Gaussian would incur against the
    Gaussian with the mixture's own moments.  On well-separated mixtures
    the fit collapses onto one component, so trace(S) far exceeds
    trace(S_G).  ``fitted`` should be the state of a completed fit.
    """
    moments = mixture_moments(target)
    s = shrinkage_matrix(moments, fitted.as_factorized())
    s_gaussian = shrinkage_matrix(moments, fgvi_solve(moments))
    return ShrinkageComparison(
        S=s, S_G=s_gaussian, trace_S=s.trace, trace_S_G=s_gaussian.trace
    )


def max_entropy_gap_bound(target_cov: GaussianTarget, fitted: VariationalState) -> float:
    """Entropy gap of a fit against the maximum-entropy Gaussian with the
    target's covariance: (log|Sigma| - sum(2 * log_std)) / 2.

    Because the Gaussian maximizes entropy at fixed covariance, this is a
    lower bound on the entropy deficit of the fit against any density with
    those second moments.  Equals the exact entropy gap when ``fitted``
    carries the closed-form variances for ``target_cov``.
    """
    if fitted.n != target_cov.n:
        raise ValueError(
            f"dimension mismatch: target has n={target_cov.n}, fit has n={fitted.n}"
        )
    log_det_sigma = log_det_from_cholesky(target_cov.cholesky_lower)
    return 0.5 * (log_det_sigma - 2.0 * float(np.sum(fitted.log_std)))
