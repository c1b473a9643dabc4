"""Stochastic fitting of factorized Gaussians to arbitrary log-densities.

The variational family is q(z) = N(nu, diag(exp(2 * log_std))).  Samples
are reparameterized as z = nu + exp(log_std) * u with u standard normal,
and the evidence lower bound

    ELBO = E_q[log p(z) - log q(z)]

is ascended with Adam on (nu, log_std).  The estimator is "sticking the
landing" (Roeder, Wu & Duvenaud, 2017): each sample is log p(z) - log q(z)
and its gradient is the path derivative alone, with the score term of q
dropped.  It is unbiased, and every sample is exactly zero when q = p, so
the ELBO noise vanishes as a fit reaches an exact optimum.  Targets are
plain callables mapping a batch of points to values and gradients of log p,
so anything differentiable can be fitted; a Gaussian-mixture target ships
as the built-in non-Gaussian test bed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .gaussian import (
    FactorizedGaussian,
    GaussianTarget,
    ShrinkageMatrix,
    _check_dimension,
    _check_seed,
    _real_array,
    fgvi_solve,
    shrinkage_matrix,
)

__all__ = [
    "MixtureTarget",
    "VariationalState",
    "OptimizerConfig",
    "DivergenceError",
    "ShrinkageComparison",
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
_LOG_TWO_PI = math.log(2.0 * math.pi)
# The ufunc reductions behind ndarray.sum and ndarray.max, called directly on
# the per-step path: same ufunc and axis, so the same bits, without the
# Python frame those methods pass through.
_add = np.add.reduce
_maximum = np.maximum.reduce
# A fit draws its noise in blocks of up to one window of steps and 2^17 values.
_NOISE_BLOCK_VALUES = 2**17
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
INIT_JITTER = 0.1
# A fit stops this many windows after its ELBO turned stationary.
STATIONARY_WINDOWS = 10


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array.  A ufunc call costs about a
    third less with one than with a Python float and, where every other
    operand is float64, gives the same bits; the per-step code holds its
    scalar operands this way."""
    constant = np.array(value, dtype=np.float64)
    constant.setflags(write=False)
    return constant


_HALF = _constant(0.5)
_BETA1, _BETA1_REST = _constant(ADAM_BETA1), _constant(1.0 - ADAM_BETA1)
_BETA2, _BETA2_REST = _constant(ADAM_BETA2), _constant(1.0 - ADAM_BETA2)
_EPSILON = _constant(ADAM_EPSILON)


class DivergenceError(RuntimeError):
    """The ELBO estimate or its gradient became non-finite during optimization."""

    def __init__(self, message: str, step: int, state: "VariationalState"):
        super().__init__(message)
        self.step = step
        self.state = state


@dataclass(frozen=True)
class MixtureTarget:
    """Gaussian mixture with shared spherical component covariance.

    ``weights`` must sum to one; ``means`` is (components, n); every
    component has covariance component_variance * I.  Both are own copies.
    """

    weights: np.ndarray
    means: np.ndarray
    component_variance: float

    def __post_init__(self):
        w = _real_array(self.weights, "weights", 1)
        m = _real_array(self.means, "means", 2)
        if m.shape[0] != w.size:
            raise ValueError(
                f"means must be (components, n) with one row per weight, got {m.shape}"
            )
        if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1 within 1e-12")
        if not 0.0 < self.component_variance < math.inf:
            raise ValueError(
                "component variance must be finite and positive, "
                f"got {self.component_variance!r}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)

    @property
    def n(self) -> int:
        return self.means.shape[1]

    @property
    def components(self) -> int:
        return self.means.shape[0]


def _check_batch(z: np.ndarray, n: int) -> None:
    """The one input check of both density closures: z is a batch (m, n)."""
    if z.ndim != 2 or z.shape[1] != n:
        raise ValueError(f"points must be a batch of shape (m, {n}), got {z.shape}")


def mixture_log_density_fn(target: MixtureTarget) -> LogDensityFn:
    """Batched (values, gradients) callable sharing one responsibility pass.

    log w_k + log N(z | mu_k, sigma^2 I) has its constant part, log w_k
    plus the normalizer, formed once here.
    """
    means, var, n = target.means, target.component_variance, target.n
    log_norm = -0.5 * n * (math.log(2.0 * math.pi) + math.log(var))
    log_weights = np.log(target.weights) + log_norm
    # The pull toward component k is mu_k - z = -diff; negating var
    # instead of the sum is exact.
    var, negative_var = _constant(var), _constant(-var)

    def fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _check_batch(z, n)
        diff = z[:, None, :] - means
        terms = log_weights - _HALF * _add(diff * diff, 2) / var
        top = _maximum(terms, 1)
        weights = np.exp(terms - top[:, None])
        total = _add(weights, 1)
        resp = weights / total[:, None]
        return top + np.log(total), _add(resp[:, :, None] * diff, 1) / negative_var

    return fn


def gaussian_log_density_fn(target: GaussianTarget) -> LogDensityFn:
    """Batched (values, gradients) callable for a dense Gaussian target.

    Builds the target's whitening matrix W, with W Sigma W^T = I, once and
    keeps it; a call is then half = (z - mean) W^T, log p from the squared
    norm of half, and the gradient -Sigma^-1 (z - mean) = -half W.
    """
    whiten, n = target.whitening(), target.n
    norm = _constant(-0.5 * (n * _LOG_TWO_PI + target.log_det_covariance))
    mean, whiten_t = target.mean, whiten.T

    # np.dot costs less per call than @ and makes the same BLAS call on the
    # 2-D batches _check_batch allows, so gives the same bits.  A batch with
    # a leading chain axis must go back to @: np.dot on 3-D is not BLAS.
    def fn(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _check_batch(z, n)
        half = np.dot(z - mean, whiten_t)
        return norm - _HALF * _add(half * half, 1), np.dot(-half, whiten)

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
    rng = np.random.default_rng(_check_seed(seed))
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
    """Settings of the stochastic ELBO ascent, with its own copy of ``init_mean``.
    Defaults are the recorded ones; Adam's decays and guard are ADAM_*.

    A fit stops at ``max_steps`` or at a ``window`` boundary: when two
    window means of the ELBO, and two standard errors of their difference,
    are within ``tolerance`` relative, or STATIONARY_WINDOWS windows after
    the means first agreed within two standard errors (see fit_fgvi).

    Both rules read window means, whose standard error is set by the
    window * mc_samples = 2,000 samples they average.  A step's cost is
    mostly fixed numpy overhead, so 20 samples over 100-step windows stop
    in half the steps of 10 over 200 at the same accuracy.  Worst relative
    variance error against fgvi_solve (median / p90 / max) and median
    steps to stop, seeds 0-39 of the eps = 0.5 Gaussian:

        n   mc_samples x window   error                       steps
        5   10 x 200              0.0040 / 0.0063 / 0.0093    2400
        5   20 x 100              0.0039 / 0.0061 / 0.0094    1200
        20  10 x 200              0.0030 / 0.0037 / 0.0057    2600
        20  20 x 100              0.0029 / 0.0038 / 0.0060    1300
    """

    learning_rate: float = 0.01
    mc_samples: int = 20
    max_steps: int = 20000
    tolerance: float = 1e-4
    window: int = 100
    init_mean: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("mc_samples", "max_steps", "window"):
            _check_dimension(getattr(self, name), name)
        if not (0.0 < self.learning_rate < math.inf and self.tolerance >= 0.0):
            raise ValueError("learning_rate must be finite and positive, tolerance non-negative")
        _check_seed(self.seed)
        if self.init_mean is not None:
            object.__setattr__(self, "init_mean", _real_array(self.init_mean, "init_mean", 1))


@dataclass(frozen=True)
class VariationalState:
    """Snapshot of a factorized Gaussian fit, with own copies of ``mean`` and
    ``log_std``: real vectors of equal length.  They may hold inf or nan: a
    step that overflows a parameter leaves it so in the state that the
    next step's DivergenceError carries.

    ``elbo_trace`` holds (step, estimate) pairs with steps strictly
    increasing, one entry per optimization step taken.  ``stop_reason``
    says why :func:`fit_fgvi` stopped: "tolerance", "stationary" or
    "max_steps", or "diverged" for the state a DivergenceError carries; it
    is None for a state built by hand.
    """

    mean: np.ndarray
    log_std: np.ndarray
    step_count: int
    elbo_trace: tuple[tuple[int, float], ...]
    stop_reason: str | None = None

    def __post_init__(self):
        mean = _real_array(self.mean, "mean", 1, finite=False)
        log_std = _real_array(self.log_std, "log_std", 1, finite=False)
        if mean.size != log_std.size:
            raise ValueError(
                f"mean and log_std must be vectors of equal length >= 1, "
                f"got shapes {mean.shape} and {log_std.shape}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)

    @property
    def n(self) -> int:
        return self.mean.size

    @property
    def variances(self) -> np.ndarray:
        return np.exp(2.0 * self.log_std)

    def as_factorized(self) -> FactorizedGaussian:
        return FactorizedGaussian(mean=self.mean, variances=self.variances)


def _elbo_terms(
    log_density: LogDensityFn,
    mean: np.ndarray,
    log_std: np.ndarray,
    noise: np.ndarray,
    half_norms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, log p(z) + |u|^2 / 2, which sum(log_std) + n/2 log(2 pi)
    completes to the ELBO sample log p(z) - log q(z), and the (m, 2n)
    gradient, mean part first; ``half_norms`` holds |u|^2 / 2 per row u."""
    scale = np.exp(log_std)
    offsets = scale * noise
    values, grads = log_density(mean + offsets)
    path = grads + noise / scale
    return values + half_norms, np.concatenate((path, path * offsets), axis=1)


def elbo_sample_terms(
    log_density: LogDensityFn,
    mean: np.ndarray,
    log_std: np.ndarray,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample ELBO values and parameter gradients at fixed noise.

    The sticking-the-landing estimator: for z = mean + sigma * u, with
    sigma = exp(log_std), each sample is log p(z) - log q(z), where
    log q(z) = -sum(log_std) - n/2 log(2 pi) - |u|^2 / 2, and the gradients
    are the path derivatives of log p(z) - log q(z) with q's parameters
    held fixed inside log q:

        d/d mean    = g,  g = grad log p(z) + u / sigma
        d/d log_std = g * sigma * u

    The dropped score term has zero mean, so the averages over the sample
    axis are unbiased for the ELBO and its gradient; at q = p every sample
    of all three is zero, whatever u is.  Returns (elbo_samples,
    grad_mean_samples, grad_log_std_samples).
    """
    half_norms = 0.5 * _add(noise * noise, -1)
    values, gradients = _elbo_terms(log_density, mean, log_std, noise, half_norms)
    n = mean.size
    # -log q(z) - |u|^2 / 2 = sum(log_std) + n/2 log(2 pi)
    offset = float(_add(log_std)) + 0.5 * n * _LOG_TWO_PI
    return values + offset, gradients[:, :n], gradients[:, n:]


def _window_stop(
    current: tuple[float, float],
    previous: tuple[float, float],
    step: int,
    stationary_since: int | None,
    config: OptimizerConfig,
) -> tuple[str | None, int | None]:
    """The stop decision of :func:`fit_fgvi` at a window boundary.

    ``current`` and ``previous`` are the (mean, sample variance) of the
    per-step ELBO estimates in the window ending at ``step`` and in the one
    before it; ``stationary_since`` is the step of the stationarity mark,
    if set.  Returns (the stop reason or None, the mark).
    """
    change = abs(current[0] - previous[0])
    two_errors = 2.0 * math.sqrt((current[1] + previous[1]) / config.window)
    if max(change, two_errors) <= config.tolerance * max(1.0, abs(previous[0])):
        return "tolerance", stationary_since
    if stationary_since is None and change <= two_errors:
        stationary_since = step
    horizon = STATIONARY_WINDOWS * config.window
    if stationary_since is not None and step - stationary_since >= horizon:
        return "stationary", stationary_since
    return None, stationary_since


def fit_fgvi(log_density: LogDensityFn, n: int, config: OptimizerConfig | None = None) -> VariationalState:
    """Fit a factorized Gaussian to a log-density by stochastic ELBO ascent.

    ``log_density`` maps a batch (m, n) to (values (m,), gradients (m, n))
    and must be finite at the initialization point.  The mean starts at
    ``config.init_mean`` when given, otherwise at a seeded
    N(0, INIT_JITTER^2) perturbation of the origin; log_std starts at zero.
    Multimodal targets need an initial mean inside a mode's basin of
    attraction (see :func:`mixture_init_mean`); a small perturbation of the
    origin reliably stalls on a broad symmetric solution instead of
    collapsing.
    Each step averages ``mc_samples`` sticking-the-landing samples (see
    :func:`elbo_sample_terms`), whose noise shrinks to zero as q nears p.
    Every ``window`` steps the mean m_k and sample variance v_k of the
    window's ELBO estimates are compared with the previous window's.  With
    lim = tolerance * max(1, |m_{k-1}|) and SE = sqrt((v_k + v_{k-1}) /
    window), the standard error of m_k - m_{k-1}, the fit stops on the
    first of two rules, or at ``max_steps``:

    - tolerance: |m_k - m_{k-1}| <= lim and 2 SE <= lim.  Where q can
      match p the noise vanishes and this fires first; the SE guard keeps
      noisy means that agree by chance from firing it.
    - stationary: STATIONARY_WINDOWS windows (1000 steps by default) after
      the mark, the first boundary with |m_k - m_{k-1}| <= 2 SE.  Where q
      cannot match p, as for a correlated Gaussian, this ends the fit.

    ``stop_reason`` on the result names the rule that fired.  The noise is
    drawn one window at a time (in smaller blocks when a window would
    exceed 2^17 values), as one (steps, mc_samples, n) array from the
    seeded generator; that is the same stream, value for value, as one
    (mc_samples, n) draw per step.

    A constant-step stochastic optimizer never sits still: it hovers around
    the optimum with jitter set by the step size and gradient noise.  The
    returned parameters are a uniform (Polyak-Ruppert) average of the
    iterates, restarted at each window until the mark is set: it covers
    the window that set the mark and every step since, or the last window
    without a mark.  The path and the ELBO trace stay raw.  Ten windows is
    measured, at 10 samples over 200-step windows: over seeds 0-39 of the
    eps = 0.5, n = 5 Gaussian the worst relative variance error was 0.0040
    in the median and 0.0093 at most, against 0.0046 and 0.0125 with
    eight.  OptimizerConfig holds the figures at the defaults.

    Raises:
        DivergenceError: the ELBO estimate or its gradient became
            non-finite; the error carries the failing step and the state at
            that step.
    """
    if config is None:
        config = OptimizerConfig()
    _check_dimension(n)

    rng = np.random.default_rng(config.seed)
    init_mean = config.init_mean
    if init_mean is None:
        init_mean = INIT_JITTER * rng.standard_normal(n)
    elif init_mean.shape != (n,):
        raise ValueError(f"init_mean must be a vector of length {n}, got shape {init_mean.shape}")
    # mean and log_std (starting at zero) are views of one parameter vector.
    params = np.concatenate([init_mean, np.zeros(n)])
    mean, log_std = params[:n], params[n:]

    samples, window, max_steps = config.mc_samples, config.window, config.max_steps
    learning_rate, sample_count = _constant(float(config.learning_rate)), _constant(samples)
    log_q_constant = 0.5 * n * _LOG_TWO_PI
    block = max(1, min(window, _NOISE_BLOCK_VALUES // (samples * n)))
    first_moment, second_moment, total = np.zeros((3, 2 * n))
    elbo_values: list[float] = []
    previous: tuple[float, float] | None = None
    stationary_since: int | None = None
    stop_reason = "max_steps"

    # Overflow and a scale that underflows to zero are detected failure
    # modes, not warning conditions: the finiteness checks below turn them
    # into ValueError at the initialization point and DivergenceError after.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        init_values, _ = log_density(mean[None, :])
        if not np.all(np.isfinite(init_values)):
            raise ValueError("log-density is not finite at the initialization point")
        for step in range(1, max_steps + 1):
            if stationary_since is None and (step - 1) % window == 0:
                total[:], average_from = 0.0, step
            offset = (step - 1) % block
            if offset == 0:
                noise = rng.standard_normal((min(block, max_steps - step + 1), samples, n))
                half_norms = 0.5 * _add(noise * noise, -1)
            values, gradients = _elbo_terms(
                log_density, mean, log_std, noise[offset], half_norms[offset]
            )
            elbo = float(_add(values)) / samples + (float(_add(log_std)) + log_q_constant)
            gradient = _add(gradients, 0) / sample_count
            # A scale that underflows leaves the ELBO finite but the path
            # gradient, through u / sigma, infinite.
            if not (math.isfinite(elbo) and math.isfinite(_add(gradient))):
                trace = tuple(zip(range(1, step), elbo_values))
                state = VariationalState(mean, log_std, step, trace, "diverged")
                raise DivergenceError(
                    f"ELBO or its gradient became non-finite at step {step}", step, state
                )
            elbo_values.append(elbo)

            first_moment = _BETA1 * first_moment + _BETA1_REST * gradient
            second_moment = _BETA2 * second_moment + _BETA2_REST * (gradient * gradient)
            hat_first = first_moment / (1.0 - ADAM_BETA1**step)
            hat_second = second_moment / (1.0 - ADAM_BETA2**step)
            params += learning_rate * hat_first / (np.sqrt(hat_second) + _EPSILON)
            total += params

            if step % window == 0:
                window_values = np.array(elbo_values[step - window :])
                current = (
                    float(window_values.sum() / window),
                    float(window_values.var(ddof=1)) if window > 1 else 0.0,
                )
                if previous is not None:
                    reason, stationary_since = _window_stop(
                        current, previous, step, stationary_since, config
                    )
                    if reason is not None:
                        stop_reason = reason
                        break
                previous = current

    averaged = total / (step - average_from + 1)
    trace = tuple(zip(range(1, step + 1), elbo_values))
    return VariationalState(averaged[:n], averaged[n:], step, trace, stop_reason)


class ShrinkageComparison(NamedTuple):
    S: ShrinkageMatrix
    S_G: ShrinkageMatrix
    trace_S: float
    trace_S_G: float
    moments: GaussianTarget


def shrinkage_comparison(target: MixtureTarget, fitted: VariationalState) -> ShrinkageComparison:
    """Shrinkage of a stochastic fit against the moment-matched dense
    Gaussian baseline.

    S compares the fitted variances to the true mixture marginals; S_G is
    the shrinkage the best factorized Gaussian would incur against the
    Gaussian with the mixture's own moments.  On well-separated mixtures
    the fit collapses onto one component, so trace(S) far exceeds
    trace(S_G).  ``fitted`` should be the state of a completed fit.
    ``moments`` is the mixture's moment-matched target, built once here.
    """
    moments = mixture_moments(target)
    s = shrinkage_matrix(moments, fitted.as_factorized())
    s_gaussian = shrinkage_matrix(moments, fgvi_solve(moments))
    return ShrinkageComparison(
        S=s, S_G=s_gaussian, trace_S=s.trace, trace_S_G=s_gaussian.trace, moments=moments
    )


def max_entropy_gap_bound(target_cov: GaussianTarget, fitted: VariationalState) -> float:
    """Entropy gap of a fit against the maximum-entropy Gaussian with the
    target's covariance: (log|Sigma| - sum(2 * log_std)) / 2.

    Because the Gaussian maximizes entropy at fixed covariance, this is an
    upper bound on the entropy deficit H(p) - H(q) of the fit against any
    density p with those second moments.  Equals the exact entropy gap when
    ``fitted`` carries the closed-form variances for ``target_cov``.
    """
    if fitted.n != target_cov.n:
        raise ValueError(
            f"dimension mismatch: target has n={target_cov.n}, fit has n={fitted.n}"
        )
    return 0.5 * (target_cov.log_det_covariance - 2.0 * float(np.sum(fitted.log_std)))
