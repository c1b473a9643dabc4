"""Stochastic ELBO ascent: estimator correctness, recovery, mode collapse."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg, special, stats

from fgvi import engine
from fgvi.engine import (
    DivergenceError,
    MixtureTarget,
    OptimizerConfig,
    VariationalState,
    elbo_sample_terms,
    fit_fgvi,
    gaussian_log_density_fn,
    max_entropy_gap_bound,
    mixture_init_mean,
    mixture_log_density_fn,
    mixture_moments,
    shrinkage_comparison,
)
from fgvi.gaussian import GaussianTarget, decompose, fgvi_solve
from fgvi.generators import (
    ConstantOffDiagConfig,
    KernelConfig,
    constant_offdiag_target,
    random_correlation_matrix,
    squared_exponential_target,
)

from conftest import random_spd_target
from oracles import reference_gaussian_density_fn, reference_mixture_density_fn


def _default_mixture(separation=10.0, n=2):
    means = np.zeros((2, n))
    means[0, 0] = -separation / 2.0
    means[1, 0] = separation / 2.0
    return MixtureTarget(
        weights=np.array([0.5, 0.5]), means=means, component_variance=1.0
    )


@pytest.fixture(scope="module")
def collapse_fit():
    target = _default_mixture()
    config = OptimizerConfig(seed=0, init_mean=mixture_init_mean(target, 0))
    return target, fit_fgvi(mixture_log_density_fn(target), 2, config)


@pytest.fixture(scope="module")
def single_component_fit():
    target = MixtureTarget(
        weights=np.array([1.0]),
        means=np.array([[1.0, -2.0]]),
        component_variance=1.0,
    )
    config = OptimizerConfig(seed=1, init_mean=mixture_init_mean(target, 1))
    return target, fit_fgvi(mixture_log_density_fn(target), 2, config)


# -------------------------------------------------------------- mixtures


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureTarget(
            weights=np.array([0.6, 0.5]), means=np.zeros((2, 3)), component_variance=1.0
        )
    with pytest.raises(ValueError):
        MixtureTarget(
            weights=np.array([1.0, 0.0]), means=np.zeros((2, 3)), component_variance=1.0
        )
    for variance in (0.0, -1.0, math.inf, 1e200 * 1e200, math.nan):
        with pytest.raises(ValueError, match="component variance must be finite and positive"):
            MixtureTarget(
                weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), component_variance=variance
            )
    with pytest.raises(ValueError):
        MixtureTarget(
            weights=np.array([0.5, 0.5]), means=np.zeros(3), component_variance=1.0
        )


def _standard_normal_density(z):
    return -0.5 * (z * z).sum(axis=1), -z


# Each refusal of the module that no other test reaches, and the one
# dimension rule of every entry point that takes n: (call, type, message).
_REFUSALS = {
    "weights matrix": (
        lambda: MixtureTarget(np.full((2, 1), 0.5), np.zeros((2, 2)), 1.0),
        ValueError,
        "weights must be a vector of length >= 1, got shape (2, 1)",
    ),
    "weights nan": (
        lambda: MixtureTarget(np.array([np.nan, 0.5]), np.zeros((2, 2)), 1.0),
        ValueError,
        "weights must be finite",
    ),
    "means infinite": (
        lambda: MixtureTarget(np.array([0.5, 0.5]), np.array([[np.inf], [0.0]]), 1.0),
        ValueError,
        "means must be finite",
    ),
    "n = 0 in KernelConfig": (
        lambda: KernelConfig(n=0, rho=1.0, seed=0),
        ValueError,
        "n must be a positive integer, got 0",
    ),
    "n = 0 in ConstantOffDiagConfig": (
        lambda: ConstantOffDiagConfig(n=0, eps=0.5),
        ValueError,
        "n must be a positive integer, got 0",
    ),
    "n = 0 in random_correlation_matrix": (
        lambda: random_correlation_matrix(0, 0),
        ValueError,
        "n must be a positive integer, got 0",
    ),
    "means with no coordinates": (
        lambda: MixtureTarget(np.full(2, 0.5), np.zeros((2, 0)), 1.0),
        ValueError,
        "means must be a matrix with no empty axis, got shape (2, 0)",
    ),
    "mc_samples = 1.5": (
        lambda: OptimizerConfig(mc_samples=1.5),
        ValueError,
        "mc_samples must be a positive integer, got 1.5",
    ),
    "window = 2.5": (
        lambda: OptimizerConfig(window=2.5),
        ValueError,
        "window must be a positive integer, got 2.5",
    ),
    "max_steps = 10.5": (
        lambda: OptimizerConfig(max_steps=10.5),
        ValueError,
        "max_steps must be a positive integer, got 10.5",
    ),
    "n = 0 in fit_fgvi": (
        lambda: fit_fgvi(_standard_normal_density, 0),
        ValueError,
        "n must be a positive integer, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_single_component_density_matches_scipy():
    target = MixtureTarget(
        weights=np.array([1.0]),
        means=np.array([[0.5, -1.0, 2.0]]),
        component_variance=1.7,
    )
    rng = np.random.default_rng(2)
    points = rng.normal(size=(20, 3))
    expected = stats.multivariate_normal(
        mean=target.means[0], cov=1.7 * np.eye(3)
    ).logpdf(points)
    values, _ = mixture_log_density_fn(target)(points)
    assert np.allclose(values, expected, rtol=1e-12)


def test_midpoint_of_symmetric_mixture():
    target = _default_mixture(separation=6.0)
    midpoint = np.zeros(2)
    # both components contribute equally, so the weights cancel
    single = stats.multivariate_normal(mean=target.means[0], cov=np.eye(2)).logpdf(
        midpoint
    )
    values, _ = mixture_log_density_fn(target)(midpoint[None, :])
    assert values[0] == pytest.approx(single, rel=1e-12)


def test_density_batch_matches_single_point():
    three = MixtureTarget(
        weights=np.array([0.3, 0.45, 0.25]),
        means=np.array([[-4.0, 0.0, 1.0], [1.0, 1.0, 0.0], [5.0, -3.0, 2.0]]),
        component_variance=0.8,
    )
    rng = np.random.default_rng(3)
    for target in (_default_mixture(), three):
        batch = rng.normal(scale=4.0, size=(10, target.n))
        # Reference: per-component scipy densities, logsumexp, and the
        # gradient sum_k r_k (mu_k - z) / sigma^2 from the responsibilities.
        cov = target.component_variance * np.eye(target.n)
        terms = np.stack(
            [
                math.log(w) + stats.multivariate_normal(mean=mu, cov=cov).logpdf(batch)
                for w, mu in zip(target.weights, target.means)
            ],
            axis=1,
        )
        expected = special.logsumexp(terms, axis=1)
        resp = np.exp(terms - expected[:, None])
        expected_grads = np.stack(
            [
                sum(r_k * (mu_k - z) for r_k, mu_k in zip(r, target.means))
                / target.component_variance
                for r, z in zip(resp, batch)
            ]
        )
        density = mixture_log_density_fn(target)
        values, grads = density(batch)
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)
        assert np.allclose(grads, expected_grads, rtol=1e-12, atol=1e-12)
        for i, z in enumerate(batch):
            value, grad = density(z[None, :])
            assert value[0] == pytest.approx(expected[i], rel=1e-12)
            assert np.allclose(grad[0], expected_grads[i], rtol=1e-12, atol=1e-12)


def test_gradient_matches_finite_differences():
    target = MixtureTarget(
        weights=np.array([0.3, 0.45, 0.25]),
        means=np.array([[-4.0, 0.0], [1.0, 1.0], [5.0, -3.0]]),
        component_variance=0.8,
    )
    density = mixture_log_density_fn(target)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(100):
        z = rng.normal(scale=3.0, size=2)
        # Rows: z, then z + h e_i for each i, then z - h e_i for each i.
        values, grads = density(np.vstack([z, z + h * np.eye(2), z - h * np.eye(2)]))
        numeric = (values[1:3] - values[3:5]) / (2 * h)
        for i in range(2):
            assert grads[0, i] == pytest.approx(numeric[i], rel=1e-5, abs=1e-8)


def test_density_closures_refuse_batches_of_another_dimension():
    # A (4, 1) batch would broadcast against n >= 2 and yield (4, n) values
    # for points that do not exist.
    gaussian = gaussian_log_density_fn(random_spd_target(3, np.random.default_rng(5)))
    mixture = mixture_log_density_fn(_default_mixture())
    for density, n in ((gaussian, 3), (mixture, 2)):
        density(np.zeros((4, n)))
        for shape in ((4, 1), (4, n + 1), (n,), (1, 1, n)):
            with pytest.raises(ValueError, match=rf"batch of shape \(m, {n}\)"):
                density(np.zeros(shape))


def test_moments_single_component():
    target = MixtureTarget(
        weights=np.array([1.0]), means=np.array([[2.0, 0.0]]), component_variance=3.0
    )
    moments = mixture_moments(target)
    assert np.array_equal(moments.mean, [2.0, 0.0])
    assert np.array_equal(moments.covariance, 3.0 * np.eye(2))


def test_moments_two_symmetric_components():
    moments = mixture_moments(_default_mixture(separation=10.0))
    assert np.allclose(moments.mean, 0.0, atol=1e-12)
    assert np.allclose(moments.covariance, np.diag([26.0, 1.0]), atol=1e-12)


def test_init_mean_lands_near_a_component():
    target = _default_mixture()
    for seed in range(6):
        init = mixture_init_mean(target, seed)
        again = mixture_init_mean(target, seed)
        assert np.array_equal(init, again)
        distances = np.linalg.norm(target.means - init[None, :], axis=1)
        assert np.min(distances) < 6.0


# ------------------------------------------------------------- estimator


def test_elbo_terms_at_zero_noise():
    target = GaussianTarget(mean=np.zeros(3), covariance=np.eye(3))
    density = gaussian_log_density_fn(target)
    elbo, grad_mean, grad_log_std = elbo_sample_terms(
        density, np.zeros(3), np.zeros(3), np.zeros((1, 3))
    )
    # q = p: log p(0) - log q(0) = 0, and the path gradient vanishes.
    assert elbo[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad_mean, 0.0, atol=1e-12)
    assert np.allclose(grad_log_std, 0.0, atol=1e-12)

    # At q = p every sample is zero, whatever the noise.
    mean, variances = np.array([1.0, -2.0, 0.5]), np.array([4.0, 0.25, 9.0])
    density = gaussian_log_density_fn(GaussianTarget(mean=mean, covariance=np.diag(variances)))
    noise = np.random.default_rng(5).standard_normal((50, 3))
    elbo, grad_mean, grad_log_std = elbo_sample_terms(
        density, mean, 0.5 * np.log(variances), noise
    )
    assert np.max(np.abs(elbo)) <= 1e-12
    assert np.max(np.abs(grad_mean)) <= 1e-12
    assert np.max(np.abs(grad_log_std)) <= 1e-12


def _reference_sample_terms(target, mean, log_std, noise):
    """Sticking-the-landing terms for a mixture, written out per sample:
    log p by logsumexp over components, grad log p from the
    responsibilities, then the path gradient of log p - log q."""
    n = target.n
    sigma = np.exp(log_std)
    values, grad_mean, grad_log_std = [], [], []
    for u in noise:
        z = mean + sigma * u
        terms = np.array(
            [
                math.log(w)
                - 0.5 * n * math.log(2.0 * math.pi * target.component_variance)
                - 0.5 * float(np.sum((z - mu) ** 2)) / target.component_variance
                for w, mu in zip(target.weights, target.means)
            ]
        )
        log_p = special.logsumexp(terms)
        resp = np.exp(terms - log_p)
        grad_log_p = (resp @ (target.means - z)) / target.component_variance
        log_q = -float(np.sum(log_std)) - 0.5 * n * math.log(2.0 * math.pi) - 0.5 * float(u @ u)
        g = grad_log_p + u / sigma
        values.append(log_p - log_q)
        grad_mean.append(g)
        grad_log_std.append(g * sigma * u)
    return np.array(values), np.array(grad_mean), np.array(grad_log_std)


def test_elbo_terms_match_reference_on_mixtures():
    two = _default_mixture(separation=4.0, n=3)
    three = MixtureTarget(
        weights=np.array([0.3, 0.45, 0.25]),
        means=np.array([[-4.0, 0.0, 1.0], [1.0, 1.0, 0.0], [5.0, -3.0, 2.0]]),
        component_variance=0.8,
    )
    rng = np.random.default_rng(6)
    for target in (two, three):
        mean = rng.normal(scale=2.0, size=target.n)
        log_std = rng.normal(scale=0.5, size=target.n)
        noise = rng.standard_normal((40, target.n))
        got = elbo_sample_terms(mixture_log_density_fn(target), mean, log_std, noise)
        for value, expected in zip(got, _reference_sample_terms(target, mean, log_std, noise)):
            assert np.allclose(value, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 64),
    m=st.integers(1, 50),
    components=st.integers(1, 12),
    variance=st.floats(0.05, 20.0).filter(lambda v: v != 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_density_closures_match_reference_bit_for_bit(n, m, components, variance, seed):
    """Both closures give the reference closures' values and gradients bit
    for bit, both run with the same BLAS.  The gauss5 pin allows 1e-12 for
    a BLAS that rounds differently, so it cannot catch a rounding change."""
    rng = np.random.default_rng(seed)
    gaussian = random_spd_target(n, rng)
    weights = rng.uniform(0.1, 1.0, components)
    mixture = MixtureTarget(
        weights=weights / weights.sum(),
        means=rng.normal(0.0, 3.0, (components, n)),
        component_variance=variance,
    )
    z = rng.normal(0.0, 4.0, (m, n))
    for build, reference, target in (
        (gaussian_log_density_fn, reference_gaussian_density_fn, gaussian),
        (mixture_log_density_fn, reference_mixture_density_fn, mixture),
    ):
        for got, expected in zip(build(target)(z), reference(target)(z)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected), (build.__name__, n, m, components)


def test_gaussian_density_fn_matches_scipy():
    target = random_spd_target(4, np.random.default_rng(17))
    density = gaussian_log_density_fn(target)
    points = np.random.default_rng(18).normal(size=(12, 4))
    values, grads = density(points)
    expected = stats.multivariate_normal(
        mean=target.mean, cov=target.covariance
    ).logpdf(points)
    assert np.allclose(values, expected, rtol=1e-10)
    precision = np.linalg.inv(target.covariance)
    expected_grads = (target.mean[None, :] - points) @ precision
    assert np.allclose(grads, expected_grads, rtol=1e-9, atol=1e-12)

    # Ill-conditioned: against triangular solves with the covariance factor,
    # at points off the target and at points drawn from it, which load the
    # near-null directions.
    n = 12
    target = squared_exponential_target(KernelConfig(n=n, rho=40.0, seed=0))
    kappa = np.linalg.cond(target.covariance)
    assert 5e7 < kappa < 5e8
    tolerance = max(1e-9, n * kappa * 2.0**-52)
    lower = linalg.cholesky(target.covariance, lower=True)
    norm = -0.5 * (n * math.log(2.0 * math.pi) + 2.0 * np.sum(np.log(np.diag(lower))))
    noise = np.random.default_rng(19).normal(size=(n, n))
    density = gaussian_log_density_fn(target)
    for points in (noise, target.mean + noise @ lower.T):
        values, grads = density(points)
        half = linalg.solve_triangular(lower, (points - target.mean).T, lower=True)
        expected = norm - 0.5 * np.sum(half * half, axis=0)
        expected_grads = -linalg.solve_triangular(lower.T, half, lower=False).T
        assert np.all(np.abs(values - expected) <= tolerance * np.abs(expected))
        scale = np.max(np.abs(expected_grads), axis=1)
        assert np.all(np.max(np.abs(grads - expected_grads), axis=1) <= tolerance * scale)


def test_gradient_estimator_is_unbiased():
    """Sampled gradient mean within 3 standard errors of the exact one."""
    target = random_spd_target(3, np.random.default_rng(21))
    density = gaussian_log_density_fn(target)
    mean = target.mean + np.array([0.3, -0.2, 0.5])
    log_std = np.array([0.1, -0.3, 0.2])

    def exact_elbo(m, r):
        precision = np.linalg.inv(target.covariance)
        _, log_det_sigma = np.linalg.slogdet(target.covariance)
        delta = m - target.mean
        expected_log_p = -0.5 * (
            3 * math.log(2 * math.pi)
            + log_det_sigma
            + float(np.sum(np.diag(precision) * np.exp(2 * r)))
            + float(delta @ precision @ delta)
        )
        entropy = float(np.sum(r)) + 1.5 * (math.log(2 * math.pi) + 1.0)
        return expected_log_p + entropy

    h = 1e-5
    exact_grad = np.empty(6)
    for i in range(3):
        bump = np.zeros(3)
        bump[i] = h
        exact_grad[i] = (exact_elbo(mean + bump, log_std) - exact_elbo(mean - bump, log_std)) / (2 * h)
        exact_grad[3 + i] = (exact_elbo(mean, log_std + bump) - exact_elbo(mean, log_std - bump)) / (2 * h)

    samples = 100_000
    noise = np.random.default_rng(99).standard_normal((samples, 3))
    _, grad_mean, grad_log_std = elbo_sample_terms(density, mean, log_std, noise)
    stacked = np.hstack([grad_mean, grad_log_std])
    mc_mean = np.mean(stacked, axis=0)
    standard_error = np.std(stacked, axis=0, ddof=1) / math.sqrt(samples)
    assert np.all(np.abs(mc_mean - exact_grad) <= 3.0 * standard_error)


# ------------------------------------------------------------------ fits


@pytest.fixture(scope="module")
def standard_normal_fits():
    """Default-settings fits of the 3-d standard normal at seeds 0-4."""
    target = GaussianTarget(mean=np.zeros(3), covariance=np.eye(3))
    density = gaussian_log_density_fn(target)
    return [fit_fgvi(density, 3, OptimizerConfig(seed=seed)) for seed in range(5)]


def test_standard_normal_recovery(standard_normal_fits):
    for state in standard_normal_fits:
        assert np.all(np.abs(state.variances - 1.0) < 0.05)
        assert np.all(np.abs(state.mean) < 0.05)


def test_fits_stop_on_the_tolerance_test(standard_normal_fits):
    """Where q can match p the estimator's noise vanishes, so default fits
    stop on the window test, within a tenth of max_steps: the standard
    normal (to 1e-3 in every variance) and the criterion-9 mixture."""
    limit = OptimizerConfig().max_steps // 10
    for state in standard_normal_fits:
        assert state.step_count <= limit
        assert state.stop_reason == "tolerance"
        assert np.max(np.abs(state.variances - 1.0)) <= 1e-3
    target = _default_mixture()
    density = mixture_log_density_fn(target)
    for seed in range(5):
        config = OptimizerConfig(seed=seed, init_mean=mixture_init_mean(target, seed))
        state = fit_fgvi(density, 2, config)
        assert state.step_count <= limit
        assert state.stop_reason == "tolerance"


def test_correlated_fits_stop_when_stationary(correlated_fits):
    """Where q cannot match p the ELBO noise stays, so the SE-guarded
    tolerance test never fires; the stationary rule ends those fits well
    before the cap."""
    _, states = correlated_fits
    target = constant_offdiag_target(ConstantOffDiagConfig(n=20, eps=0.5))
    density = gaussian_log_density_fn(target)
    states = states + [fit_fgvi(density, 20, OptimizerConfig(seed=seed)) for seed in range(3)]
    for state in states:
        assert state.step_count < OptimizerConfig().max_steps // 6
        assert state.stop_reason == "stationary"


def _drive_stop(windows, config):
    """Feed (mean, variance) windows to the stop helper boundary by
    boundary; (stop reason, step, stationarity mark) where it stops, or
    (None, last step, mark) if it never does."""
    previous, mark, step = windows[0], None, config.window
    for current in windows[1:]:
        step += config.window
        reason, mark = engine._window_stop(current, previous, step, mark, config)
        if reason is not None:
            return reason, step, mark
        previous = current
    return None, step, mark


def test_stop_helper_ignores_a_trend():
    """A trend of 5 standard errors per window is never taken for noise."""
    config = OptimizerConfig()
    standard_error = math.sqrt(2.0 / config.window)
    windows = [(-100.0 + 5.0 * standard_error * k, 1.0) for k in range(400)]
    assert _drive_stop(windows, config) == (None, 400 * config.window, None)


@pytest.mark.parametrize("window", [20, 50, 200])
def test_stop_helper_stops_ten_windows_after_flat_noise(window):
    """Means that wobble by half a standard error mark the ELBO stationary
    at the first comparison, and the fit stops STATIONARY_WINDOWS windows
    on."""
    config = OptimizerConfig(window=window)
    standard_error = math.sqrt(2.0 / window)
    windows = [(-3.0 + 0.5 * standard_error * (k % 2), 1.0) for k in range(100)]
    assert engine.STATIONARY_WINDOWS == 10
    assert _drive_stop(windows, config) == ("stationary", 12 * window, 2 * window)


def test_stop_helper_needs_a_small_standard_error():
    """Window means that agree within the tolerance while two standard
    errors of their difference exceed it set the mark and do not stop the
    fit; the stationary rule ends it instead."""
    config = OptimizerConfig()
    noisy = (-3.0, 1.0)  # 2 SE = 2 sqrt(2 / window), against a limit of 3e-4
    second = 2 * config.window
    assert engine._window_stop(noisy, noisy, second, None, config) == (None, second)
    assert _drive_stop([noisy] * 100, config) == ("stationary", 12 * config.window, second)


def test_stop_helper_tolerance_test_wins():
    config = OptimizerConfig()
    flat = (-3.0, 1e-6)  # 2 SE = 2 sqrt(2e-6 / window), within the limit of 3e-4
    # Both rules would fire: the mark is a horizon old and the means agree.
    assert engine._window_stop(flat, flat, 5000, 400, config) == ("tolerance", 400)
    # At the first comparison, the tolerance test fires before any mark.
    assert engine._window_stop(flat, flat, 400, None, config) == ("tolerance", None)


def _replica_fit(density, n, config):
    """Every iterate of the fit, by a plain Adam loop drawing the same noise
    one step at a time, with the stationarity mark and the stop reason."""
    rng = np.random.default_rng(config.seed)
    params = np.concatenate([config.init_mean, np.zeros(n)])
    first_moment, second_moment = np.zeros((2, 2 * n))
    iterates, elbos, previous, mark = [], [], None, None
    for step in range(1, config.max_steps + 1):
        noise = rng.standard_normal((config.mc_samples, n))
        elbo, grad_mean, grad_log_std = elbo_sample_terms(density, params[:n], params[n:], noise)
        gradient = np.hstack([grad_mean, grad_log_std]).mean(axis=0)
        elbos.append(elbo.mean())
        first_moment = engine.ADAM_BETA1 * first_moment + (1.0 - engine.ADAM_BETA1) * gradient
        second_moment = engine.ADAM_BETA2 * second_moment + (1.0 - engine.ADAM_BETA2) * gradient**2
        hat_first = first_moment / (1.0 - engine.ADAM_BETA1**step)
        hat_second = second_moment / (1.0 - engine.ADAM_BETA2**step)
        params = params + config.learning_rate * hat_first / (
            np.sqrt(hat_second) + engine.ADAM_EPSILON
        )
        iterates.append(params)
        if step % config.window == 0:
            values = np.array(elbos[-config.window:])
            current = (values.mean(), values.var(ddof=1))
            if previous is not None:
                reason, mark = engine._window_stop(current, previous, step, mark, config)
                if reason is not None:
                    return np.array(iterates), mark, reason
            previous = current
    return np.array(iterates), mark, "max_steps"


def test_returned_parameters_are_the_uniform_mean_since_the_mark():
    density, n, _ = _pinned_cases()["gauss5"]
    config = OptimizerConfig(seed=3, window=20, max_steps=1000, init_mean=np.full(n, 0.5))
    iterates, mark, reason = _replica_fit(density, n, config)
    state = fit_fgvi(density, n, config)
    assert (state.stop_reason, reason) == ("stationary", "stationary")
    assert state.step_count == len(iterates) == mark + 10 * config.window
    # The window that set the mark and every iterate after it.
    expected = iterates[mark - config.window:].mean(axis=0)
    assert np.allclose(state.mean, expected[:n], rtol=0.0, atol=1e-12)
    assert np.allclose(state.log_std, expected[n:], rtol=0.0, atol=1e-12)


def test_cap_on_a_window_boundary_without_a_mark_returns_the_last_window():
    """A fit still climbing at the cap has no mark; it returns the mean of
    its last window's iterates, and the average raises no warning."""
    density, n, _ = _pinned_cases()["gauss5"]
    config = OptimizerConfig(seed=0, window=50, max_steps=200, init_mean=np.full(n, 5.0))
    iterates, mark, reason = _replica_fit(density, n, config)
    assert (mark, reason) == (None, "max_steps")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = fit_fgvi(density, n, config)
    assert state.stop_reason == "max_steps"
    expected = iterates[-config.window:].mean(axis=0)
    assert np.allclose(state.mean, expected[:n], rtol=0.0, atol=1e-12)
    assert np.allclose(state.log_std, expected[n:], rtol=0.0, atol=1e-12)


def test_stop_reason_names_the_cap_and_single_step_windows():
    """The pinned Gaussian path runs to its cap; one-step windows take the
    variance as 0 and raise no warning."""
    density, n, _ = _pinned_cases()["gauss5"]
    assert fit_fgvi(density, n, OptimizerConfig(seed=0, max_steps=600)).stop_reason == "max_steps"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = fit_fgvi(density, n, OptimizerConfig(seed=0, max_steps=50, window=1))
    assert state.stop_reason in ("tolerance", "stationary", "max_steps")


def test_correlated_recovery_within_five_percent(correlated_fits):
    target, states = correlated_fits
    oracle = fgvi_solve(target).variances
    for state in states:
        relative = np.abs(state.variances - oracle) / oracle
        assert np.max(relative) < 0.05
        assert np.all(np.abs(state.mean) < 0.05)


def test_default_fits_keep_their_forty_seed_accuracy():
    """Default fits of the eps = 0.5, n = 5 Gaussian at seeds 0-39 all stop
    "stationary", and the worst relative variance error of a fit is at
    most 0.0042 in the median and 0.0066 at the 90th percentile: 5% above
    the 0.0040 and 0.0063 of 10 samples over 200-step windows, which
    draw as many samples per window in twice the steps."""
    target = constant_offdiag_target(ConstantOffDiagConfig(n=5, eps=0.5))
    density, oracle = gaussian_log_density_fn(target), fgvi_solve(target).variances
    errors = []
    for seed in range(40):
        state = fit_fgvi(density, 5, OptimizerConfig(seed=seed))
        assert state.stop_reason == "stationary", seed
        errors.append(np.max(np.abs(state.variances - oracle) / oracle))
    assert np.median(errors) <= 0.0042
    assert np.percentile(errors, 90) <= 0.0066


def test_elbo_trace_window_means_nondecreasing(correlated_fits):
    _, states = correlated_fits
    window = OptimizerConfig().window
    for state in states:
        values = np.array([value for _, value in state.elbo_trace])
        blocks = values[: values.size - values.size % window].reshape(-1, window)
        means = blocks.mean(axis=1)
        stds = blocks.std(axis=1)
        start = 3 * means.size // 4
        for j in range(max(start, 1), means.size):
            assert means[j] >= means[j - 1] - stds[j - 1]


def test_trace_steps_strictly_increasing(correlated_fits):
    _, states = correlated_fits
    for state in states:
        steps = [step for step, _ in state.elbo_trace]
        assert steps == list(range(1, len(steps) + 1))
        assert state.step_count == len(steps)


def test_fit_is_deterministic():
    target = GaussianTarget(mean=np.zeros(2), covariance=np.eye(2))
    density = gaussian_log_density_fn(target)
    config = OptimizerConfig(seed=7, max_steps=500)
    first = fit_fgvi(density, 2, config)
    second = fit_fgvi(density, 2, config)
    assert np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.log_std, second.log_std)
    assert first.elbo_trace == second.elbo_trace


def _spread_mixture(components, n):
    """Overlapping components, weights 1..K normalized, sigma^2 = 1.7: every
    component carries responsibility, so every term of the component-axis
    sums reaches the fit."""
    rng = np.random.default_rng(components)
    weights = np.arange(1.0, components + 1.0)
    return MixtureTarget(
        weights=weights / weights.sum(),
        means=1.5 * rng.standard_normal((components, n)),
        component_variance=1.7,
    )


def _pinned_cases():
    """(density, n, init_mean) for the five pinned fit paths."""
    gaussian = constant_offdiag_target(ConstantOffDiagConfig(n=5, eps=0.5))
    cases = {"gauss5": (gaussian_log_density_fn(gaussian), 5, None)}
    targets = {
        "mix2": _default_mixture(n=2),
        "mix8": _default_mixture(n=8),
        "mixk3": _spread_mixture(3, 3),
        "mixk9": _spread_mixture(9, 5),
    }
    for name, target in targets.items():
        cases[name] = (mixture_log_density_fn(target), target.n, mixture_init_mean(target, 0))
    return cases


# The step count and stop reason, float.hex of (mean, log_std) and of the
# ELBO trace at steps 1, 200 and the last after a seed-0 fit with
# max_steps=600.  The traces were recorded when the sticking-the-landing
# estimator replaced the analytic-entropy one; a change that only makes
# steps cheaper must not move the optimization path.  The (mean, log_std)
# pairs were re-recorded when a uniform iterate average replaced the
# exponential one, with the traces unchanged, and every entry when the
# defaults went from 10 samples over 200-step windows to 20 over 100-step
# windows; mix2 then stopped on tolerance at step 400.  mixk3 and mixk9,
# with 3 and 9 components, guard the sums over the component axis, which
# numpy's pairwise summation unrolls from 8 terms on.
PINNED_FITS = {
    "mix2": (
        400,
        "tolerance",
        ["0x1.3fffffda1e8d9p+2", "0x1.3e571eec114a6p-19"],
        ["0x1.fa00acca07c88p-23", "0x1.dde1a7bb2b13fp-22"],
        ["-0x1.09debd861267ap+0", "-0x1.62e61e4927132p-1", "-0x1.62e43bd059562p-1"],
    ),
    "mix8": (
        600,
        "tolerance",
        ["0x1.4000000318370p+2", "-0x1.3828e6b9cb205p-27", "-0x1.660c96df50492p-36",
         "0x1.94b0ea96c3bb8p-28", "0x1.2935e02de17a6p-29", "0x1.3bfdaccacf0ecp-10",
         "-0x1.2ed70fe8fd79cp-21", "0x1.7e843920ca6fap-26"],
        ["0x1.f8bcd16819e07p-29", "-0x1.9560b74c3826ep-30", "-0x1.c08d302367813p-41",
         "0x1.129fc0d3cefa4p-30", "-0x1.ee01653dca00ep-34", "-0x1.2eb3a337c3640p-17",
         "0x1.f9767629c5c60p-26", "0x1.5bf8619c5fdbfp-27"],
        ["-0x1.45551c9a0a298p+1", "-0x1.63f06c19a7e50p-1", "-0x1.62e42ff430488p-1"],
    ),
    "mixk3": (
        600,
        "max_steps",
        ["-0x1.0bbf017e0f05ap+1", "-0x1.080cf8e5ef48dp-1", "-0x1.c519df9863afdp-1"],
        ["0x1.11fc0bef0d583p-1", "0x1.23db558aa17eap-2", "0x1.376c57cbe68d9p-2"],
        ["-0x1.05ff202a02d9cp+0", "-0x1.9442f8ec106a0p-2", "-0x1.5453ae44abe40p-3"],
    ),
    "mixk9": (
        600,
        "max_steps",
        ["0x1.a39849d47c20cp-5", "0x1.0945dde4b8e88p-1", "-0x1.29c4db71dcad6p-1",
         "0x1.70fabb05b425dp-4", "-0x1.10757592d4616p+0"],
        ["0x1.6b94eed7ca068p-2", "0x1.d3192b38b1c5bp-2", "0x1.179b892ddefb1p-1",
         "0x1.206996e5acaccp-1", "0x1.c3914c8d98a2ap-2"],
        ["-0x1.cb5462ca06728p+0", "-0x1.9f0beeec7b120p-2", "-0x1.3adb8897c53b0p-2"],
    ),
    "gauss5": (
        600,
        "max_steps",
        ["0x1.708a7e40a588dp-10", "-0x1.1c3db62500df3p-9", "0x1.017c333627ee3p-8",
         "0x1.56b1569a2d101p-10", "-0x1.c244d3aa65ccdp-14"],
        ["-0x1.0617ced5a308ap-2", "-0x1.0394f246be070p-2", "-0x1.061f88cf523f1p-2",
         "-0x1.058fab95fd367p-2", "-0x1.06720520cdc60p-2"],
        ["-0x1.2d4995e3eb058p-1", "-0x1.0c803de959be0p-1", "-0x1.40dab02d024a4p-1"],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FITS))
def test_fit_path_is_pinned(name):
    """Mixture fits match the recorded path bit for bit; the Gaussian one,
    whose density may round differently, within 1e-12."""
    density, n, init_mean = _pinned_cases()[name]
    state = fit_fgvi(density, n, OptimizerConfig(seed=0, max_steps=600, init_mean=init_mean))
    steps, reason, *hexes = PINNED_FITS[name]
    mean, log_std, trace = (np.array([float.fromhex(h) for h in values]) for values in hexes)
    assert (state.step_count, state.stop_reason) == (steps, reason)
    assert [step for step, _ in state.elbo_trace] == list(range(1, steps + 1))
    got_trace = np.array([state.elbo_trace[step - 1][1] for step in (1, 200, steps)])
    tolerance = 0.0 if name.startswith("mix") else 1e-12
    assert np.max(np.abs(state.mean - mean)) <= tolerance
    assert np.max(np.abs(state.log_std - log_std)) <= tolerance
    assert np.max(np.abs(got_trace - trace)) <= tolerance


def test_max_steps_is_a_cap_not_a_buffer_size():
    """A fit stores the ELBO of the steps it takes, so a cap no array could
    hold returns, stopped by its own rule, the fit a modest cap gives."""
    density, n, _ = _pinned_cases()["gauss5"]
    capped = fit_fgvi(density, n, OptimizerConfig(seed=0))
    huge = fit_fgvi(density, n, OptimizerConfig(seed=0, max_steps=10**15))
    assert huge.stop_reason in ("tolerance", "stationary")
    assert huge.step_count == capped.step_count > 1024
    assert huge.elbo_trace == capped.elbo_trace
    assert np.array_equal(huge.mean, capped.mean)
    assert np.array_equal(huge.log_std, capped.log_std)


def test_noise_blocks_do_not_move_the_fit(monkeypatch):
    """Noise drawn 7 steps at a time gives the fit drawn a window at a time."""
    density, n, init_mean = _pinned_cases()["mix8"]
    config = OptimizerConfig(seed=0, max_steps=450, init_mean=init_mean)
    whole = fit_fgvi(density, n, config)
    monkeypatch.setattr(engine, "_NOISE_BLOCK_VALUES", 7 * config.mc_samples * n)
    blocks = fit_fgvi(density, n, config)
    assert np.array_equal(blocks.mean, whole.mean)
    assert np.array_equal(blocks.log_std, whole.log_std)
    assert blocks.elbo_trace == whole.elbo_trace


@pytest.mark.parametrize("learning_rate", [1e3, 1e6])
@pytest.mark.parametrize("name", sorted(PINNED_FITS))
def test_divergence_is_silent_and_immediate(name, learning_rate):
    """A huge first step overflows exp(log_std); the fit reports that as
    DivergenceError at step 2 and lets no RuntimeWarning escape."""
    density, n, init_mean = _pinned_cases()[name]
    config = OptimizerConfig(
        seed=0, learning_rate=learning_rate, max_steps=100, init_mean=init_mean
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            fit_fgvi(density, n, config)
    assert info.value.step == 2
    assert len(info.value.state.elbo_trace) == 1


def test_mode_collapse(collapse_fit):
    target, state = collapse_fit
    distances = np.linalg.norm(target.means - state.mean[None, :], axis=1)
    assert np.min(distances) < 1.0  # within one component std of a mode
    assert np.all(state.variances < 2.0)  # far below marginal variance 26


def test_mode_collapse_is_deterministic(collapse_fit):
    target, state = collapse_fit
    config = OptimizerConfig(seed=0, init_mean=mixture_init_mean(target, 0))
    again = fit_fgvi(mixture_log_density_fn(target), 2, config)
    assert np.array_equal(state.mean, again.mean)
    assert np.array_equal(state.log_std, again.log_std)


def test_shrinkage_comparison_single_component(single_component_fit):
    target, state = single_component_fit
    comparison = shrinkage_comparison(target, state)
    assert comparison.trace_S == pytest.approx(2.0, abs=0.1)
    assert comparison.trace_S_G == pytest.approx(2.0, abs=1e-9)


def test_shrinkage_comparison_collapsed(collapse_fit):
    target, state = collapse_fit
    comparison = shrinkage_comparison(target, state)
    assert comparison.trace_S > 2.0 * comparison.trace_S_G
    assert comparison.S.log_det / 2.0 > 0.0
    assert comparison.S.diagonal[0] > 10.0


# ----------------------------------------------------------- gap bound


def test_max_entropy_bound_tight_for_gaussian():
    target = random_spd_target(4, np.random.default_rng(31))
    solution = fgvi_solve(target)
    state = VariationalState(
        mean=solution.mean,
        log_std=0.5 * np.log(solution.variances),
        step_count=0,
        elbo_trace=(),
    )
    bound = max_entropy_gap_bound(target, state)
    assert bound == pytest.approx(decompose(target).entropy_gap, abs=1e-10)


def test_max_entropy_bound_positive_for_mixture(collapse_fit):
    target, state = collapse_fit
    assert max_entropy_gap_bound(mixture_moments(target), state) > 0.0


def test_max_entropy_bound_near_zero_single_component(single_component_fit):
    target, state = single_component_fit
    bound = max_entropy_gap_bound(mixture_moments(target), state)
    assert abs(bound) < 0.1


def test_max_entropy_bound_is_an_upper_bound():
    """An equal-weight two-component mixture has H(p) <= log 2 + H(component),
    so its true gap H(p) - H(q) is at most log 2 + H(component) - H(q).  The
    bound, from the maximum-entropy Gaussian with the mixture's moments,
    lies above that ceiling: it bounds the gap from above, not below."""
    for n, separation, seed, expected_bound, expected_ceiling in (
        (2, 10.0, 0, 1.629, 0.693),
        (3, 6.0, 1, 1.129, 0.671),
    ):
        target = _default_mixture(separation, n)
        config = OptimizerConfig(seed=seed, init_mean=mixture_init_mean(target, seed))
        state = fit_fgvi(mixture_log_density_fn(target), n, config)
        log_two_pi_e = math.log(2.0 * math.pi) + 1.0
        entropy_component = 0.5 * n * (log_two_pi_e + math.log(target.component_variance))
        entropy_q = float(np.sum(state.log_std)) + 0.5 * n * log_two_pi_e
        ceiling = math.log(2.0) + entropy_component - entropy_q
        bound = max_entropy_gap_bound(mixture_moments(target), state)
        assert bound == pytest.approx(expected_bound, abs=1e-3)
        assert ceiling == pytest.approx(expected_ceiling, abs=1e-3)
        assert bound > ceiling


def test_max_entropy_bound_dimension_mismatch():
    target = GaussianTarget(mean=np.zeros(3), covariance=np.eye(3))
    state = VariationalState(
        mean=np.zeros(2), log_std=np.zeros(2), step_count=0, elbo_trace=()
    )
    with pytest.raises(ValueError):
        max_entropy_gap_bound(target, state)


# ------------------------------------------------------------ validation


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(mc_samples=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_steps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(window=0)


def test_seed_range_checked_by_both_engine_entry_points():
    """The generators' seed rule, and its message, hold for the engine too."""
    target = _default_mixture()
    for seed, shown in ((2**64, str(2**64)), (-1, "-1"), (1.5, "1.5")):
        message = f"^seed must be an unsigned 64-bit integer, got {shown}$"
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(seed=seed)
        with pytest.raises(ValueError, match=message):
            mixture_init_mean(target, seed)
    OptimizerConfig(seed=2**64 - 1)


def test_fit_rejects_bad_init():
    density = gaussian_log_density_fn(
        GaussianTarget(mean=np.zeros(2), covariance=np.eye(2))
    )
    with pytest.raises(ValueError):
        fit_fgvi(density, 0, OptimizerConfig())
    with pytest.raises(ValueError):
        fit_fgvi(density, 2, OptimizerConfig(init_mean=np.zeros(3)))


def test_fit_rejects_non_finite_initial_density():
    def density(z):
        values = np.full(z.shape[0], -np.inf)
        return values, np.zeros_like(z)

    with pytest.raises(ValueError, match="initialization"):
        fit_fgvi(density, 2, OptimizerConfig())


def test_divergence_error_carries_state():
    target = _default_mixture()
    config = OptimizerConfig(seed=0, learning_rate=1e6, max_steps=100)
    with pytest.raises(DivergenceError) as info:
        fit_fgvi(mixture_log_density_fn(target), 2, config)
    error = info.value
    assert error.step >= 1
    assert error.state.step_count == error.step
    assert error.state.stop_reason == "diverged"
    assert len(error.state.elbo_trace) == error.step - 1


@pytest.mark.parametrize("n, seed, finite", [(5, 0, True), (5, 2, False), (2, 0, False)])
def test_divergence_at_the_largest_learning_rate(n, seed, finite):
    """At learning_rate = 1.7e308 the first step throws every parameter out
    to about the double range, and the second step diverges.  Where that
    first step overflowed a parameter to inf, the state carries the inf:
    still a DivergenceError, not a refusal of the state."""
    if n == 5:
        density = gaussian_log_density_fn(constant_offdiag_target(ConstantOffDiagConfig(n, 0.5)))
    else:
        density = mixture_log_density_fn(_default_mixture())
    # Ten samples over 200-step windows, the settings whose seed-2 draws
    # overflow a parameter: the subject is the inf state, not the defaults.
    config = OptimizerConfig(seed=seed, learning_rate=1.7e308, mc_samples=10, window=200)
    with pytest.raises(DivergenceError) as info:
        fit_fgvi(density, n, config)
    state = info.value.state
    assert info.value.step == state.step_count == 2
    assert len(state.elbo_trace) == 1 and state.stop_reason == "diverged"
    params = np.concatenate([state.mean, state.log_std])
    assert np.isfinite(params).all() == finite
    assert (np.abs(params[np.isfinite(params)]) > 1e307).all()


def test_state_keeps_own_real_copies():
    mean, log_std = np.zeros(2), np.zeros(2)
    state = VariationalState(mean=mean, log_std=log_std, step_count=0, elbo_trace=())
    mean[0] = log_std[0] = 99.0
    assert state.mean.tolist() == state.log_std.tolist() == [0.0, 0.0]
    state = VariationalState(mean=[1, 2], log_std=(0, 0), step_count=0, elbo_trace=())
    assert state.mean.dtype == state.log_std.dtype == np.float64
    with pytest.raises(ValueError, match="^log_std must be real, got dtype complex128$"):
        VariationalState(mean=np.zeros(2), log_std=np.zeros(2) + 0j, step_count=0, elbo_trace=())
    with pytest.raises(ValueError, match="^mean must be real"):
        VariationalState(mean=np.zeros(2) + 0j, log_std=np.zeros(2), step_count=0, elbo_trace=())
    with pytest.raises(ValueError, match="^mean and log_std must be vectors of equal length"):
        VariationalState(mean=np.zeros(2), log_std=np.zeros(3), step_count=0, elbo_trace=())
    with pytest.raises(ValueError, match="^log_std must be a vector"):
        VariationalState(mean=np.zeros(2), log_std=np.zeros((2, 1)), step_count=0, elbo_trace=())


def test_state_variances_property():
    state = VariationalState(
        mean=np.zeros(2),
        log_std=np.log([2.0, 3.0]) / 2.0,
        step_count=0,
        elbo_trace=(),
    )
    assert np.allclose(state.variances, [2.0, 3.0], rtol=1e-12)
    approx = state.as_factorized()
    assert np.allclose(approx.variances, [2.0, 3.0], rtol=1e-12)
