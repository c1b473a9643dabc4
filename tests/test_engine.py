"""Stochastic ELBO ascent: estimator correctness, recovery, mode collapse."""

import math
import warnings

import numpy as np
import pytest
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
    mixture_log_density,
    mixture_log_density_fn,
    mixture_log_density_grad,
    mixture_moments,
    shrinkage_comparison,
)
from fgvi.gaussian import GaussianTarget, decompose, fgvi_solve
from fgvi.generators import (
    ConstantOffDiagConfig,
    KernelConfig,
    constant_offdiag_target,
    squared_exponential_target,
)

from conftest import random_spd_target


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
    with pytest.raises(ValueError):
        MixtureTarget(
            weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), component_variance=0.0
        )
    with pytest.raises(ValueError):
        MixtureTarget(
            weights=np.array([0.5, 0.5]), means=np.zeros(3), component_variance=1.0
        )


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
    values = np.array([mixture_log_density(target, z) for z in points])
    assert np.allclose(values, expected, rtol=1e-12)


def test_midpoint_of_symmetric_mixture():
    target = _default_mixture(separation=6.0)
    midpoint = np.zeros(2)
    # both components contribute equally, so the weights cancel
    single = stats.multivariate_normal(mean=target.means[0], cov=np.eye(2)).logpdf(
        midpoint
    )
    assert mixture_log_density(target, midpoint) == pytest.approx(single, rel=1e-12)


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
        values, grads = mixture_log_density_fn(target)(batch)
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)
        assert np.allclose(grads, expected_grads, rtol=1e-12, atol=1e-12)
        for i, z in enumerate(batch):
            assert mixture_log_density(target, z) == pytest.approx(expected[i], rel=1e-12)
            grad = mixture_log_density_grad(target, z)
            assert np.allclose(grad, expected_grads[i], rtol=1e-12, atol=1e-12)


def test_gradient_matches_finite_differences():
    target = MixtureTarget(
        weights=np.array([0.3, 0.45, 0.25]),
        means=np.array([[-4.0, 0.0], [1.0, 1.0], [5.0, -3.0]]),
        component_variance=0.8,
    )
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(100):
        z = rng.normal(scale=3.0, size=2)
        grad = mixture_log_density_grad(target, z)
        for i in range(2):
            bump = np.zeros(2)
            bump[i] = h
            numeric = (
                mixture_log_density(target, z + bump)
                - mixture_log_density(target, z - bump)
            ) / (2 * h)
            assert grad[i] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


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
    lower = target.cholesky_lower
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
    """Where q cannot match p the ELBO noise stays and the tolerance test
    fires only by chance; the noise-aware rule ends those fits well before
    the cap."""
    _, states = correlated_fits
    target = constant_offdiag_target(ConstantOffDiagConfig(n=20, eps=0.5))
    density = gaussian_log_density_fn(target)
    states = states + [fit_fgvi(density, 20, OptimizerConfig(seed=seed)) for seed in range(3)]
    for state in states:
        assert state.step_count < OptimizerConfig().max_steps // 4
        assert state.stop_reason in ("tolerance", "stationary")


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


@pytest.mark.parametrize("decay", [0.9, 0.99, 0.999])
def test_stop_helper_stops_a_horizon_after_flat_noise(decay):
    """Means that wobble by half a standard error mark the ELBO stationary
    at the first comparison, and the fit stops 4 / (1 - decay) steps on,
    rounded up to a window boundary."""
    config = OptimizerConfig(average_decay=decay)
    standard_error = math.sqrt(2.0 / config.window)
    windows = [(-3.0 + 0.5 * standard_error * (k % 2), 1.0) for k in range(100)]
    reason, step, mark = _drive_stop(windows, config)
    horizon = 4.0 / (1.0 - decay)
    assert (reason, mark) == ("stationary", 2 * config.window)
    assert 0 <= step - mark - horizon < config.window


def test_stop_helper_tolerance_test_wins():
    config = OptimizerConfig()
    flat = (-3.0, 1.0)
    # Both rules would fire: the mark is a horizon old and the means agree.
    assert engine._window_stop(flat, flat, 5000, 400, config) == ("tolerance", 400)
    # At the first comparison, the tolerance test fires before any mark.
    assert engine._window_stop(flat, flat, 400, None, config) == ("tolerance", None)


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


def _pinned_cases():
    """(density, n, init_mean) for the three pinned fit paths."""
    gaussian = constant_offdiag_target(ConstantOffDiagConfig(n=5, eps=0.5))
    cases = {"gauss5": (gaussian_log_density_fn(gaussian), 5, None)}
    for name, n in (("mix2", 2), ("mix8", 8)):
        target = _default_mixture(n=n)
        cases[name] = (mixture_log_density_fn(target), n, mixture_init_mean(target, 0))
    return cases


# float.hex of (mean, log_std) and of the ELBO trace at steps 1, 200 and 600
# after a seed-0 fit with max_steps=600, recorded when the sticking-the-
# landing estimator replaced the analytic-entropy one; a change that only
# makes steps cheaper must not move the optimization path.
PINNED_FITS = {
    "mix2": (
        ["0x1.3ff5b08bc01efp+2", "0x1.001796e4dbc43p-5"],
        ["-0x1.81e05d611d4dbp-14", "-0x1.12eb9f6c6c61cp-12"],
        ["-0x1.e282b90fadf80p-1", "-0x1.62e634f5d9d34p-1", "-0x1.62e42ff0621b6p-1"],
    ),
    "mix8": (
        ["0x1.3ff59814dad60p+2", "0x1.0094c9c902b2cp-5", "0x1.36949015695a9p-12",
         "-0x1.5798e9e651678p-6", "0x1.1643de904679bp-7", "0x1.2f057be05d9b0p-3",
         "0x1.2f2379387d6aep-4", "-0x1.3af977212a192p-5"],
        ["0x1.486058d5825c5p-15", "0x1.28e1eb2dd53bbp-11", "0x1.39a8a59c2cd32p-13",
         "0x1.9ff9e10c9b8d8p-12", "0x1.5a40af4c553c6p-12", "-0x1.8096fe6ef05e1p-10",
         "0x1.3269ba82a451ap-10", "0x1.1d5cfb0e6cb89p-13"],
        ["-0x1.1fd91b3f811d4p+1", "-0x1.5ddb5364dd608p-1", "-0x1.62e42fe353148p-1"],
    ),
    "gauss5": (
        ["0x1.d58b31ddcc2ecp-7", "0x1.bb0730fc12467p-7", "0x1.fe98f4f1191e5p-7",
         "0x1.01ab1a1386326p-6", "0x1.659011ac804fdp-7"],
        ["-0x1.fe531dd792681p-3", "-0x1.f4ea4ae819ea0p-3", "-0x1.fe61f3bb58e74p-3",
         "-0x1.ff0081187ee52p-3", "-0x1.fbecce69ed867p-3"],
        ["-0x1.b4d24a7931040p-4", "-0x1.5bfe98fb79e08p-1", "-0x1.128201c10a7b0p-1"],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FITS))
def test_fit_path_is_pinned(name):
    """Mixture fits match the recorded path bit for bit; the Gaussian one,
    whose density may round differently, within 1e-12."""
    density, n, init_mean = _pinned_cases()[name]
    state = fit_fgvi(density, n, OptimizerConfig(seed=0, max_steps=600, init_mean=init_mean))
    mean, log_std, trace = (
        np.array([float.fromhex(h) for h in hexes]) for hexes in PINNED_FITS[name]
    )
    assert state.step_count == 600
    assert [step for step, _ in state.elbo_trace] == list(range(1, 601))
    got_trace = np.array([state.elbo_trace[step - 1][1] for step in (1, 200, 600)])
    tolerance = 0.0 if name.startswith("mix") else 1e-12
    assert np.max(np.abs(state.mean - mean)) <= tolerance
    assert np.max(np.abs(state.log_std - log_std)) <= tolerance
    assert np.max(np.abs(got_trace - trace)) <= tolerance


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
    with pytest.raises(ValueError):
        OptimizerConfig(average_decay=1.0)


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
