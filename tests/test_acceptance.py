"""Numbered end-to-end acceptance checks with pinned tolerances.

Each test covers one criterion, prints a single [PASS]/[FAIL] verdict
line (replayed by the conftest terminal-summary hook), and asserts the
same condition so a red criterion is also a test failure.  Tolerances
here are contracts, not tuning knobs.
"""

import math
from functools import lru_cache

import numpy as np

import acceptance_log
from fgvi.bounds import bounds_report
from fgvi.engine import (
    MixtureTarget,
    OptimizerConfig,
    fit_fgvi,
    max_entropy_gap_bound,
    mixture_init_mean,
    mixture_log_density_fn,
    mixture_moments,
    shrinkage_comparison,
)
from fgvi.gaussian import (
    GaussianTarget,
    constant_offdiag_closed_forms,
    correlation_from_covariance,
    decompose,
    fgvi_solve,
    reverse_kl_solve,
    shrinkage_matrix,
)
from fgvi.generators import (
    ConstantOffDiagConfig,
    KernelConfig,
    constant_offdiag_target,
    random_correlation_matrix,
    squared_exponential_target,
)

from conftest import extremal_profiles, target_corpus
from oracles import (
    oracle_bound_log_det_c,
    oracle_bound_log_det_s,
    oracle_joint_kl,
    oracle_max_inverse_sum,
    oracle_min_inverse_sum,
)

CORPUS_DIMS = (2, 5, 20, 100)
CORPUS_COUNT = 500

BOUND_DIMS = (3, 4, 5, 8)
BOUND_RATIOS = (1.5, 2.0, 5.0, 10.0, 100.0)


@lru_cache(maxsize=None)
def _corpus():
    return {n: target_corpus(n, CORPUS_COUNT) for n in CORPUS_DIMS}


@lru_cache(maxsize=None)
def _corpus_reports():
    return {
        n: [decompose(target) for target in targets]
        for n, targets in _corpus().items()
    }


@lru_cache(maxsize=None)
def _bound_grid():
    return {
        (n, ratio): bounds_report(n, ratio)
        for n in BOUND_DIMS
        for ratio in BOUND_RATIOS
    }


def test_criterion_1_closed_form_matches_explicit_inversion():
    worst = 0.0
    for targets in _corpus().values():
        for target in targets:
            variances = fgvi_solve(target).variances
            reference = 1.0 / np.diag(np.linalg.inv(target.covariance))
            worst = max(worst, float(np.max(np.abs(variances - reference) / reference)))
    ok = worst <= 1e-9
    assert acceptance_log.record(
        1,
        f"solver variances match explicit inversion on {4 * CORPUS_COUNT} "
        f"targets (worst rel err {worst:.2e}, tol 1e-9)",
        ok,
    ), f"worst relative error {worst:.3e} exceeds 1e-9"


def test_criterion_2_shrinkage_and_gap_sign_with_strictness():
    violations = []
    for n, targets in _corpus().items():
        for k, target in enumerate(targets):
            sigma = np.diag(target.covariance)
            psi = fgvi_solve(target).variances
            if np.any(psi > sigma * (1.0 + 1e-10)):
                violations.append((n, k, "psi exceeds sigma"))
            report = _corpus_reports()[n][k]
            if report.entropy_gap < -1e-9:
                violations.append((n, k, "negative gap"))
            corr = correlation_from_covariance(target).entries
            off = np.abs(corr - np.diag(np.diag(corr)))
            coupled = off.max(axis=1) > 1e-8
            if np.any(psi[coupled] >= sigma[coupled]):
                violations.append((n, k, "no strict shrinkage on coupled coord"))
            if np.any(coupled) and not report.entropy_gap > 0.0:
                violations.append((n, k, "gap not strictly positive"))
    ok = not violations
    assert acceptance_log.record(
        2,
        "variance shrinkage, nonnegative gap, and strictness under coupling "
        f"on {4 * CORPUS_COUNT} targets ({len(violations)} violations)",
        ok,
    ), f"first violations: {violations[:5]}"


def test_criterion_3_gap_equals_kl_by_independent_paths():
    worst = 0.0
    for reports in _corpus_reports().values():
        for report in reports:
            scale = max(1.0, report.kl_q_p)
            worst = max(worst, abs(report.entropy_gap - report.kl_q_p) / scale)
    ok = worst <= 1e-9
    assert acceptance_log.record(
        3,
        f"entropy gap equals KL(q||p) via the entropy and trace-identity sums on "
        f"{4 * CORPUS_COUNT} targets (worst {worst:.2e}, tol 1e-9)",
        ok,
    ), f"worst |gap - KL| / max(1, KL) = {worst:.3e}"


def test_criterion_4_constant_offdiag_limits():
    forms = constant_offdiag_closed_forms(10_000, 0.5)
    checks = [
        0.499 <= forms.psi_ratio <= 0.501,
        forms.per_component_gap < 1e-3,
        1.999 <= forms.trace_S_over_n <= 2.001,
    ]
    # Dense cross-check: the closed forms agree with a full decomposition.
    n = 200
    dense = constant_offdiag_closed_forms(n, 0.5)
    target = constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=0.5))
    report = decompose(target)
    psi = fgvi_solve(target).variances
    checks += [
        abs(report.log_det_S - dense.log_det_S) <= 1e-8 * abs(dense.log_det_S),
        abs(report.log_det_C - dense.log_det_C) <= 1e-8 * abs(dense.log_det_C),
        abs(report.entropy_gap / n - dense.per_component_gap)
        <= 1e-8 * dense.per_component_gap,
        float(np.max(np.abs(psi - dense.psi_ratio))) <= 1e-9,
    ]
    ok = all(checks)
    assert acceptance_log.record(
        4,
        "constant-off-diagonal eps=0.5 limits: psi ratio "
        f"{forms.psi_ratio:.6f} in [0.499, 0.501], per-component gap "
        f"{forms.per_component_gap:.2e} < 1e-3, trace(S)/n "
        f"{forms.trace_S_over_n:.6f} in [1.999, 2.001]; dense n=200 agrees",
        ok,
    ), f"failed subchecks: {[i for i, c in enumerate(checks) if not c]}"


def test_criterion_5_gap_versus_shrinkage_contrast():
    n = 10
    const = constant_offdiag_closed_forms(n, 0.9)
    const_gap = 0.5 * (const.log_det_S + const.log_det_C)
    const_shrink = 0.5 * const.log_det_S
    checks = [
        abs(const_gap - 1.73) <= 0.01,
        abs(const_shrink - 10.99) <= 0.01,
        const_gap / const_shrink < 0.2,
    ]
    # Kernel targets at matched condition number keep a much larger share
    # of the deficit in the gap term, on every point of a fixed sweep.
    sweep = []
    for rho in np.geomspace(5.0, 150.0, 8):
        report = decompose(
            squared_exponential_target(KernelConfig(n=n, rho=float(rho), seed=0))
        )
        ratio_kernel = report.entropy_gap / (0.5 * report.log_det_S)
        matched_eps = (report.condition_number - 1.0) / (
            report.condition_number + n - 1.0
        )
        matched = constant_offdiag_closed_forms(n, matched_eps)
        ratio_const = (matched.log_det_S + matched.log_det_C) / matched.log_det_S
        sweep.append(ratio_kernel > ratio_const)
    checks.append(all(sweep))
    ok = all(checks)
    assert acceptance_log.record(
        5,
        f"trade-off contrast at n=10: constant family gap {const_gap:.3f} vs "
        f"shrinkage {const_shrink:.3f} (ratio {const_gap / const_shrink:.3f} "
        f"< 0.2); kernel ratio larger at matched conditioning on 8/8 sweep "
        "points",
        ok,
    ), f"failed subchecks: {[i for i, c in enumerate(checks) if not c]}"


def test_criterion_6_bounds_match_oracles_and_dominate():
    oracle_misses = []
    for (n, ratio), report in _bound_grid().items():
        deviations = {
            "log_det_S": report.upper_log_det_S - oracle_bound_log_det_s(n, ratio),
            "log_det_C": report.upper_log_det_C - oracle_bound_log_det_c(n, ratio),
            "trace_lower": report.lower_trace_S - oracle_min_inverse_sum(n, ratio),
            "trace_upper": report.upper_trace_S - oracle_max_inverse_sum(n, ratio),
            "kl_joint": report.joint_kl_upper - oracle_joint_kl(n, ratio),
        }
        for name, dev in deviations.items():
            if abs(dev) > 1e-4:
                oracle_misses.append((n, ratio, name, dev))

    joint_loose = [
        (n, ratio)
        for (n, ratio), report in _bound_grid().items()
        if report.joint_kl_upper
        > 0.5 * (report.upper_log_det_S + report.upper_log_det_C) + 1e-9
    ]

    domination_violations = 0
    tested = 0
    for n in (3, 10, 50):
        for seed in range(1000):
            corr = random_correlation_matrix(n, seed)
            target = GaussianTarget(mean=np.zeros(n), covariance=corr.entries)
            report = decompose(target)
            bound = bounds_report(n, report.condition_number)
            trace_S = shrinkage_matrix(target, fgvi_solve(target)).trace
            tested += 1
            if (
                report.log_det_S > bound.upper_log_det_S + 1e-6
                or report.log_det_C > bound.upper_log_det_C + 1e-6
                or trace_S < bound.lower_trace_S - 1e-6
                or trace_S > bound.upper_trace_S + 1e-6
                or report.kl_q_p > bound.joint_kl_upper + 1e-6
            ):
                domination_violations += 1

    ok = not oracle_misses and not joint_loose and domination_violations == 0
    assert acceptance_log.record(
        6,
        f"bounds match independent oracles within 1e-4 on "
        f"{len(_bound_grid())} (n, R) pairs and dominate measurements on "
        f"{tested} random correlation matrices "
        f"({domination_violations} violations at 1e-6 slack); joint <= "
        "separate everywhere",
        ok,
    ), (
        f"oracle misses: {oracle_misses[:5]}; joint looser than separate at "
        f"{joint_loose[:5]}; domination violations: {domination_violations}"
    )


def _off_edge_count(profile, atol=1e-9):
    values = np.asarray(profile.values)
    top, bottom = values[0], values[-1]
    off = (np.abs(values - top) > atol) & (np.abs(values - bottom) > atol)
    return int(np.count_nonzero(off))


def _interior_spread(profile):
    interior = np.asarray(profile.values)[1:-1]
    return 0.0 if interior.size == 0 else float(np.ptp(interior))


def test_criterion_7_extremal_profiles_are_edge_supported():
    bad = []
    for n, ratio in _bound_grid():
        for name, profile in extremal_profiles(n, ratio).items():
            if name == "log_det_C":
                if _interior_spread(profile) > 1e-9:
                    bad.append((n, ratio, name, "interior not all equal"))
            elif name == "trace_S_lower":
                # Interior stationary point when feasible, edge otherwise.
                if _interior_spread(profile) > 1e-9 and _off_edge_count(profile) > 1:
                    bad.append((n, ratio, name, "neither equal-interior nor edge"))
            else:
                if _off_edge_count(profile) > 1:
                    bad.append((n, ratio, name, "more than one off-edge value"))
    ok = not bad
    assert acceptance_log.record(
        7,
        "every extremal spectrum over the bound grid has at most one value "
        "off the {top, bottom} edges or an all-equal interior (tol 1e-9)",
        ok,
    ), f"structure violations: {bad[:5]}"


def test_criterion_8_stochastic_fits_recover_closed_form(correlated_fits):
    # Default-settings fits of the eps = 0.5, n = 5 target at seeds 0-4.
    target, states = correlated_fits
    oracle = fgvi_solve(target).variances
    worst_by_seed = [
        float(np.max(np.abs(state.variances - oracle) / oracle)) for state in states
    ]
    ok = all(worst <= 0.05 for worst in worst_by_seed)
    passed = sum(worst <= 0.05 for worst in worst_by_seed)
    assert acceptance_log.record(
        8,
        f"stochastic fits recover closed-form variances within 5% for "
        f"{passed}/5 seeds (worst per seed: "
        + ", ".join(f"{w:.3f}" for w in worst_by_seed)
        + ")",
        ok,
    ), f"per-seed worst relative errors: {worst_by_seed}"


def test_criterion_9_mixture_fit_collapses_with_excess_shrinkage():
    means = np.array([[-5.0, 0.0], [5.0, 0.0]])
    target = MixtureTarget(
        weights=np.array([0.5, 0.5]), means=means, component_variance=1.0
    )
    density = mixture_log_density_fn(target)
    config = OptimizerConfig(seed=0, init_mean=mixture_init_mean(target, 0))
    state = fit_fgvi(density, 2, config)
    rerun = fit_fgvi(density, 2, config)

    mode_distance = float(
        np.min(np.linalg.norm(means - state.mean[None, :], axis=1))
    )
    comparison = shrinkage_comparison(target, state)
    bound = max_entropy_gap_bound(mixture_moments(target), state)
    checks = [
        mode_distance < 1.0,
        bool(np.all(state.variances < 2.0)),
        comparison.trace_S > 2.0 * comparison.trace_S_G,
        comparison.S.log_det / 2.0 > 0.0,
        bound > 0.0,
        np.array_equal(state.mean, rerun.mean)
        and np.array_equal(state.log_std, rerun.log_std)
        and state.step_count == rerun.step_count,
    ]
    ok = all(checks)
    assert acceptance_log.record(
        9,
        f"two-component mixture fit collapses to one mode (distance "
        f"{mode_distance:.3f}); trace(S) {comparison.trace_S:.2f} > "
        f"2*trace(S_G) {2.0 * comparison.trace_S_G:.2f}, mean log shrinkage "
        f"{comparison.S.log_det / 2.0:.3f} > 0, gap bound {bound:.3f} > 0, "
        "rerun bit-identical",
        ok,
    ), f"failed subchecks: {[i for i, c in enumerate(checks) if not c]}"


def test_criterion_10_reverse_kl_keeps_marginals():
    mismatches = 0
    for targets in _corpus().values():
        for target in targets:
            kept = reverse_kl_solve(target).variances
            if not np.array_equal(kept, np.diag(target.covariance)):
                mismatches += 1
    # Moment matching leaves S = I, so the per-component gap is log|C| / (2n).
    asymptote = constant_offdiag_closed_forms(10_000, 0.5).log_det_C / (2 * 10_000)
    limit = 0.5 * math.log(0.5)
    ok = mismatches == 0 and abs(asymptote - limit) <= 1e-3
    assert acceptance_log.record(
        10,
        f"reverse-KL variances equal the target diagonal exactly on "
        f"{4 * CORPUS_COUNT} targets; per-component gap at n=10^4, eps=0.5 "
        f"is {asymptote:.6f} (within 1e-3 of log(1/2)/2 = {limit:.6f})",
        ok,
    ), (
        f"{mismatches} diagonal mismatches; asymptote {asymptote!r} vs "
        f"{limit!r}"
    )
