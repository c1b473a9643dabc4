"""Condition-number envelopes against brute-force search."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fgvi.bounds import (
    BoundsReport,
    EigenProfile,
    bound_kl_joint,
    bound_log_det_C,
    bound_log_det_S,
    bound_trace_S,
    bounds_report,
    envelope_sweep,
)
from fgvi.gaussian import constant_offdiag_closed_forms

from conftest import extremal_profiles

from oracles import (
    oracle_bound_log_det_c,
    oracle_bound_log_det_s,
    oracle_joint_kl,
    oracle_max_inverse_sum,
    oracle_min_inverse_sum,
)


def _assert_profile_feasible(profile: EigenProfile, n: int, ratio: float):
    values = profile.values
    assert values.size == n
    assert np.all(values > 0)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.sum(values) == pytest.approx(n, rel=1e-9)
    assert values[0] == pytest.approx(ratio * values[-1], rel=1e-9)


def _assert_edge_structure(profile: EigenProfile, atol=1e-9):
    """At most one entry away from both spectrum edges."""
    values = profile.values
    top, bottom = values[0], values[-1]
    off_edge = (np.abs(values - top) > atol) & (np.abs(values - bottom) > atol)
    assert int(np.sum(off_edge)) <= 1


# ----------------------------------------------------------- EigenProfile


def test_profile_validation():
    EigenProfile(values=np.array([2.0, 0.5, 0.5]), condition_ratio=4.0)
    with pytest.raises(ValueError):
        EigenProfile(values=np.array([0.5, 2.0, 0.5]), condition_ratio=4.0)
    with pytest.raises(ValueError):
        EigenProfile(values=np.array([2.0, 0.5, 0.5]), condition_ratio=3.0)
    with pytest.raises(ValueError):
        EigenProfile(values=np.array([2.0, 1.0, 0.5]), condition_ratio=4.0)
    with pytest.raises(ValueError):
        EigenProfile(values=np.array([3.0, -0.5, 0.5]), condition_ratio=-6.0)


def _report(**changes):
    """A BoundsReport that holds every invariant, but for ``changes``."""
    fields = dict(
        n=3,
        condition_ratio=2.0,
        upper_log_det_S=0.5,
        upper_log_det_C=-0.5,
        lower_trace_S=3.0,
        upper_trace_S=4.0,
        joint_kl_upper=0.0,
    )
    return BoundsReport(**{**fields, **changes})


# Each refusal of the module that no other test reaches: (call, type, message).
_REFUSALS = {
    "profile matrix": (
        lambda: EigenProfile(np.ones((2, 2)), 1.0),
        ValueError,
        "values must be a vector of length >= 1, got shape (2, 2)",
    ),
    "profile zero eigenvalue": (
        lambda: EigenProfile(np.array([2.0, 0.0]), 2.0),
        ValueError,
        "eigenvalues must be finite and positive",
    ),
    "profile nan eigenvalue": (
        lambda: EigenProfile(np.array([np.nan, 1.0]), 2.0),
        ValueError,
        "eigenvalues must be finite and positive",
    ),
    "profile ratio below 1": (
        lambda: EigenProfile(np.ones(2), 0.5),
        ValueError,
        "condition ratio must be >= 1, got 0.5",
    ),
    "report positive correlation bound": (
        lambda: _report(upper_log_det_C=0.5),
        ValueError,
        "correlation bound must be non-positive, got 0.5",
    ),
    "report crossed trace bounds": (
        lambda: _report(lower_trace_S=5.0),
        ValueError,
        "trace bounds are crossed",
    ),
    "report joint above separate": (
        lambda: _report(joint_kl_upper=1.0),
        ValueError,
        "joint bound 1.0 exceeds the sum of the separate bounds 0.0",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


# ---------------------------------------------------------- trivial ratio


def test_unit_ratio_collapses_everything():
    for n in (2, 3, 10):
        s_val, s_prof = bound_log_det_S(n, 1.0)
        c_val, c_prof = bound_log_det_C(n, 1.0)
        trace = bound_trace_S(n, 1.0)
        j_val, _ = bound_kl_joint(n, 1.0)
        assert s_val == 0.0
        assert c_val == 0.0
        assert j_val == 0.0
        assert trace.lower == pytest.approx(n)
        assert trace.upper == pytest.approx(n)
        assert np.allclose(s_prof.values, 1.0)
        assert np.allclose(c_prof.values, 1.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        bound_log_det_S(3, 0.5)
    with pytest.raises(ValueError):
        bound_log_det_S(1, 2.0)
    with pytest.raises(ValueError):
        bound_log_det_C(3, 0.99)
    with pytest.raises(ValueError):
        bound_trace_S(3, -1.0)
    with pytest.raises(ValueError):
        bound_kl_joint(1, 2.0)
    for ratio in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            bounds_report(3, ratio)


# ------------------------------------------------------ frozen hand values


def test_shrinkage_bound_hand_value():
    value, profile = bound_log_det_S(3, 4.0)
    assert value == pytest.approx(3 * math.log(1.5), rel=1e-12)
    # two candidate splits tie at 4.5; smaller split index wins
    assert np.allclose(profile.values, [2.0, 0.5, 0.5], atol=1e-12)


def test_delinkage_bound_hand_value():
    value, profile = bound_log_det_C(10, 11.0)
    assert value == pytest.approx(math.log(11.0 / 36.0), rel=1e-12)
    assert profile.values[-1] == pytest.approx(2.0 / 12.0, rel=1e-12)
    assert np.allclose(profile.values[1:-1], 1.0, atol=1e-12)


def test_trace_bounds_hand_values():
    trace = bound_trace_S(3, 4.0)
    assert trace.lower == pytest.approx(49.0 / 12.0, rel=1e-12)
    assert trace.upper == pytest.approx(4.5, rel=1e-12)
    assert np.allclose(trace.lower_profile.values, [12.0 / 7.0, 6.0 / 7.0, 3.0 / 7.0])


def test_joint_bound_hand_value():
    value, _ = bound_kl_joint(2, 4.0)
    assert value == pytest.approx(0.5 * math.log(25.0 / 16.0), rel=1e-12)


def test_two_dimensional_delinkage_special_case():
    for ratio in (1.5, 3.0, 42.0):
        value, profile = bound_log_det_C(2, ratio)
        assert value == pytest.approx(math.log(4 * ratio / (1 + ratio) ** 2), rel=1e-12)
        assert np.allclose(profile.values, [2 * ratio / (1 + ratio), 2 / (1 + ratio)])


def test_one_dimensional_class_is_refused():
    # A ratio-R class of n = 1 spectra is empty for every R > 1, so every
    # bound refuses n = 1, with one message.
    bounds = (bound_log_det_S, bound_log_det_C, bound_trace_S, bound_kl_joint, bounds_report)
    for bound in bounds:
        for ratio in (1.0, 7.0):
            with pytest.raises(ValueError, match="^n must be an integer >= 2, got 1$"):
                bound(1, ratio)


# ------------------------------------------------------- oracle spot checks


_ORACLE_POINTS = [(3, 4.0), (4, 10.0), (5, 2.5), (12, 100.0), (20, 1.001), (50, 37.0), (50, 1e6)]


def test_shrinkage_bound_matches_grid_oracle():
    for n, ratio in _ORACLE_POINTS:
        value, _ = bound_log_det_S(n, ratio)
        assert value == pytest.approx(oracle_bound_log_det_s(n, ratio), abs=1e-4)


def test_delinkage_bound_matches_grid_oracle():
    for n, ratio in _ORACLE_POINTS:
        value, _ = bound_log_det_C(n, ratio)
        assert value == pytest.approx(oracle_bound_log_det_c(n, ratio), abs=1e-6)


def test_trace_bounds_match_grid_oracle():
    for n, ratio in _ORACLE_POINTS:
        trace = bound_trace_S(n, ratio)
        assert trace.lower == pytest.approx(oracle_min_inverse_sum(n, ratio), abs=1e-4)
        assert trace.upper == pytest.approx(oracle_max_inverse_sum(n, ratio), abs=1e-4)


def test_joint_bound_matches_grid_oracle():
    for n, ratio in _ORACLE_POINTS:
        value, _ = bound_kl_joint(n, ratio)
        assert value == pytest.approx(oracle_joint_kl(n, ratio), abs=1e-4)


# ----------------------------------------------------- cross-module checks


def test_delinkage_bound_dominates_constant_offdiag():
    # eps = 0.5 at n = 10 has extreme-eigenvalue ratio 11
    analytic = 9 * math.log(0.5) + math.log(5.5)
    value, _ = bound_log_det_C(10, 11.0)
    assert value >= analytic


def test_trace_bounds_contain_constant_offdiag():
    forms = constant_offdiag_closed_forms(10, 0.5)
    actual = 10 * forms.trace_S_over_n
    trace = bound_trace_S(10, 11.0)
    assert trace.lower <= actual <= trace.upper


# ------------------------------------------------------- report & ordering


def test_report_assembles_all_maximizers():
    for profile in extremal_profiles(5, 7.0).values():
        _assert_profile_feasible(profile, 5, 7.0)


def test_joint_tighter_than_separate():
    for n in (3, 5, 12):
        for ratio in (1.5, 4.0, 50.0):
            report = bounds_report(n, ratio)
            assert report.joint_kl_upper < report.separate_kl_upper - 1e-9


def test_joint_equals_separate_in_two_dimensions():
    for ratio in (2.0, 9.0, 120.0):
        report = bounds_report(2, ratio)
        assert report.joint_kl_upper == pytest.approx(
            report.separate_kl_upper, abs=1e-12
        )


def test_maximizer_edge_structure():
    for n in (3, 4, 5, 8):
        for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
            profiles = extremal_profiles(n, ratio)
            for name in ("log_det_S", "trace_S_upper", "kl_joint"):
                _assert_edge_structure(profiles[name])
            for name in ("log_det_C", "trace_S_lower"):
                interior = profiles[name].values[1:-1]
                if interior.size:
                    assert np.max(interior) - np.min(interior) <= 1e-12


def test_envelope_sweep_monotone_and_ordered():
    grid = [1.0, 1.5, 2.0, 5.0, 10.0, 100.0]
    reports = envelope_sweep(10, grid)
    assert len(reports) == len(grid)
    assert [r.condition_ratio for r in reports] == grid
    upper_s = [r.upper_log_det_S for r in reports]
    assert all(b >= a for a, b in zip(upper_s, upper_s[1:]))
    assert reports[0].upper_log_det_S == 0.0
    assert reports[0].joint_kl_upper == 0.0


def test_envelope_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        envelope_sweep(4, [])
    with pytest.raises(ValueError):
        envelope_sweep(4, [2.0, 1.5])
    with pytest.raises(ValueError):
        envelope_sweep(4, [0.5, 2.0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=25),
    ratio=st.floats(min_value=1.0, max_value=1e4),
)
# Ratios within 1e-9 of 1: the spectrum edges nearly coincide, and every
# maximizer must still carry the exact extreme ratio.
@example(n=2, ratio=1.0000000001035232)
@example(n=3, ratio=1.0000000001017464)
@example(n=4, ratio=1.0000000001035232)
@example(n=5, ratio=1.0 + 2.5e-10)
# Very large ratios: the trace lower bound's profile spans R orders of
# magnitude, and (1 + R)^2 would overflow from R of about 1.3e154.
@example(n=23, ratio=1.4675815373986703e18)
@example(n=3, ratio=1e20)
@example(n=1000, ratio=1e20)
@example(n=3, ratio=1e40)
@example(n=5, ratio=1e160)
# At the top of double range, where j R would overflow; BoundsReport
# raises if any bound is not finite.
@example(n=5, ratio=1e308)
@example(n=2, ratio=1.7e308)
def test_report_invariants_property(n, ratio):
    report = bounds_report(n, ratio)
    assert isinstance(report, BoundsReport)
    assert report.upper_log_det_S >= -1e-12
    assert report.upper_log_det_C <= 1e-12
    assert report.lower_trace_S <= report.upper_trace_S + 1e-9
    assert report.joint_kl_upper <= report.separate_kl_upper + 1e-9
    for profile in extremal_profiles(n, ratio).values():
        _assert_profile_feasible(profile, n, ratio)


# ------------------------------------------- closed forms against vertex scans


def _vertex_scan(n: int, ratio: float) -> tuple[float, float]:
    """(max sum(1/lambda), max joint gap) over the n-1 two-level vertices,
    in the form bounds.py evaluated before it had closed forms: j
    eigenvalues at ratio * lam_n, n-j at lam_n = n / (j ratio + n - j)."""
    j = np.arange(1, n)
    bottom = n / (j * ratio + (n - j))
    inverse_sum = n + (ratio - 1.0) * ((ratio - 1.0) / ratio) * (j * (n - j) / n)
    log_sum = j * math.log(ratio) + n * np.log(bottom)
    gaps = 0.5 * (n * np.log(inverse_sum / n) + log_sum)
    return float(inverse_sum.max()), float(gaps.max())


def _joint_gap_60_digits(n: int, ratio: float) -> Decimal:
    """max_j g(j), g(j) = (n ln(1 - (j/n)(R-1)/R) + j ln R) / 2, in 60-digit
    decimal arithmetic from the exact binary value of R.  Up to n = 60 every
    j = 1..n-1 is valued, which checks the argmax independently of the
    stationary point; above that g is concave, so the integers around its
    stationary point n (R/(R-1) - 1/ln R) hold the maximum."""
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(ratio)
        shrink, log_r = (r - 1) / r, r.ln()
        stationary = int(n * (1 / shrink - 1 / log_r))
        candidates = (
            range(1, n)
            if n <= 60
            else range(max(1, stationary - 1), min(n - 1, stationary + 2) + 1)
        )
        return max((n * (1 - j * shrink / n).ln() + j * log_r) / 2 for j in candidates)


def _seeded_points(count: int, seed: int) -> list[tuple[int, float]]:
    """n up to 3000 and R up to 1e12, one point in ten within 1e-8..1 of 1."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(count):
        n = int(rng.integers(2, 3001)) if k % 2 else int(rng.integers(2, 60))
        exponent = rng.uniform(-8.0, 0.0) if k % 10 == 0 else rng.uniform(0.0, 12.0)
        points.append((n, float(1.0 + 10.0**exponent if k % 10 == 0 else 10.0**exponent)))
    return points


def test_closed_forms_match_vertex_scan():
    for n, ratio in _seeded_points(300, seed=11):
        report = bounds_report(n, ratio)
        max_inverse_sum, max_gap = _vertex_scan(n, ratio)
        assert report.upper_trace_S == max_inverse_sum, (n, ratio)
        # Near R = 1 the scan's own rounding error is about 2e-13 absolute.
        assert report.joint_kl_upper == pytest.approx(max_gap, rel=1e-12, abs=1e-12), (n, ratio)


def test_joint_bound_no_less_accurate_than_vertex_scan():
    worst_closed = worst_scan = 0.0
    for n, ratio in _seeded_points(200, seed=12):
        exact = _joint_gap_60_digits(n, ratio)
        closed, _ = bound_kl_joint(n, ratio)
        error = abs((Decimal(closed) - exact) / exact)
        assert error <= Decimal("1e-13"), (n, ratio, error)
        worst_closed = max(worst_closed, float(error))
        worst_scan = max(worst_scan, float(abs((Decimal(_vertex_scan(n, ratio)[1]) - exact) / exact)))
    assert worst_closed <= worst_scan


def test_joint_bound_to_rounding():
    """The joint bound is valued in a form whose terms are all non-negative,
    at vertices placed by a maximizer t* computed without cancellation, so
    it holds to 8 units of 2^-53 relative for R - 1 from 2^-52 to 1/7 and
    for R from 8/7 to 1e12; at n = 2, where it equals the separate bound,
    the two agree within 4 ulps of the bound for every R up to 1e300."""
    unit = 2.0**-53
    near_unit = np.random.default_rng(15)
    points = [(n, 1.0 + 2.0**-52) for n in (2, 3, 4, 5, 60, 61, 3000)]
    points += [(n, 8.0 / 7.0) for n in (2, 3, 60, 3000)]
    for k in range(300):
        n = int(near_unit.integers(2, 61)) if k % 2 else int(near_unit.integers(2, 3001))
        points.append((n, 1.0 + float(2.0 ** near_unit.uniform(-52.0, math.log2(1.0 / 7.0)))))
    rng = np.random.default_rng(14)
    for k in range(300):
        n = int(rng.integers(2, 301)) if k % 2 else int(rng.integers(2, 3001))
        points.append((n, float(math.exp(rng.uniform(math.log(8.0 / 7.0), math.log(1e12))))))
    for n, ratio in points:
        exact = _joint_gap_60_digits(n, ratio)
        closed, _ = bound_kl_joint(n, ratio)
        assert abs((Decimal(closed) - exact) / exact) <= Decimal(8 * unit), (n, ratio, closed)
    for ratio in 10.0 ** rng.uniform(math.log10(8.0 / 7.0), 300.0, size=200):
        report = bounds_report(2, float(ratio))
        gap = abs(report.joint_kl_upper - report.separate_kl_upper)
        assert gap <= 4 * math.ulp(report.separate_kl_upper), (ratio, gap)


def _log_det_bounds_60_digits(n: int, ratio: float) -> tuple[Decimal, Decimal]:
    """(upper log|S|, upper log|C|) = (n ln(1 + x j(n-j)/n^2), -ln(1 + x/4)),
    x = (R-1)^2/R and j = floor(n/2), in 60-digit decimal arithmetic from
    the exact binary value of R."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, j = Decimal(ratio), n // 2
        x = (r - 1) ** 2 / r
        return n * (1 + x * j * (n - j) / (n * n)).ln(), -(1 + x / 4).ln()


def test_log_det_bounds_to_rounding_near_unit_ratio():
    """Both separate log-det bounds are O((R-1)^2) near R = 1; they hold to
    a few roundings over R - 1 from 1e-15 to 3, so their sum is never a
    negative bound on the gap and, from n = 3, never undercuts the joint
    bound.  At n = 2 the two are the same function, and they agree within
    4 ulps of the bound itself."""
    rng = np.random.default_rng(13)
    points = [(2, 1.0 + 1e-9), (3, 1.0 + 1e-10), (10, 1.0 + 1e-6), (5, 1.0 + 1e-15), (7, 4.0)]
    for k in range(200):
        n = int(rng.integers(2, 3001)) if k % 2 else int(rng.integers(2, 60))
        points.append((n, 1.0 + 10.0 ** rng.uniform(-15.0, math.log10(3.0))))
    rounding = 4 * np.finfo(float).eps
    for n, ratio in points:
        report = bounds_report(n, ratio)
        exact_s, exact_c = _log_det_bounds_60_digits(n, ratio)
        for got, exact in (
            (report.upper_log_det_S, exact_s),
            (bound_log_det_S(n, ratio)[0], exact_s),
            (report.upper_log_det_C, exact_c),
            (bound_log_det_C(n, ratio)[0], exact_c),
        ):
            assert abs((Decimal(got) - exact) / exact) <= rounding, (n, ratio, got)
        assert report.joint_kl_upper >= 0.0
        if n == 2:
            gap = abs(report.joint_kl_upper - report.separate_kl_upper)
            assert gap <= 4 * math.ulp(report.separate_kl_upper), (ratio, gap)
        else:
            assert report.joint_kl_upper <= report.separate_kl_upper, (n, ratio)


def test_bounds_past_double_range_raise_overflow():
    # upper_trace_S is about n R / 4, past the largest double here.
    for n, ratio in ((100, 1e307), (3000, 1e306)):
        with pytest.raises(OverflowError, match="overflow"):
            bounds_report(n, ratio)


# ------------------------------------------------------ values-only report


def test_bounds_report_builds_no_profile(monkeypatch):
    built = []
    validate = EigenProfile.__post_init__

    def counting(profile):
        built.append(profile)
        validate(profile)

    monkeypatch.setattr(EigenProfile, "__post_init__", counting)
    grid = [1.0, 1.0 + 1e-9, 1.1, 4.0, 1e6]
    for n in (2, 3, 12, 64):
        for ratio in grid:
            bounds_report(n, ratio)
        envelope_sweep(n, grid)
    assert built == []


# (n, R, overflows): either side of where upper_trace_S, about
# R floor(n/2) ceil(n/2) / n, leaves double range, plus the unit-ratio end.
_RAISE_EDGE = [
    (5, 1.49e308, False),
    (5, 1.5e308, True),
    (100, 7.1e306, False),
    (100, 7.2e306, True),
    (3000, 2.39e305, False),
    (3000, 2.4e305, True),
    (2, 1.7976931348623157e308, False),
    (3, 1.7976931348623157e308, False),
    (4, 1.7976931348623157e308, False),
    (2, 1.0, False),
    (3, 1.0 + 2.0**-52, False),
]


def test_report_raises_only_where_a_bound_overflows():
    """bounds_report builds no profile, so it raises only on its values:
    OverflowError past double range, with the point in the message.  Just
    inside that edge every maximizer is still built and valid."""
    for n, ratio, overflows in _RAISE_EDGE:
        if overflows:
            message = re.escape(f"bounds at n={n}, R={ratio!r} overflow")
            with pytest.raises(OverflowError, match=message):
                bounds_report(n, ratio)
        else:
            bounds_report(n, ratio)
            for profile in extremal_profiles(n, ratio).values():
                _assert_profile_feasible(profile, n, ratio)
