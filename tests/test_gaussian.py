"""Closed-form factorized approximations and the entropy-gap decomposition."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgvi.cli import main
from fgvi.engine import VariationalState, gaussian_log_density_fn, max_entropy_gap_bound
from fgvi import gaussian, linalg
from fgvi.gaussian import (
    LOG_TWO_PI_E,
    ConstantOffDiagClosedForms,
    DecompositionReport,
    FactorizedGaussian,
    GaussianTarget,
    IndefiniteError,
    ShrinkageMatrix,
    constant_offdiag_closed_forms,
    correlation_from_covariance,
    decompose,
    fgvi_solve,
    gaussian_entropy,
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
from fgvi.linalg import ConditioningError

from conftest import random_spd_target, target_corpus


def _constant_offdiag(n, eps):
    return constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=eps))


# ---------------------------------------------------------------- types


def test_target_rejects_asymmetric_covariance():
    cov = np.array([[1.0, 0.5], [0.3, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        GaussianTarget(mean=np.zeros(2), covariance=cov)


def _whole_matrix_symmetry_check(a, what):
    """The symmetry check as one pass over whole-matrix temporaries (with
    inf - inf and inf / inf, which make nan, kept silent)."""
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.abs(a))
        gap = np.abs(a - a.T)
        if not np.any(gap > gaussian.SYMMETRY_RTOL * scale):
            return 0.5 * (a + a.T)
        i, j = np.unravel_index(int(np.argmax(gap / scale)), a.shape)
        raise ValueError(
            f"{what} is not symmetric: entries ({i},{j}) and ({j},{i}) "
            f"differ by {gap[i, j]:.3e}"
        )


def test_blocked_symmetry_check_matches_whole_matrix_pass():
    """Same accept/reject decision, same message, bit-identical output, on
    symmetric, nearly symmetric, asymmetric and non-finite inputs; n = 300
    and 700 span several 256 x 256 tiles."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 300, 700):
        base = rng.standard_normal((n, n)) * np.exp(rng.normal(0.0, 3.0, (n, n)))
        symmetric = base + base.T
        cases = [symmetric]
        # Relative jitter well inside, and straddling, the 1e-12 tolerance.
        for spread in (2e-13, 1.5e-12):
            cases.append(symmetric * (1.0 + rng.uniform(-spread, spread, (n, n))))
        one_off = symmetric.copy()
        one_off[n - 1, 0] += 1e-6 * max(1.0, abs(one_off[n - 1, 0]))
        cases.append(one_off)
        for bad in (np.nan, np.inf):
            non_finite = symmetric.copy()
            non_finite[0, n - 1] = bad
            cases.append(non_finite)
        for a in cases:
            try:
                expected = _whole_matrix_symmetry_check(a, "covariance")
            except ValueError as exc:
                with pytest.raises(ValueError) as info, np.errstate(invalid="ignore"):
                    gaussian._check_square_symmetric(a, "covariance")
                assert str(info.value) == str(exc)
                continue
            with np.errstate(invalid="ignore"):
                got = gaussian._check_square_symmetric(a, "covariance")
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # Each kind of input was seen: accepted-and-changed and rejected.
    assert not np.array_equal(_whole_matrix_symmetry_check(cases[1], "c"), cases[1])
    with pytest.raises(ValueError, match=r"entries \(699,0\) and \(0,699\)"):
        gaussian._check_square_symmetric(one_off, "covariance")


@pytest.mark.parametrize("n", [255, 256, 257, 513])
def test_exact_symmetry_test_reads_every_tile(n):
    """Exactly symmetric input comes back as itself, not a copy, and a
    target built from it keeps an equal copy of its own.  One entry a ulp
    off its mirror, on either side of any tile edge, is found: the result
    is then a new array, 0.5 * (a + a.T) bit for bit, and symmetric."""
    base = np.random.default_rng(n).standard_normal((n, n))
    a = base + base.T + 2.0 * n * np.eye(n)  # diagonally dominant: a covariance
    assert gaussian._check_square_symmetric(a, "covariance") is a
    kept = GaussianTarget(np.zeros(n), a).covariance
    assert not np.shares_memory(kept, a)
    assert np.array_equal(kept.view(np.int64), a.view(np.int64))
    nudged = a.copy()
    nudged[n - 1, 0] = np.nextafter(nudged[n - 1, 0], np.inf)
    kept = GaussianTarget(np.zeros(n), nudged).covariance
    assert not np.shares_memory(kept, nudged)
    assert np.array_equal(kept.view(np.int64), (0.5 * (nudged + nudged.T)).view(np.int64))
    tile = gaussian._SYMMETRY_TILE
    edges = [k for k in (0, tile - 1, tile, 2 * tile - 1, 2 * tile, n - 1) if k < n]
    for i in edges:
        for j in edges:
            if i == j:
                continue
            b = a.copy()
            b[i, j] = np.nextafter(b[i, j], np.inf)
            got = gaussian._check_square_symmetric(b, "covariance")
            assert not np.shares_memory(got, b)
            assert np.array_equal(got.view(np.int64), (0.5 * (b + b.T)).view(np.int64))
            assert np.array_equal(got.view(np.int64), got.T.view(np.int64))


def test_signed_zero_mirror_pair_is_averaged_not_copied():
    a = np.eye(3)
    a[0, 2] = -0.0
    got = gaussian._check_square_symmetric(a, "covariance")
    assert np.array_equal(got.view(np.int64), (0.5 * (a + a.T)).view(np.int64))
    assert not np.signbit(got[0, 2]) and not np.signbit(got[2, 0])


def test_symmetrizing_near_the_double_range_does_not_overflow():
    """a_01 + a_10 overflows in both paths; the tolerant one halves first."""
    top = np.finfo(float).max
    exact = np.array([[top, 0.9 * top], [0.9 * top, top]])
    assert np.array_equal(gaussian._check_square_symmetric(exact, "c"), exact)
    near = exact.copy()
    near[1, 0] = np.nextafter(near[1, 0], 0.0)
    got = gaussian._check_square_symmetric(near, "c")
    assert got[0, 1] == got[1, 0] == 0.5 * near[0, 1] + 0.5 * near[1, 0]
    assert np.isfinite(got).all()
    GaussianTarget(np.zeros(2), near)


def test_target_never_aliases_the_callers_covariance():
    base = np.random.default_rng(5).standard_normal((6, 6))
    exact = base @ base.T + 6.0 * np.eye(6)
    near = exact * (1.0 + 1e-14 * np.triu(np.ones((6, 6)), 1))
    bits = [np.array_equal(m.view(np.int64), m.T.view(np.int64)) for m in (exact, near)]
    assert bits == [True, False]
    for cov in (exact, near):
        target = GaussianTarget(np.zeros(6), cov)
        kept, report = target.covariance.copy(), decompose(target)
        cov[...] = np.eye(6)
        assert np.array_equal(target.covariance, kept)
        assert decompose(target) == report


@pytest.mark.parametrize("field", ["mean", "covariance"])
def test_target_refuses_complex_input(field):
    args = {"mean": np.zeros(2), "covariance": np.eye(2)}
    args[field] = args[field] * (1 + 0j)
    with pytest.raises(ValueError, match=f"{field} must be real"):
        GaussianTarget(**args)


def test_target_rejects_indefinite_covariance():
    # Indefinite, singular, and with a non-positive diagonal entry.
    for cov in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -2.0]]):
        with pytest.raises(ConditioningError, match="column 1") as info:
            GaussianTarget(mean=np.zeros(2), covariance=np.array(cov))
        assert info.value.column == 1
        assert info.value.pivot <= info.value.threshold


def test_target_rejects_non_finite_entries():
    cov = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(ValueError):
        GaussianTarget(mean=np.zeros(2), covariance=cov)
    with pytest.raises(ValueError):
        GaussianTarget(mean=np.array([np.inf, 0.0]), covariance=np.eye(2))
    # Rejected before the symmetry check, where inf - inf is a RuntimeWarning.
    with pytest.raises(ValueError, match="finite"):
        GaussianTarget(mean=np.zeros(2), covariance=np.diag([1.0, np.inf]))


def test_target_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GaussianTarget(mean=np.zeros(3), covariance=np.eye(2))


def test_factorized_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="index 1"):
        FactorizedGaussian(mean=np.zeros(2), variances=np.array([1.0, 0.0]))


def test_report_rejects_broken_gap_identity():
    with pytest.raises(ValueError):
        DecompositionReport(
            log_det_S=1.0,
            log_det_C=-0.5,
            entropy_p=1.0,
            entropy_q=0.5,
            entropy_gap=0.9,  # should be 0.25
            kl_q_p=0.9,
            condition_number=2.0,
        )


def test_report_rejects_negative_shrinkage_term():
    with pytest.raises(ValueError):
        DecompositionReport(
            log_det_S=-1.0,
            log_det_C=0.0,
            entropy_p=0.0,
            entropy_q=0.5,
            entropy_gap=-0.5,
            kl_q_p=-0.5,
            condition_number=1.0,
        )


def _report(**changes):
    """A DecompositionReport that holds every invariant, but for ``changes``."""
    fields = dict(
        log_det_S=0.2,
        log_det_C=-0.2,
        entropy_p=1.0,
        entropy_q=1.0,
        entropy_gap=0.0,
        kl_q_p=0.0,
        condition_number=1.5,
    )
    return DecompositionReport(**{**fields, **changes})


# Each refusal of the module that no other test reaches: (call, type, message).
_REFUSALS = {
    "non-square covariance": (
        lambda: GaussianTarget(np.zeros(2), np.ones((2, 3))),
        ValueError,
        "covariance must be a square matrix, got shape (2, 3)",
    ),
    "matrix mean": (
        lambda: GaussianTarget(np.zeros((1, 1)), np.eye(1)),
        ValueError,
        "mean must be a vector of length >= 1, got shape (1, 1)",
    ),
    "factorized lengths differ": (
        lambda: FactorizedGaussian(np.zeros(2), np.ones(3)),
        ValueError,
        "mean and variances must be vectors of equal length >= 1, got shapes (2,) and (3,)",
    ),
    "factorized mean not finite": (
        lambda: FactorizedGaussian(np.array([np.nan, 0.0]), np.ones(2)),
        ValueError,
        "mean must be finite",
    ),
    "shrinkage matrix": (
        lambda: ShrinkageMatrix(np.ones((2, 2))),
        ValueError,
        "diagonal must be a vector of length >= 1, got shape (2, 2)",
    ),
    "shrinkage not finite": (
        lambda: ShrinkageMatrix(np.array([1.0, np.inf])),
        ValueError,
        "diagonal must be finite",
    ),
    "report KL not finite": (
        lambda: _report(kl_q_p=math.inf),
        OverflowError,
        "kl_q_p is not finite: inf",
    ),
    "report entropy nan": (
        lambda: _report(entropy_p=math.nan, entropy_gap=math.nan),
        OverflowError,
        "entropy_p is not finite: nan",
    ),
    "report positive log_det_C": (
        lambda: _report(log_det_S=0.1, log_det_C=0.1, entropy_gap=0.1, kl_q_p=0.1),
        ValueError,
        "log_det_C must be non-positive, got 0.1",
    ),
    "report KL off the gap": (
        lambda: _report(kl_q_p=0.5),
        ValueError,
        "entropy gap 0.0 does not match KL 0.5",
    ),
    "report condition below 1": (
        lambda: _report(condition_number=0.5),
        ValueError,
        "condition number must be >= 1, got 0.5",
    ),
    "entropy of a nan log-det": (
        lambda: gaussian_entropy(math.nan, 2),
        ValueError,
        "log-determinant must be finite, got nan",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusals(case):
    call, kind, message = _REFUSALS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


# ---------------------------------------------------- correlation rescaling


def test_correlation_of_identity_is_identity():
    target = GaussianTarget(mean=np.zeros(3), covariance=np.eye(3))
    assert np.array_equal(correlation_from_covariance(target).entries, np.eye(3))


def test_correlation_hand_example():
    target = GaussianTarget(
        mean=np.zeros(2), covariance=np.array([[4.0, 1.0], [1.0, 1.0]])
    )
    expected = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(correlation_from_covariance(target).entries, expected)


def test_correlation_of_constant_offdiag_is_itself():
    target = _constant_offdiag(6, 0.37)
    c = correlation_from_covariance(target)
    assert np.allclose(c.entries, target.covariance, rtol=0, atol=1e-15)
    assert np.all(np.diag(c.entries) == 1.0)


def test_constant_offdiag_eigenstructure():
    n, eps = 9, 0.62
    values = np.sort(np.linalg.eigvalsh(_constant_offdiag(n, eps).covariance))
    assert np.allclose(values[:-1], (1 - eps) * np.ones(n - 1), atol=1e-9)
    assert values[-1] == pytest.approx(1 + (n - 1) * eps, abs=1e-9)


# ------------------------------------------------------------ fgvi_solve


def test_diagonal_target_is_fixed_point():
    cov = np.diag([0.5, 2.0, 7.0])
    target = GaussianTarget(mean=np.array([1.0, -2.0, 0.0]), covariance=cov)
    approx = fgvi_solve(target)
    assert np.array_equal(approx.mean, target.mean)
    assert np.allclose(approx.variances, np.diag(cov), rtol=1e-14)


def test_bivariate_half_correlation():
    approx = fgvi_solve(_constant_offdiag(2, 0.5))
    assert np.allclose(approx.variances, [0.75, 0.75], rtol=1e-12)


def test_solution_matches_explicit_inverse():
    target = random_spd_target(5, np.random.default_rng(11))
    approx = fgvi_solve(target)
    expected = 1.0 / np.diag(np.linalg.inv(target.covariance))
    assert np.allclose(approx.variances, expected, rtol=1e-10)


def test_reverse_kl_variances_are_exact_diagonal():
    for seed in range(5):
        target = random_spd_target(7, np.random.default_rng(seed))
        approx = reverse_kl_solve(target)
        assert np.array_equal(approx.variances, np.diag(target.covariance))
        assert np.array_equal(approx.mean, target.mean)


def test_reverse_kl_shrinkage_all_ones():
    target = _constant_offdiag(10, 0.9)
    shrink = shrinkage_matrix(target, reverse_kl_solve(target))
    assert np.array_equal(shrink.diagonal, np.ones(10))


# ------------------------------------------------------------- shrinkage


def test_shrinkage_hand_example():
    target = _constant_offdiag(2, 0.5)
    shrink = shrinkage_matrix(target, fgvi_solve(target))
    assert np.allclose(shrink.diagonal, [4.0 / 3.0, 4.0 / 3.0], rtol=1e-12)
    assert shrink.trace == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_shrinkage_matches_inverse_correlation_diagonal():
    for seed, n in enumerate((2, 4, 9, 30)):
        target = random_spd_target(n, np.random.default_rng(40 + seed))
        shrink = shrinkage_matrix(target, fgvi_solve(target))
        c = correlation_from_covariance(target)
        expected = np.diag(np.linalg.inv(c.entries))
        assert np.allclose(shrink.diagonal, expected, rtol=1e-9)


def test_shrinkage_approaches_one_over_one_minus_eps():
    eps = 0.4
    values = [
        constant_offdiag_closed_forms(n, eps).trace_S_over_n
        for n in (10, 100, 10000)
    ]
    errors = [abs(v - 1.0 / (1.0 - eps)) for v in values]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_shrinkage_dimension_mismatch():
    target = _constant_offdiag(3, 0.1)
    approx = FactorizedGaussian(mean=np.zeros(2), variances=np.ones(2))
    with pytest.raises(ValueError):
        shrinkage_matrix(target, approx)



def test_shrinkage_over_a_subnormal_variance_is_refused_without_warning():
    """Sigma_00 / Psi_00 = 1 / 5e-324 overflows: ShrinkageMatrix refuses the
    infinite ratio, and the division's overflow is no RuntimeWarning."""
    target = GaussianTarget(mean=np.zeros(2), covariance=np.eye(2))
    approx = FactorizedGaussian(mean=np.zeros(2), variances=np.array([5e-324, 1.0]))
    with pytest.raises(ValueError, match="diagonal must be finite"):
        shrinkage_matrix(target, approx)

# --------------------------------------------------------------- entropy


def test_standard_normal_entropy():
    assert gaussian_entropy(0.0, 1) == pytest.approx(1.4189385332046727, abs=1e-12)


def test_entropy_additivity():
    assert gaussian_entropy(0.0, 2) == pytest.approx(2 * gaussian_entropy(0.0, 1))


def test_entropy_guard_on_collapsed_determinant():
    with pytest.raises(ValueError):
        gaussian_entropy(-701.0, 1)
    with pytest.raises(ValueError):
        gaussian_entropy(0.0, 0)


@pytest.mark.parametrize("n", [0, 1.5, -2, 2.0])
def test_entropy_refuses_a_dimension_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n!r}$"):
        gaussian_entropy(0.0, n)


# ------------------------------------------------------------- decompose


def test_diagonal_decomposition_is_all_zero():
    # 0.01 I at n = 200: log|Sigma| = -921 in total, -4.6 per coordinate.
    for covariance in (np.diag([1.0, 2.0, 3.0]), 0.01 * np.eye(200)):
        n = covariance.shape[0]
        report = decompose(GaussianTarget(mean=np.zeros(n), covariance=covariance))
        assert report.log_det_S == pytest.approx(0.0, abs=1e-12)
        assert report.log_det_C == pytest.approx(0.0, abs=1e-12)
        assert report.entropy_gap == pytest.approx(0.0, abs=1e-12)
        assert report.kl_q_p == pytest.approx(0.0, abs=1e-12)
        assert report.condition_number == pytest.approx(1.0, rel=1e-12)


def test_single_coordinate_target_has_zero_gap():
    report = decompose(GaussianTarget(mean=np.zeros(1), covariance=np.array([[2.5]])))
    assert report.entropy_gap == 0.0
    assert report.log_det_S == 0.0
    assert report.log_det_C == 0.0
    assert report.condition_number == 1.0


def test_strongly_coupled_ten_dimensional_values():
    report = decompose(_constant_offdiag(10, 0.9))
    # closed forms: log|S| = -10 log[(0.1)(9.1)/8.2],
    # log|C| = 9 log(0.1) + log(9.1), R = 9.1/0.1
    assert report.log_det_S == pytest.approx(10 * math.log(8.2 / 0.91), rel=1e-12)
    assert report.log_det_C == pytest.approx(9 * math.log(0.1) + math.log(9.1), rel=1e-12)
    assert report.entropy_gap == pytest.approx(1.734728456995441, rel=1e-10)
    assert report.condition_number == pytest.approx(91.0, rel=1e-9)


def test_gap_equals_kl_on_random_targets():
    for target in target_corpus(8, 50, base_seed=7):
        report = decompose(target)
        assert abs(report.entropy_gap - report.kl_q_p) <= 1e-9 * max(
            1.0, abs(report.kl_q_p)
        )


def test_kl_matches_dense_divergence():
    """kl_q_p against KL(q || p) of the fitted q, with Sigma^-1 and
    log|Sigma| from dense numpy, not from the target's factor:

        KL = (sum_i (Sigma^-1)_ii Psi_ii - n + log|Sigma| - sum_i log Psi_ii) / 2.

    The gap-equals-KL check cannot see an error in the shrinkage diagonal,
    which moves both sides alike; this one can."""
    worst = 0.0
    for n in (2, 5, 20, 100):
        for target in target_corpus(n, 500):
            psi = fgvi_solve(target).variances
            sign, log_det_sigma = np.linalg.slogdet(target.covariance)
            assert sign == 1.0
            trace = float(np.diag(np.linalg.inv(target.covariance)) @ psi)
            dense = 0.5 * (trace - n + log_det_sigma - float(np.sum(np.log(psi))))
            kl = decompose(target).kl_q_p
            worst = max(worst, abs(kl - dense) / max(1.0, abs(dense)))
    assert worst <= 1e-9, worst


def test_decompose_rejects_non_positive_correlation_eigenvalue():
    # An unjittered kernel matrix whose factor passes the pivot test but
    # whose smallest computed eigenvalue is negative: the condition number
    # would be about -3e16.
    target = squared_exponential_target(
        KernelConfig(n=14, rho=68.10506747159287, seed=404, jitter=0.0)
    )
    with pytest.raises(IndefiniteError, match="eigenvalue") as info:
        decompose(target)
    assert isinstance(info.value, ArithmeticError)
    assert info.value.eigenvalue <= 0.0
    assert f"{info.value.eigenvalue:.6e}" in str(info.value)


def test_entropy_fields_are_consistent():
    target = random_spd_target(6, np.random.default_rng(123))
    report = decompose(target)
    assert report.entropy_gap == pytest.approx(
        report.entropy_p - report.entropy_q, abs=1e-12
    )
    sign, log_det = np.linalg.slogdet(target.covariance)
    assert report.entropy_p == pytest.approx(
        0.5 * (log_det + 6 * LOG_TWO_PI_E), rel=1e-12
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**31 - 1))
def test_decomposition_invariants_property(n, seed):
    target = random_spd_target(n, np.random.default_rng(seed))
    report = decompose(target)
    approx = fgvi_solve(target)
    sigma_diag = np.diag(target.covariance)
    # variance shrinkage, entry-wise
    assert np.all(approx.variances <= sigma_diag * (1.0 + 1e-10))
    assert report.entropy_gap >= -1e-9
    assert report.log_det_S >= -1e-10
    assert report.log_det_C <= 1e-10
    # strictness whenever a meaningful correlation exists
    c = correlation_from_covariance(target).entries
    off = np.abs(c - np.eye(n))
    if np.any(off > 1e-8):
        assert report.entropy_gap > 0.0
        coupled = np.flatnonzero(np.max(off, axis=1) > 1e-8)
        assert np.all(approx.variances[coupled] < sigma_diag[coupled])


def test_one_factorization_per_target(monkeypatch, tmp_path, capsys):
    """A target makes one LAPACK factorization, one triangular inverse and
    one eigvalsh, for κ.  Of what is built from it, only the whitening, which
    the target does not keep, makes one more pair: once per density closure,
    never per call.  Nothing else finds an eigenvalue."""
    calls = []

    def counting(owner, name):
        routine = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, args[0].shape))
            return routine(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("dpotrf", "dtrtri"):
        counting(linalg.lapack, name)
    counting(np.linalg, "eigvalsh")

    def built(n):
        return [("dpotrf", (n, n)), ("dtrtri", (n, n)), ("eigvalsh", (n, n))]

    pair = [("dpotrf", (9, 9)), ("dtrtri", (9, 9))]
    target = random_spd_target(9, np.random.default_rng(3))
    assert calls == built(9)
    decompose(target)
    fgvi_solve(target)
    correlation_from_covariance(target)
    state = VariationalState(np.zeros(9), np.zeros(9), 1, ((1, 0.0),))
    max_entropy_gap_bound(target, state)
    assert calls == built(9)
    density = gaussian_log_density_fn(target)
    assert calls == built(9) + pair
    density(np.zeros((4, 9)))
    density(np.ones((2, 9)))
    assert calls == built(9) + pair

    # A Wishart draw is not factored until a target is built from it.
    calls.clear()
    GaussianTarget(mean=np.zeros(6), covariance=random_correlation_matrix(6, 4).entries)
    assert calls == built(6)

    # A mixture job builds its moment-matched target once.
    calls.clear()
    config = tmp_path / "short.cfg"
    config.write_text("max_steps = 50\n")
    assert main(["mixture", "--n", "3", "--config", str(config)]) == 0
    capsys.readouterr()
    assert calls == built(3)


def test_target_keeps_one_square_array():
    """A built target's arrays are the covariance, the mean and S, 8 (n^2 + 2n)
    bytes: the whitening is rebuilt on each call, to the same bits."""
    for n in (1, 9, 40):
        target = random_spd_target(n, np.random.default_rng(n))
        arrays = [v for v in vars(target).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 8 * (n * n + 2 * n)
        first, second = target.whitening(), target.whitening()
        assert first is not second
        assert first.tobytes() == second.tobytes()


# ------------------------------------------------------ factor beside κ

CROSSOVER = gaussian._OVERLAP_MIN_N


def _schedule(monkeypatch, overlap):
    """Force the factor beside eigvalsh at every n, or one after the other;
    the threads the factor ran on are listed (True: the calling thread)."""
    monkeypatch.setattr(gaussian, "_ONE_BLAS_THREAD", overlap)
    monkeypatch.setattr(gaussian, "_OVERLAP_MIN_N", 1)
    ran_on, factor = [], gaussian._factor_correlation

    def spied(work):
        ran_on.append(threading.current_thread() is threading.main_thread())
        return factor(work)

    monkeypatch.setattr(gaussian, "_factor_correlation", spied)
    return ran_on


def _schedule_covariance(family, n):
    """Equicorrelated, squared-exponential, Wishart and rescaled Wishart
    covariances, each exactly symmetric and positive definite."""
    rng = np.random.default_rng(n)
    if family == "eq":
        cov = np.full((n, n), 0.3)
        np.fill_diagonal(cov, 1.0)
        return cov
    if family == "se":
        x = rng.uniform(0.0, KernelConfig.domain_upper, n)
        return np.exp(-((x[:, None] - x[None, :]) / 0.5) ** 2) + 1e-8 * np.eye(n)
    cov = random_correlation_matrix(n, n).entries
    if family == "rescaled":
        scale = np.exp(rng.normal(0.0, 1.0, n))
        cov = cov * np.outer(scale, scale)
    return cov


@pytest.mark.parametrize("family", ["eq", "se", "wishart", "rescaled"])
@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, 2 * CROSSOVER])
def test_factor_beside_eigvalsh_gives_the_same_bits(monkeypatch, family, n):
    """At the crossover, one below it and twice it, a target and its report
    are the same bit for bit whether C is factored on a worker thread beside
    eigvalsh or before it; the worker factors and inverts C in the memory of
    the one copy made for it, and it is gone once the target is built."""
    cov, threads = _schedule_covariance(family, n), threading.enumerate()
    shared = []
    for name in ("dpotrf", "dtrtri"):
        routine = getattr(linalg.lapack, name)

        def in_place(a, *args, routine=routine, **kwargs):
            out = routine(a, *args, **kwargs)
            shared.append(np.shares_memory(out[0], a))
            return out

        monkeypatch.setattr(linalg.lapack, name, in_place)
    built = {}
    for overlap in (False, True):
        ran_on = _schedule(monkeypatch, overlap)
        target = GaussianTarget(np.zeros(n), cov)
        assert ran_on == [not overlap]
        assert threading.enumerate() == threads
        built[overlap] = target, decompose(target)
    assert shared == [True, True] * 2
    (plain, plain_report), (beside, beside_report) = built[False], built[True]
    assert np.array_equal(plain._shrinkage.view(np.int64), beside._shrinkage.view(np.int64))
    assert np.array_equal(plain.covariance.view(np.int64), beside.covariance.view(np.int64))
    for name in ("_log_det_c", "_eigenvalue_min", "_eigenvalue_max"):
        assert getattr(plain, name) == getattr(beside, name), name
    assert vars(plain_report) == vars(beside_report)


def test_worker_errors_reach_the_caller_and_leave_no_thread(monkeypatch):
    """A ConditioningError raised on the worker reaches the caller with the
    same column, pivot and threshold as one raised in turn, and it comes
    first there as it does in turn; an eigvalsh error reaches the caller
    too.  No thread is left alive after any of them."""
    n, threads = CROSSOVER, threading.enumerate()
    a = np.random.default_rng(7).standard_normal((n, n - 3))
    singular = a @ a.T
    singular = singular + singular.T  # exactly symmetric, rank n - 3
    raised = []
    for overlap in (False, True):
        _schedule(monkeypatch, overlap)
        with pytest.raises(ConditioningError) as info:
            GaussianTarget(np.zeros(n), singular)
        assert threading.enumerate() == threads
        raised.append((info.value.column, info.value.pivot, info.value.threshold, str(info.value)))
    assert raised[0] == raised[1]

    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    for overlap in (False, True):
        _schedule(monkeypatch, overlap)
        with pytest.raises(ConditioningError):
            GaussianTarget(np.zeros(n), singular)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            GaussianTarget(np.zeros(n), _schedule_covariance("eq", n))
        assert threading.enumerate() == threads


def test_no_thread_below_the_crossover_or_with_threaded_blas(monkeypatch):
    """Below the crossover, and at any n unless BLAS runs one thread, the
    target starts no thread; one BLAS thread is read from the variables
    OpenBLAS and MKL read."""

    def refused(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refused)
    n = CROSSOVER
    monkeypatch.setattr(gaussian, "_ONE_BLAS_THREAD", True)
    GaussianTarget(np.zeros(n - 1), _schedule_covariance("eq", n - 1))
    with pytest.raises(AssertionError, match="thread was started"):
        GaussianTarget(np.zeros(n), _schedule_covariance("eq", n))
    monkeypatch.setattr(gaussian, "_ONE_BLAS_THREAD", False)
    GaussianTarget(np.zeros(2 * n), _schedule_covariance("eq", 2 * n))

    pinned = gaussian._one_blas_thread
    every = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert pinned(dict.fromkeys(every, "1"))
    assert pinned({"OPENBLAS_NUM_THREADS": "1"})
    assert pinned({"OMP_NUM_THREADS": "1"})
    assert not pinned({})
    assert not pinned({"MKL_NUM_THREADS": "1"})
    assert not pinned({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"})
    assert not pinned({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"})


def _invariant_fields(target):
    report = decompose(target)
    fields = {
        name: getattr(report, name)
        for name in ("log_det_S", "log_det_C", "condition_number", "entropy_gap")
    }
    fields["psi_ratio"] = fgvi_solve(target).variances / np.diag(target.covariance)
    return fields


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**31 - 1))
def test_decomposition_metamorphic_property(n, seed):
    # Rescaling coordinates, permuting them and shifting the mean cannot
    # change the decomposition.
    rng = np.random.default_rng(seed)
    target = random_spd_target(n, rng)
    base = _invariant_fields(target)
    cov, mean = target.covariance, target.mean

    # Power-of-two scales and a mean shift are exact in floating point, and
    # so must the scale-free fields be.
    scale = 2.0 ** rng.integers(-30, 31, size=n)
    shift = rng.normal(0.0, 5.0, size=n)
    shifted = _invariant_fields(
        GaussianTarget(mean=mean + shift, covariance=cov * np.outer(scale, scale))
    )
    for name in ("log_det_S", "log_det_C", "condition_number"):
        assert shifted[name] == base[name], name
    assert np.array_equal(shifted["psi_ratio"], base["psi_ratio"])

    perm = rng.permutation(n)
    permuted = _invariant_fields(
        GaussianTarget(mean=mean[perm], covariance=cov[np.ix_(perm, perm)])
    )
    for name in ("log_det_S", "log_det_C", "condition_number", "entropy_gap"):
        assert permuted[name] == pytest.approx(base[name], rel=1e-9, abs=1e-9), name
    assert np.allclose(permuted["psi_ratio"], base["psi_ratio"][perm], rtol=1e-9, atol=1e-9)

    scale = np.exp(rng.normal(0.0, 1.0, size=n))
    rescaled = _invariant_fields(
        GaussianTarget(mean=mean, covariance=cov * np.outer(scale, scale))
    )
    tol = max(1e-9, n * base["condition_number"] * 2.0**-52)
    for name in ("log_det_S", "log_det_C", "condition_number"):
        assert rescaled[name] == pytest.approx(base[name], rel=tol, abs=tol), name
    assert np.allclose(rescaled["psi_ratio"], base["psi_ratio"], rtol=tol, atol=tol)


# ------------------------------------------------------------ closed forms


def test_closed_forms_zero_eps():
    forms = constant_offdiag_closed_forms(5, 0.0)
    assert forms.psi_ratio == 1.0
    assert forms.log_det_S == 0.0
    assert forms.log_det_C == 0.0
    assert forms.per_component_gap == 0.0
    assert forms.trace_S_over_n == 1.0


def test_closed_forms_bivariate():
    assert constant_offdiag_closed_forms(2, 0.5).psi_ratio == pytest.approx(0.75)


def test_closed_forms_reject_bad_eps():
    for eps in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            constant_offdiag_closed_forms(4, eps)
    with pytest.raises(ValueError):
        constant_offdiag_closed_forms(1, 0.5)


def test_closed_forms_match_dense_decomposition():
    for n in (2, 3, 17, 200):
        for eps in (0.05, 0.5, 0.93):
            forms = constant_offdiag_closed_forms(n, eps)
            report = decompose(_constant_offdiag(n, eps))
            assert report.log_det_S == pytest.approx(forms.log_det_S, rel=1e-8)
            assert report.log_det_C == pytest.approx(forms.log_det_C, rel=1e-8)
            assert report.entropy_gap / n == pytest.approx(
                forms.per_component_gap, rel=1e-8, abs=1e-12
            )
            psi = fgvi_solve(_constant_offdiag(n, eps)).variances
            assert psi[0] == pytest.approx(forms.psi_ratio, rel=1e-8)


def test_closed_forms_record_is_frozen():
    forms = constant_offdiag_closed_forms(3, 0.2)
    assert isinstance(forms, ConstantOffDiagClosedForms)
    with pytest.raises(AttributeError):
        forms.psi_ratio = 1.0

