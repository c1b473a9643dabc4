"""The four benchmark workloads: input synthesis, ops, layer probes, oracles.

Every workload is an endless sequence of cycles drawn from its seed; a
cycle is a fixed pattern of ops (one target per family, one fit per
target kind, one CLI job per job kind), and a measured run always ends on
a cycle boundary, so every run sees the same op mix.

Timed ops never fall in the domain of a known seed defect: target specs
are screened with LAPACK before they are used (see ``known_defect``), and
a drawn spec in a defect's domain is replaced by a fresh draw.  Each
target workload also has a fixed, seeded list of specs inside those
domains (``defect_specs``); traced runs run them after the timed loop, so
the defects stay visible in the per-layer error counts without making the
timed op count depend on them.

An op calls fgvi's public functions through ``call(name, fn, *args)``
(see ``tracing``), filling ``out`` as it goes so that the probes and
oracles see whatever it produced before a failure.  Probes run only in
traced runs, after the op's own span has closed: they repeat, from
outside, calls the op made inside fgvi (the factorization, the inverse
diagonal, each single bound, one log-density call), so that those layers
get timings without patching the package.  Oracles run after the timed
loop and return None, ``("wrong", name)`` for a value that disagrees with
its reference, or ``("raised", name)`` when a reference computation the
check needs raised.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from fgvi import (
    ConstantOffDiagConfig,
    GaussianTarget,
    KernelConfig,
    MixtureTarget,
    OptimizerConfig,
    bound_kl_joint,
    bound_log_det_C,
    bound_log_det_S,
    bound_trace_S,
    bounds_report,
    constant_offdiag_closed_forms,
    constant_offdiag_target,
    correlation_from_covariance,
    decompose,
    elbo_sample_terms,
    envelope_sweep,
    fgvi_solve,
    fit_fgvi,
    gaussian_log_density_fn,
    max_entropy_gap_bound,
    mixture_init_mean,
    mixture_log_density_fn,
    mixture_moments,
    random_correlation_matrix,
    shrinkage_comparison,
    squared_exponential_target,
)
from fgvi.linalg import inverse_diagonal, spd_cholesky

from stats import loads
from tracing import plain_call

REL_TOL = 1e-9
# Unit roundoff of float64.  A reference computed another way (an explicit
# inverse, an unscaled twin) agrees with the solver only to about
# n * kappa * UNIT_ROUNDOFF, the backward-error bound of a dense
# factorization or symmetric eigensolver; those oracles compare to 1e-9 or
# to that, whichever is larger.  For n * kappa below 4.5e6 it is 1e-9.
UNIT_ROUNDOFF = 2.0**-52
# Envelope slack of the CLI's measured-vs-bound validity flag, applied
# relative to the bound above magnitude 1: at n = 2 every target is
# extremal, and at kappa ~ 1e6 trace(S) ~ 1e6 differs from its bound by
# rounding alone, more than the CLI's absolute 1e-6.
ENVELOPE_SLACK = 1e-6
FIT_REL_TOL = 0.05

# Known seed defects.  fgvi rejects a log-determinant below -700 (Bug A;
# log|Psi| of the factorized solution is the lower of the two), rejects
# a Cholesky pivot at or below 1e-12 * max(diag) (Bug B), and its
# bounds_report raises for a condition number within rounding of 1.  A spec
# is in a defect's domain when LAPACK, on the covariance the spec
# describes, puts it within these margins of the threshold, so that
# rounding differences between LAPACK and fgvi's own factorization never
# decide whether a timed op fails.
LOG_DET_FLOOR = -700.0
LOG_DET_MARGIN = 50.0
PIVOT_RTOL = 1e-12
PIVOT_MARGIN = 100.0
UNIT_CONDITION_TOL = 1e-6
# Draws per spec before screening gives up.
MAX_DRAWS = 1000

FAMILIES = ("eq", "se", "wishart")
# The lengthscale range the acceptance kernel sweeps use.
RHO_RANGE = (5.0, 150.0)
EPS_MAX = 0.95
SEED_MAX = 2**63
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def close(value: float, reference: float, tol: float = REL_TOL) -> bool:
    """Relative agreement, absolute below magnitude 1."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def below(value: float, bound: float) -> bool:
    """value <= bound up to the envelope slack."""
    return value <= bound + ENVELOPE_SLACK * max(1.0, abs(bound))


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def family_spec(rng, family: str, n: int) -> dict:
    spec = {"kind": "target", "family": family, "n": n, "scale": None}
    if family == "eq":
        spec["eps"] = float(rng.uniform(0.0, EPS_MAX))
    elif family == "se":
        spec["rho"] = log_uniform(rng, *RHO_RANGE)
        spec["gen_seed"] = int(rng.integers(SEED_MAX))
    else:
        spec["gen_seed"] = int(rng.integers(SEED_MAX))
    return spec


def build_target(spec: dict, call) -> GaussianTarget:
    n, family = spec["n"], spec["family"]
    if family == "eq":
        target = call(
            "generators.constant_offdiag_target",
            constant_offdiag_target,
            ConstantOffDiagConfig(n=n, eps=spec["eps"]),
        )
    elif family == "se":
        target = call(
            "generators.squared_exponential_target",
            squared_exponential_target,
            KernelConfig(n=n, rho=spec["rho"], seed=spec["gen_seed"]),
        )
    else:
        corr = call(
            "generators.random_correlation_matrix", random_correlation_matrix, n, spec["gen_seed"]
        )
        target = call("gaussian.GaussianTarget", GaussianTarget, np.zeros(n), corr.entries)
    if spec["scale"] is not None:
        scale = spec["scale"]
        target = call(
            "gaussian.GaussianTarget",
            GaussianTarget,
            np.zeros(n),
            target.covariance * np.outer(scale, scale),
        )
    return target


def eq_log_det_psi(n: int, eps: float) -> float:
    """log|Psi| of the factorized solution for the n x n equicorrelation
    matrix with correlation eps: Psi_ii = 1 / (C^-1)_ii, at most log|C|."""
    return n * (math.log1p(-eps) + math.log1p((n - 1) * eps) - math.log1p((n - 2) * eps))


def eq_eps_limit(n: int) -> float:
    """Largest eps whose equicorrelated target stays LOG_DET_MARGIN above
    the log-det floor (log|Psi| falls as eps grows); at most EPS_MAX."""
    floor = LOG_DET_FLOOR + LOG_DET_MARGIN
    if eq_log_det_psi(n, EPS_MAX) > floor:
        return EPS_MAX
    lo, hi = 0.0, EPS_MAX
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if eq_log_det_psi(n, mid) > floor else (lo, mid)
    return lo


def spec_covariances(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """(covariance, unscaled covariance) that a target spec describes,
    built with numpy the way the fgvi generators document."""
    n, family = spec["n"], spec["family"]
    if family == "eq":
        base = np.full((n, n), spec["eps"])
        np.fill_diagonal(base, 1.0)
    elif family == "se":
        x = np.random.default_rng(spec["gen_seed"]).uniform(0.0, KernelConfig.domain_upper, n)
        diff = x[:, None] - x[None, :]
        base = np.exp(-(diff * diff) / (spec["rho"] * spec["rho"]))
        base += KernelConfig.jitter * np.eye(n)
    else:
        a = np.random.default_rng(spec["gen_seed"]).standard_normal((n, n))
        wishart = a @ a.T + n * 1e-6 * np.eye(n)
        d = np.sqrt(np.diag(wishart))
        base = wishart / np.outer(d, d)
        np.fill_diagonal(base, 1.0)
    if spec["scale"] is None:
        return base, base
    return base * np.outer(spec["scale"], spec["scale"]), base


def known_defect(spec: dict) -> str | None:
    """The known seed defect whose domain a target spec falls in, or None.

    Equicorrelated targets use their closed forms; the others are
    factorized with LAPACK.  Every matrix fgvi factorizes for the op or its
    oracles (the covariance and its unscaled twin) is checked against the
    pivot threshold, and log|Psi| of each against the log-det floor.
    """
    n = spec["n"]
    if spec["family"] == "eq" and spec["scale"] is None:
        eps = spec["eps"]
        log_det = eq_log_det_psi(n, eps)
        condition = (1.0 + (n - 1) * eps) / (1.0 - eps)
        # Cholesky pivots of an equicorrelation matrix are at least 1 - eps.
    else:
        cov, base = spec_covariances(spec)
        log_dets = []
        for matrix in (cov, base):
            try:
                lower = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return "conditioning"
            pivots = np.diag(lower) ** 2
            if np.min(pivots) <= PIVOT_MARGIN * PIVOT_RTOL * np.max(np.diag(matrix)):
                return "conditioning"
            inverse_lower = np.linalg.inv(lower)
            log_dets.append(-float(np.sum(np.log(np.sum(inverse_lower**2, axis=0)))))
        log_det = min(log_dets)
        d = np.sqrt(np.diag(base))
        eigvals = np.linalg.eigvalsh(base / np.outer(d, d))
        if eigvals[0] <= 0.0:
            return "conditioning"
        condition = float(eigvals[-1] / eigvals[0])
    if not log_det > LOG_DET_FLOOR + LOG_DET_MARGIN:
        return "log_det_floor"
    if condition - 1.0 <= UNIT_CONDITION_TOL:
        return "unit_condition"
    return None


class Workload:
    """Base: subclasses define ``cycle``, ``run``, ``probe`` and ``check``,
    and target workloads ``defect_specs``."""

    # The reference kernel (see child.reference_seconds) whose speed
    # follows this workload's ops.
    reference_kind = "interpreter"
    # Whole cycles an untraced run measures at least, whatever --seconds.
    min_cycles = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        # Set by an untraced measuring loop: a function that times one block
        # of the reference kernel.  A workload whose ops last seconds calls
        # it inside an op; the loop takes its time off the op's latency.
        self.reference = None
        self.probe_rng = np.random.default_rng([seed, 1])
        # Exact counts gathered by ops and oracles for derived metrics.
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def cycles(self):
        index = 0
        while True:
            yield self.cycle(index)
            index += 1

    def defect_specs(self) -> list[dict]:
        """Seeded ops inside known-defect domains, run apart from the timed
        loop; none for a workload without known defects."""
        return []


class TargetsWorkload(Workload):
    """Build a target, decompose it, solve it and bound it at its kappa."""

    psi_share = 0.25

    def screened(self, draw) -> dict:
        """The first spec from ``draw()`` outside every known-defect domain;
        the ones passed over are counted by cause."""
        for _ in range(MAX_DRAWS):
            spec = draw()
            cause = known_defect(spec)
            if cause is None:
                return spec
            self.count(f"screened.{cause}")
        raise RuntimeError("no draw outside the known-defect domains")

    def run(self, spec, out, call):
        if spec["kind"] == "envelope":
            reports = call("bounds.envelope_sweep", envelope_sweep, spec["n"], spec["grid"])
            out["envelope"] = [
                (
                    r.condition_ratio,
                    r.upper_log_det_S,
                    r.upper_log_det_C,
                    r.lower_trace_S,
                    r.upper_trace_S,
                    r.joint_kl_upper,
                    r.separate_kl_upper,
                )
                for r in reports
            ]
            return
        n = spec["n"]
        target = out["target"] = build_target(spec, call)
        report = out["report"] = call("gaussian.decompose", decompose, target)
        out["psi"] = call("gaussian.fgvi_solve", fgvi_solve, target).variances
        out["bounds"] = call("bounds.bounds_report", bounds_report, n, report.condition_number)

    def probe(self, spec, out, call):
        target = out.get("target")
        if target is None:
            return
        n = spec["n"]
        lower = call("linalg.spd_cholesky", spd_cholesky, target.covariance)
        self.count("spd_cholesky.flops", n**3 / 3.0)
        call("linalg.inverse_diagonal", inverse_diagonal, lower)
        call("gaussian.correlation_from_covariance", correlation_from_covariance, target)
        if "report" in out:
            kappa = out["report"].condition_number
            for name, fn in (
                ("bounds.bound_log_det_S", bound_log_det_S),
                ("bounds.bound_log_det_C", bound_log_det_C),
                ("bounds.bound_trace_S", bound_trace_S),
                ("bounds.bound_kl_joint", bound_kl_joint),
            ):
                call(name, fn, n, kappa)

    def warmup(self, call):
        for family in FAMILIES:
            out = {}
            spec = family_spec(self.probe_rng, family, 8)
            try:
                self.run(spec, out, call)
            except (ValueError, ArithmeticError, RuntimeError):
                pass
        self.run({"kind": "envelope", "n": 8, "grid": [1.0, 10.0]}, {}, call)

    def check(self, spec, out):
        if spec["kind"] == "envelope":
            return self._check_envelope(spec["n"], out["envelope"])
        report, psi, cov = out["report"], out["psi"], out["target"].covariance
        sigma = np.diag(cov)
        n = spec["n"]
        if spec["family"] == "eq":
            forms = constant_offdiag_closed_forms(n, spec["eps"])
            ratio = psi / sigma
            if not (
                close(report.log_det_S, forms.log_det_S)
                and close(report.log_det_C, forms.log_det_C)
                and np.all(np.abs(ratio - forms.psi_ratio) <= REL_TOL * max(1.0, forms.psi_ratio))
            ):
                return "wrong", "closed_form"
        env = out["bounds"]
        trace_s = float(np.sum(sigma / psi))
        if not (
            below(report.log_det_S, env.upper_log_det_S)
            and below(report.log_det_C, env.upper_log_det_C)
            and below(env.lower_trace_S, trace_s)
            and below(trace_s, env.upper_trace_S)
            and below(report.kl_q_p, env.joint_kl_upper)
        ):
            return "wrong", "envelope"
        tol = max(REL_TOL, n * report.condition_number * UNIT_ROUNDOFF)
        if spec["psi_check"]:
            reference = 1.0 / np.diag(np.linalg.inv(cov))
            if not np.all(np.abs(psi - reference) <= tol * reference):
                return "wrong", "psi_explicit_inverse"
        if spec["scale"] is not None:
            try:
                twin = decompose(build_target(dict(spec, scale=None), plain_call))
            except (ValueError, ArithmeticError, RuntimeError):
                return "raised", "unscaled_twin"
            if not all(
                close(getattr(report, key), getattr(twin, key), tol)
                for key in ("entropy_gap", "log_det_S", "log_det_C", "condition_number")
            ):
                return "wrong", "scale_invariance"
        return None

    @staticmethod
    def _check_envelope(n, rows):
        for ratio, upper_s, upper_c, lower_t, upper_t, joint, separate in rows:
            values = (upper_s, upper_c, lower_t, upper_t, joint, separate)
            if not all(math.isfinite(v) for v in values):
                return "wrong", "envelope_finite"
            if not (
                upper_s >= -1e-12
                and upper_c <= 1e-12
                and lower_t >= n * (1.0 - 1e-12)
                and lower_t <= upper_t + 1e-9
                and joint <= separate + 1e-9
            ):
                return "wrong", "envelope_order"
            if ratio == 1.0 and not (
                abs(upper_s) <= 1e-9 and abs(upper_c) <= 1e-9 and abs(joint) <= 1e-9
            ):
                return "wrong", "envelope_unit_ratio"
        return None


class SmallTargets(TargetsWorkload):
    """n in 2..64 (log-uniform), one target per family per cycle; a seeded
    share is rescaled by a positive diagonal spanning three decades.  A
    draw in a known-defect domain is replaced by a fresh draw."""

    rescale_share = 0.3
    # Standard deviations in mixed units: up to three decades apart.
    scale_decades = 1.5
    defect_count = 24

    def draw(self, rng, family: str) -> dict:
        n = int(math.floor(log_uniform(rng, 2.0, 65.0)))
        spec = family_spec(rng, family, n)
        if rng.random() < self.rescale_share:
            spec["scale"] = 10.0 ** rng.uniform(-self.scale_decades, self.scale_decades, n)
        spec["psi_check"] = bool(rng.random() < self.psi_share)
        return spec

    def cycle(self, index):
        return [self.screened(lambda: self.draw(self.rng, family)) for family in FAMILIES]

    def defect_specs(self):
        """The first ``defect_count`` draws, from a stream of their own, that
        fall in a known-defect domain."""
        rng = np.random.default_rng([self.seed, 2])
        specs = []
        for k in range(MAX_DRAWS * self.defect_count):
            spec = self.draw(rng, FAMILIES[k % len(FAMILIES)])
            cause = known_defect(spec)
            if cause is not None:
                specs.append(dict(spec, defect=cause))
                if len(specs) == self.defect_count:
                    break
        return specs


class LargeTargets(TargetsWorkload):
    """The ``fgvi bounds --rho-grid`` job shape: per n, largest first, one
    envelope sweep and three equicorrelated targets.

    At these sizes only equicorrelated targets with eps below
    ``eq_eps_limit(n)`` (about 0.28 at n = 2000) are outside the known-
    defect domains: log|Psi| is near -5.5 n for Wishart correlation
    matrices and lower still for squared-exponential targets over the
    paper's lengthscales, so both are below the log-det floor from n of
    about 120 and appear only among the defect specs.  The factorizations,
    solves and eigenvalues cost the same whatever the correlation.
    """

    reference_kind = "memory"
    sizes = (2000, 1000, 500, 250)
    eq_per_size = 3
    psi_share = 0.2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.eps_offsets = {n: float(self.rng.random()) for n in self.sizes}
        self.eps_limits = {n: eq_eps_limit(n) for n in self.sizes}

    def cycle(self, index):
        specs = []
        strata = self.eq_per_size
        for n in self.sizes:
            grid = sorted(log_uniform(self.rng, 1.0, 1e4) for _ in range(5))
            specs.append({"kind": "envelope", "n": n, "grid": [1.0] + grid})
            # One target in each of ``strata`` equal parts of
            # [0, eq_eps_limit(n)), at a golden-ratio sequence offset that
            # spreads successive cycles evenly over each part.
            u = (self.eps_offsets[n] + index * GOLDEN) % 1.0
            eq = family_spec(self.rng, "eq", n)
            step = self.eps_limits[n] / strata
            specs += [dict(eq, eps=step * (k + u)) for k in range(strata)]
        for spec in specs:
            spec["psi_check"] = bool(self.rng.random() < self.psi_share)
            if spec["kind"] == "target" and known_defect(spec) is not None:
                raise RuntimeError(f"target in a known-defect domain: {spec}")
        return specs

    def defect_specs(self):
        """One target per family inside the log-det floor's domain; the
        equicorrelated one is eps = 0.5 at n = 2000."""
        rng = np.random.default_rng([self.seed, 2])
        specs = [
            dict(family_spec(rng, "eq", 2000), eps=0.5),
            family_spec(rng, "se", 250),
            family_spec(rng, "wishart", 1000),
        ]
        for spec in specs:
            spec["psi_check"] = False
            spec["defect"] = known_defect(spec)
        return specs


def _mixture(n: int, separation: float) -> MixtureTarget:
    means = np.zeros((2, n))
    means[:, 0] = (-0.5 * separation, 0.5 * separation)
    return MixtureTarget(weights=np.array([0.5, 0.5]), means=means, component_variance=1.0)


class ElboFits(Workload):
    """``fit_fgvi`` with the default optimizer settings on the criterion-8
    Gaussian, a moderate-n Gaussian, the criterion-9 mixture and an n=8
    mixture; each cycle fits each once with a fresh seed."""

    # About every 60 ms of a fit at the seed (one density call per step).
    reference_every = 500
    # A fit lasts about 2 s, and from run to run its speed wanders by
    # about 10% more than the reference kernel's does, so a run takes 24
    # fits.
    min_cycles = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.kinds = {}
        for name, n in (("gauss5", 5), ("gauss20", 20)):
            target = constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=0.5))
            self.kinds[name] = {
                "n": n,
                "density": gaussian_log_density_fn(target),
                "oracle": fgvi_solve(target).variances,
                "probe": "engine.gaussian_density",
            }
        for name, n in (("mix2", 2), ("mix8", 8)):
            target = _mixture(n, 10.0)
            self.kinds[name] = {
                "n": n,
                "density": mixture_log_density_fn(target),
                "target": target,
                "probe": "engine.mixture_density",
            }

    def cycle(self, index):
        return [{"kind": name, "seed": int(self.rng.integers(SEED_MAX))} for name in self.kinds]

    def sampled(self, density):
        """``density`` timing a reference block every ``reference_every``
        calls, so that the host's speed is sampled all through a fit that
        lasts seconds, not only between fits."""
        calls = 0

        def density_with_reference(z):
            nonlocal calls
            calls += 1
            if calls % self.reference_every == 0:
                self.reference()
            return density(z)

        return density_with_reference

    def config(self, spec, call, **overrides):
        kind = self.kinds[spec["kind"]]
        if "target" in kind:
            init = call("engine.mixture_init_mean", mixture_init_mean, kind["target"], spec["seed"])
            return OptimizerConfig(seed=spec["seed"], init_mean=init, **overrides)
        return OptimizerConfig(seed=spec["seed"], **overrides)

    def run(self, spec, out, call):
        kind = self.kinds[spec["kind"]]
        config = self.config(spec, call)
        density = self.sampled(kind["density"]) if self.reference else kind["density"]
        state = call("engine.fit_fgvi", fit_fgvi, density, kind["n"], config)
        # Keep the fitted parameters, not the 20000-entry ELBO trace.
        out["state"] = replace(state, elbo_trace=())
        self.count("fit.count")
        self.count("fit.steps", state.step_count)
        if state.step_count < config.max_steps:
            self.count("fit.tolerance_stops")

    def probe(self, spec, out, call):
        state = out.get("state")
        if state is None:
            return
        kind = self.kinds[spec["kind"]]
        noise = self.probe_rng.standard_normal((OptimizerConfig.mc_samples, kind["n"]))
        call(
            "engine.elbo_sample_terms",
            elbo_sample_terms,
            kind["density"],
            state.mean,
            state.log_std,
            noise,
        )
        z = state.mean[None, :] + np.exp(state.log_std)[None, :] * noise
        call(kind["probe"], kind["density"], z)

    def warmup(self, call):
        for name in self.kinds:
            spec = {"kind": name, "seed": 0}
            kind = self.kinds[name]
            fit_fgvi(kind["density"], kind["n"], self.config(spec, call, max_steps=50))

    def check(self, spec, out):
        kind = self.kinds[spec["kind"]]
        state = out["state"]
        if "oracle" in kind:
            err = float(np.max(np.abs(state.variances - kind["oracle"]) / kind["oracle"]))
            self.counters["fit.max_rel_err"] = max(self.counters.get("fit.max_rel_err", 0.0), err)
            return None if err <= FIT_REL_TOL else ("wrong", "fit_rel_err")
        target = kind["target"]
        distance = float(np.min(np.linalg.norm(target.means - state.mean[None, :], axis=1)))
        comparison = shrinkage_comparison(target, state)
        collapsed = (
            distance < 1.0
            and bool(np.all(state.variances < 2.0 * target.component_variance))
            and comparison.trace_S > 2.0 * comparison.trace_S_G
        )
        return None if collapsed else ("wrong", "mixture_collapse")


# --------------------------------------------------------------------------
# cli-jobs


class CliJobError(RuntimeError):
    """A CLI job exited with a non-zero code."""


def parse_table(text: str, fmt: str) -> tuple[dict, list[str], list[dict]]:
    """(metadata, columns, rows) of one CLI table, CSV or strict JSON."""
    if fmt == "csv":
        lines = text.splitlines()
        meta_lines = [line for line in lines if line.startswith("# ")]
        metadata = dict(line[2:].split("=", 1) for line in meta_lines)
        reader = csv.reader(io.StringIO("\n".join(lines[len(meta_lines):])))
        columns = next(reader)
        rows = [
            {col: cell for col, cell in zip(columns, record) if cell != ""} for record in reader
        ]
        return metadata, columns, rows
    records = [loads(line) for line in text.splitlines() if line.strip()]
    metadata = {k: v for k, v in records[0].items() if k != "record"}
    columns = records[1]["columns"]
    rows = [
        {k: v for k, v in record.items() if k != "record" and v is not None}
        for record in records[2:]
    ]
    return metadata, columns, rows


class CliJobs(Workload):
    """``fgvi`` jobs at small sizes through the CLI's entry point, one at a
    time and in-process: analyze by --eps and by --matrix-file, sweep,
    bounds with an overlay, and a mixture fit with a small max_steps from
    --config; both formats, written to a file as ``--out`` directs.

    Interpreter start and imports are not part of an op: they are in every
    workload's set-up time, and traced runs time them and whole subprocess
    jobs separately.
    """

    matrix_files = 6
    mixture_steps = (200, 400)
    # Subprocess jobs per job kind in a traced run.
    subprocess_probes = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from fgvi import cli

        self.cli = cli
        os.makedirs(workdir, exist_ok=True)
        self.matrices = []
        for k in range(self.matrix_files):
            n = int(self.rng.integers(3, 11))
            corr = random_correlation_matrix(n, int(self.rng.integers(SEED_MAX)))
            scale = 10.0 ** self.rng.uniform(-1.0, 1.0, n)
            path = os.path.join(workdir, f"matrix{k}.txt")
            cli.write_matrix_file(path, corr.entries * np.outer(scale, scale))
            self.matrices.append(path)
        self.configs = []
        for k, steps in enumerate(self.mixture_steps):
            path = os.path.join(workdir, f"mixture{k}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"max_steps = {steps}\nwindow = 50\n")
            self.configs.append((path, steps))
        self.out_path = os.path.join(workdir, "job.out")
        self.subprocess_left = {}

    def _grid(self, lo, hi, count, log=False):
        if log:
            draws = [log_uniform(self.rng, lo, hi) for _ in range(count)]
        else:
            draws = self.rng.uniform(lo, hi, count).tolist()
        return sorted({round(v, 6) for v in draws})

    @staticmethod
    def _csv(values) -> str:
        return ",".join(repr(v) for v in values)

    def cycle(self, c):
        rng = self.rng
        family = "eps" if c % 2 == 0 else "rho"

        def size() -> str:
            return str(int(rng.integers(3, 13)))

        def seed() -> str:
            return str(int(rng.integers(2**32)))

        def family_overlay(count: int) -> list[str]:
            """--n, the family grid and --seed of a sweep or bounds job
            none of whose targets is in a known-defect domain."""
            for _ in range(MAX_DRAWS):
                n, gen_seed = int(rng.integers(3, 13)), int(rng.integers(2**32))
                if family == "eps":
                    grid = self._grid(0.0, EPS_MAX, count)
                    targets = [{"family": "eq", "eps": v} for v in grid]
                else:
                    grid = self._grid(*RHO_RANGE, count, log=True)
                    targets = [{"family": "se", "rho": v, "gen_seed": gen_seed} for v in grid]
                if all(known_defect(dict(t, n=n, scale=None)) is None for t in targets):
                    return [
                        "--n", str(n), f"--{family}-grid", self._csv(grid), "--seed", str(gen_seed)
                    ]
                self.count("screened.cli_overlay")
            raise RuntimeError("no CLI overlay outside the known-defect domains")

        eps = repr(round(float(rng.uniform(0.0, EPS_MAX)), 6))
        ratios = self._csv([1.0] + self._grid(1.0, 1e4, 3, log=True))
        separation = repr(round(float(rng.uniform(6.0, 12.0)), 6))
        mixture_n = str(int(rng.integers(2, 7)))
        jobs = [
            ["analyze", "--n", size(), "--eps", eps],
            ["analyze", "--matrix-file", self.matrices[c % len(self.matrices)]],
            ["sweep", *family_overlay(4)],
            ["bounds", "--R-grid", ratios, *family_overlay(3)],
            ["mixture", "--n", mixture_n, "--separation", separation, "--seed", seed(),
             "--config", self.configs[c % len(self.configs)][0]],
        ]
        specs = []
        for j, argv in enumerate(jobs):
            fmt = "csv" if (c + j) % 2 == 0 else "json-lines"
            specs.append({"kind": argv[0], "argv": argv + ["--format", fmt], "format": fmt})
        return specs

    def job(self, argv):
        """A whole ``fgvi`` subprocess job; its standard output."""
        proc = subprocess.run(
            [sys.executable, "-m", "fgvi.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        if proc.returncode != 0:
            raise CliJobError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def main(self, argv):
        """One job through ``fgvi.cli.main``; the table it wrote."""
        code = self.cli.main(argv + ["--out", self.out_path])
        if code != 0:
            raise CliJobError(f"exit {code}")
        with open(self.out_path, encoding="utf-8") as handle:
            return handle.read()

    def run(self, spec, out, call):
        out["stdout"] = call(f"cli.main.{spec['kind']}", self.main, spec["argv"])

    def probe(self, spec, out, call):
        kind = spec["kind"]
        left = self.subprocess_left.get(kind, self.subprocess_probes)
        if left > 0:
            self.subprocess_left[kind] = left - 1
            call(f"cli.{kind}.job", self.job, spec["argv"])
        if "stdout" in out:
            metadata, columns, rows = parse_table(out["stdout"], spec["format"])
            call(
                "cli.write_table",
                self.cli.write_table,
                io.StringIO(),
                spec["format"],
                metadata,
                columns,
                rows,
            )

    def warmup(self, call):
        """One job of each kind, drawn from a stream of its own."""
        timed_rng, self.rng = self.rng, np.random.default_rng([self.seed, 3])
        for spec in self.cycle(0):
            self.main(spec["argv"])
        self.rng = timed_rng

    # --- oracles: the same quantities from in-process library calls

    def check(self, spec, out):
        try:
            _meta, _columns, rows = parse_table(out["stdout"], spec["format"])
        except (ValueError, StopIteration, IndexError, KeyError):
            return "wrong", "unparseable_output"
        flags = self._flags(spec["argv"])
        try:
            expected = getattr(self, f"_expect_{spec['kind']}")(flags)
        except (ValueError, ArithmeticError, RuntimeError):
            return "raised", "library_reference"
        if not self._matches(rows, expected):
            return "wrong", f"{spec['kind']}_values"
        return None

    @staticmethod
    def _flags(argv):
        return {argv[i].lstrip("-"): argv[i + 1] for i in range(1, len(argv) - 1, 2)}

    @staticmethod
    def _matches(rows, expected) -> bool:
        """Every expected (row, column) value is present and numerically
        close; rows are matched by position."""
        if len(rows) != len(expected):
            return False
        for row, want in zip(rows, expected):
            for key, value in want.items():
                if key not in row:
                    return False
                cell = _parse_cell(row[key])
                if isinstance(value, str):
                    if str(cell) != value:
                        return False
                elif not close(float(cell), float(value)):
                    return False
        return True

    @staticmethod
    def _report_rows(target):
        report = decompose(target)
        psi = fgvi_solve(target).variances
        names = ("log_det_S", "log_det_C", "entropy_p", "entropy_q", "entropy_gap", "kl_q_p")
        rows = [{"name": "n", "value": target.n}]
        rows += [{"name": k, "value": getattr(report, k)} for k in names + ("condition_number",)]
        rows.append({"name": "per_component_gap", "value": report.entropy_gap / target.n})
        sigma = np.diag(target.covariance)
        rows += [{"name": "sigma_ii", "value": v} for v in sigma]
        rows += [{"name": "psi_ii", "value": v} for v in psi]
        rows += [{"name": "s_ii", "value": v} for v in sigma / psi]
        cov_q = np.diag(psi[:2])
        rows += [{"value": target.covariance[i, j]} for i, j in ((0, 0), (0, 1), (1, 1))]
        rows += [{"value": cov_q[i, j]} for i, j in ((0, 0), (0, 1), (1, 1))]
        return rows

    def _expect_analyze(self, flags):
        if "matrix-file" in flags:
            cov = self.cli.read_matrix_file(flags["matrix-file"])
            return self._report_rows(GaussianTarget(mean=np.zeros(cov.shape[0]), covariance=cov))
        n = int(flags["n"])
        return self._report_rows(
            constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=float(flags["eps"])))
        )

    @staticmethod
    def _family_target(flags, axis, value):
        n = int(flags["n"])
        if axis == "eps":
            return constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=value))
        return squared_exponential_target(KernelConfig(n=n, rho=value, seed=int(flags["seed"])))

    def _expect_sweep(self, flags):
        axis = "eps" if "eps-grid" in flags else "rho"
        rows = []
        for value in (float(v) for v in flags[f"{axis}-grid"].split(",")):
            report = decompose(self._family_target(flags, axis, value))
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "half_log_det_S": 0.5 * report.log_det_S,
                    "half_log_det_C_inv": -0.5 * report.log_det_C,
                    "entropy_gap": report.entropy_gap,
                    "kl_q_p": report.kl_q_p,
                    "condition_number": report.condition_number,
                }
            )
        return rows

    def _expect_bounds(self, flags):
        n = int(flags["n"])
        ratios = [float(v) for v in flags["R-grid"].split(",")]
        rows = []
        for r in envelope_sweep(n, ratios):
            rows.append(self._bound_fields(r, row_type="envelope", R=r.condition_ratio))
        axis = "eps" if "eps-grid" in flags else "rho"
        for value in (float(v) for v in flags[f"{axis}-grid"].split(",")):
            target = self._family_target(flags, axis, value)
            measured = decompose(target)
            psi = fgvi_solve(target).variances
            row = self._bound_fields(
                bounds_report(n, measured.condition_number),
                row_type="measured",
                R=measured.condition_number,
                family=axis,
                family_value=value,
            )
            row.update(
                measured_log_det_S=measured.log_det_S,
                measured_log_det_C=measured.log_det_C,
                measured_trace_S=float(np.sum(np.diag(target.covariance) / psi)),
                measured_kl=measured.kl_q_p,
                valid="true",
            )
            rows.append(row)
        return rows

    @staticmethod
    def _bound_fields(report, **extra):
        return dict(
            extra,
            upper_log_det_S=report.upper_log_det_S,
            upper_log_det_C=report.upper_log_det_C,
            lower_trace_S=report.lower_trace_S,
            upper_trace_S=report.upper_trace_S,
            joint_kl_upper=report.joint_kl_upper,
            separate_kl_upper=report.separate_kl_upper,
        )

    def _expect_mixture(self, flags):
        target = _mixture(int(flags["n"]), float(flags["separation"]))
        steps = dict(self.configs)[flags["config"]]
        seed = int(flags["seed"])
        config = OptimizerConfig(
            seed=seed, init_mean=mixture_init_mean(target, seed), max_steps=steps, window=50
        )
        state = fit_fgvi(mixture_log_density_fn(target), target.n, config)
        comparison = shrinkage_comparison(target, state)
        rows = [
            {"name": "n", "value": target.n},
            {"name": "components", "value": target.components},
            {"name": "trace_S", "value": comparison.trace_S},
            {"name": "trace_S_G", "value": comparison.trace_S_G},
        ]
        moments = mixture_moments(target)
        rows += [
            {"name": "max_entropy_gap_bound", "value": max_entropy_gap_bound(moments, state)},
            {"name": "mean_log_shrinkage", "value": comparison.S.log_det / target.n},
            {"name": "step_count", "value": state.step_count},
        ]
        for name, values in (
            ("sigma_ii", np.diag(moments.covariance)),
            ("psi_ii", state.variances),
            ("s_ii", comparison.S.diagonal),
            ("s_g_ii", comparison.S_G.diagonal),
            ("fitted_mean", state.mean),
        ):
            rows += [{"name": name, "i": i, "value": v} for i, v in enumerate(values)]
        rows += [{"name": "estimate", "i": step, "value": v} for step, v in state.elbo_trace]
        return rows


def _parse_cell(value):
    """A CSV cell or JSON value as a number, or as text for words."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


WORKLOADS = {
    "small-targets": SmallTargets,
    "large-targets": LargeTargets,
    "elbo-fits": ElboFits,
    "cli-jobs": CliJobs,
}
