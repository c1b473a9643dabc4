"""Command-line interface: deterministic tables for every library surface.

Four subcommands: ``analyze`` decomposes one target, ``sweep`` walks a
family parameter grid, ``bounds`` tabulates the condition-number envelopes
(optionally overlaid with measured curves from a target family), and
``mixture`` runs the stochastic fit on a separated Gaussian mixture.

Output is CSV or JSON-lines with a leading metadata record (tool version,
seed, effective config, config hash).  Floats are printed with 17
significant digits, so identical configs produce byte-identical output and
every value round-trips through text exactly.

Exit codes: 0 success, 1 a validity flag failed, 2 invalid input,
3 numerical failure (singular input or overflow), 4 optimizer divergence.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys

import numpy as np

from . import __version__
from .bounds import bounds_report, envelope_sweep
from .engine import (
    DivergenceError,
    MixtureTarget,
    OptimizerConfig,
    fit_fgvi,
    max_entropy_gap_bound,
    mixture_init_mean,
    mixture_log_density_fn,
    mixture_moments,
    shrinkage_comparison,
)
from .gaussian import GaussianTarget, decompose, fgvi_solve, shrinkage_matrix
from .generators import (
    ConstantOffDiagConfig,
    GenerationError,
    KernelConfig,
    constant_offdiag_target,
    squared_exponential_target,
)

EXIT_OK = 0
EXIT_INVALID_FLAG = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

_MEASURE_SLACK = 1e-6


def _slack(bound: float) -> float:
    """Validity slack around a bound: relative to it, absolute below magnitude 1."""
    return _MEASURE_SLACK * max(1.0, abs(bound))


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return values


# Coercions applied uniformly to config-file values and CLI flag strings.
_COERCERS = {
    "n": int,
    "eps": float,
    "rho": float,
    "seed": int,
    "domain_upper": float,
    "jitter": float,
    "separation": float,
    "sigma": float,
    "weights": _parse_float_list,
    "eps_grid": _parse_float_list,
    "rho_grid": _parse_float_list,
    "R_grid": _parse_float_list,
    "matrix_file": str,
    "out": str,
    "format": str,
    "learning_rate": float,
    "mc_samples": int,
    "max_steps": int,
    "tolerance": float,
    "window": int,
    "average_decay": float,
    "init_jitter": float,
}

_COMMON_KEYS = ("seed", "out", "format")
_ALLOWED_KEYS = {
    "analyze": _COMMON_KEYS + ("n", "eps", "rho", "matrix_file", "domain_upper", "jitter"),
    "sweep": _COMMON_KEYS + ("n", "eps_grid", "rho_grid", "domain_upper", "jitter"),
    "bounds": _COMMON_KEYS
    + ("n", "R_grid", "eps_grid", "rho_grid", "domain_upper", "jitter"),
    "mixture": _COMMON_KEYS
    + (
        "n",
        "separation",
        "sigma",
        "weights",
        "learning_rate",
        "mc_samples",
        "max_steps",
        "tolerance",
        "window",
        "average_decay",
        "init_jitter",
    ),
}

_DEFAULTS = {
    "analyze": {"seed": 0, "out": "-", "format": "csv", "domain_upper": 200.0, "jitter": 1e-8},
    "sweep": {"seed": 0, "out": "-", "format": "csv", "domain_upper": 200.0, "jitter": 1e-8},
    "bounds": {"seed": 0, "out": "-", "format": "csv", "domain_upper": 200.0, "jitter": 1e-8},
    "mixture": {
        "seed": 0,
        "out": "-",
        "format": "csv",
        "n": 2,
        "separation": 10.0,
        "sigma": 1.0,
        "weights": [0.5, 0.5],
    },
}


def read_config_file(path: str) -> dict[str, str]:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def resolve_config(subcommand: str, flags: dict, config_path: str | None) -> dict:
    """Effective config: defaults, then config file, then explicit flags."""
    allowed = _ALLOWED_KEYS[subcommand]
    effective = dict(_DEFAULTS[subcommand])
    if config_path is not None:
        for key, raw in read_config_file(config_path).items():
            if key not in allowed:
                raise ValueError(f"config key {key!r} is not valid for {subcommand!r}")
            effective[key] = _COERCERS[key](raw)
    for key, value in flags.items():
        if value is not None and key in allowed:
            effective[key] = value
    fmt = effective.get("format")
    if fmt not in ("csv", "json-lines"):
        raise ValueError(f"format must be 'csv' or 'json-lines', got {fmt!r}")
    return effective


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(_canonical(v) for v in value)
    return str(value)


def config_hash(subcommand: str, effective: dict) -> str:
    payload = "\n".join(
        [subcommand] + [f"{k}={_canonical(v)}" for k, v in sorted(effective.items())]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _json_line(record: dict) -> str:
    parts = []
    for key, value in record.items():
        if isinstance(value, dict):
            parts.append(f'"{key}": {_json_line(value)}')
        elif isinstance(value, (list, tuple)):
            inner = ", ".join(_json_scalar(v) for v in value)
            parts.append(f'"{key}": [{inner}]')
        else:
            parts.append(f'"{key}": {_json_scalar(value)}')
    return "{" + ", ".join(parts) + "}"


def write_table(stream, fmt: str, metadata: dict, columns: list[str], rows: list[dict]) -> None:
    """Emit one table with a leading metadata record."""
    if fmt == "csv":
        for key, value in metadata.items():
            stream.write(f"# {key}={_canonical(value)}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
    else:
        stream.write(_json_line({"record": "metadata", **metadata}) + "\n")
        stream.write(_json_line({"record": "header", "columns": columns}) + "\n")
        for row in rows:
            line = {"record": "row"}
            line.update({col: row.get(col) for col in columns})
            stream.write(_json_line(line) + "\n")


def read_matrix_file(path: str) -> np.ndarray:
    """Parse a covariance file: first line n, then n rows of n numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tokens_per_line = [line.split() for line in handle if line.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path}: {exc}") from exc
    if not tokens_per_line or len(tokens_per_line[0]) != 1:
        raise ValueError(f"{path}: first line must hold the dimension n alone")
    try:
        n = int(tokens_per_line[0][0])
    except ValueError:
        raise ValueError(f"{path}: first line must hold an integer dimension") from None
    if n < 1:
        raise ValueError(f"{path}: dimension must be >= 1, got {n}")
    body = tokens_per_line[1:]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} matrix rows, found {len(body)}")
    matrix = np.empty((n, n))
    for i, tokens in enumerate(body):
        if len(tokens) != n:
            raise ValueError(f"{path}: row {i} has {len(tokens)} entries, expected {n}")
        try:
            matrix[i] = [float(tok) for tok in tokens]
        except ValueError:
            raise ValueError(f"{path}: row {i} holds a non-numeric entry") from None
    return matrix


def write_matrix_file(path: str, matrix: np.ndarray) -> None:
    """Inverse of read_matrix_file, at full double precision."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{matrix.shape[0]}\n")
        for row in matrix:
            handle.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _build_target(effective: dict) -> GaussianTarget:
    sources = [
        effective.get("matrix_file") is not None,
        effective.get("eps") is not None,
        effective.get("rho") is not None,
    ]
    if sum(sources) != 1:
        raise ValueError("exactly one of --matrix-file, --eps, --rho must be given")
    if effective.get("matrix_file") is not None:
        cov = read_matrix_file(effective["matrix_file"])
        return GaussianTarget(mean=np.zeros(cov.shape[0]), covariance=cov)
    if effective.get("n") is None:
        raise ValueError("--n is required with --eps or --rho")
    n = effective["n"]
    if effective.get("eps") is not None:
        return constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=effective["eps"]))
    return squared_exponential_target(
        KernelConfig(
            n=n,
            rho=effective["rho"],
            seed=effective["seed"],
            domain_upper=effective["domain_upper"],
            jitter=effective["jitter"],
        )
    )


def run_analyze(effective: dict) -> tuple[list[str], list[dict], int]:
    target = _build_target(effective)
    report = decompose(target)
    approx = fgvi_solve(target)
    shrink = shrinkage_matrix(target, approx)
    n = target.n

    rows = [{"section": "report", "name": "n", "value": n}]
    for name in (
        "log_det_S",
        "log_det_C",
        "entropy_p",
        "entropy_q",
        "entropy_gap",
        "kl_q_p",
        "condition_number",
    ):
        rows.append({"section": "report", "name": name, "value": getattr(report, name)})
    rows.append(
        {"section": "report", "name": "per_component_gap", "value": report.entropy_gap / n}
    )
    sigma_diag = np.diag(target.covariance)
    for i in range(n):
        rows.append({"section": "coordinate", "name": "sigma_ii", "i": i, "value": sigma_diag[i]})
    for i in range(n):
        rows.append({"section": "coordinate", "name": "psi_ii", "i": i, "value": approx.variances[i]})
    for i in range(n):
        rows.append({"section": "coordinate", "name": "s_ii", "i": i, "value": shrink.diagonal[i]})
    if n >= 2:
        cov_p = target.covariance[:2, :2]
        cov_q = np.diag(approx.variances[:2])
        for i in range(2):
            for j in range(i, 2):
                rows.append(
                    {"section": "ellipse_p", "name": "cov", "i": i, "j": j, "value": cov_p[i, j]}
                )
        for i in range(2):
            for j in range(i, 2):
                rows.append(
                    {"section": "ellipse_q", "name": "cov", "i": i, "j": j, "value": cov_q[i, j]}
                )
    return ["section", "name", "i", "j", "value"], rows, EXIT_OK


def _sweep_axis(effective: dict) -> tuple[str, list[float]]:
    has_eps = effective.get("eps_grid") is not None
    has_rho = effective.get("rho_grid") is not None
    if has_eps == has_rho:
        raise ValueError("exactly one of --eps-grid, --rho-grid must be given")
    axis = "eps" if has_eps else "rho"
    grid = effective["eps_grid" if has_eps else "rho_grid"]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"--{axis}-grid must be strictly ascending")
    return axis, grid


def _sweep_target(effective: dict, axis: str, value: float) -> GaussianTarget:
    n = effective.get("n")
    if n is None:
        raise ValueError("--n is required for a sweep")
    if axis == "eps":
        return constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=value))
    return squared_exponential_target(
        KernelConfig(
            n=n,
            rho=value,
            seed=effective["seed"],
            domain_upper=effective["domain_upper"],
            jitter=effective["jitter"],
        )
    )


def run_sweep(effective: dict) -> tuple[list[str], list[dict], int]:
    axis, grid = _sweep_axis(effective)

    def one_point(value: float) -> dict:
        report = decompose(_sweep_target(effective, axis, value))
        return {
            "axis": axis,
            "value": value,
            "half_log_det_S": 0.5 * report.log_det_S,
            "half_log_det_C_inv": -0.5 * report.log_det_C,
            "entropy_gap": report.entropy_gap,
            "kl_q_p": report.kl_q_p,
            "condition_number": report.condition_number,
        }

    rows = [one_point(value) for value in grid]
    columns = [
        "axis",
        "value",
        "half_log_det_S",
        "half_log_det_C_inv",
        "entropy_gap",
        "kl_q_p",
        "condition_number",
    ]
    return columns, rows, EXIT_OK


def run_bounds(effective: dict) -> tuple[list[str], list[dict], int]:
    n = effective.get("n")
    ratio_grid = effective.get("R_grid")
    if n is None or ratio_grid is None:
        raise ValueError("--n and --R-grid are required for bounds")
    has_eps = effective.get("eps_grid") is not None
    has_rho = effective.get("rho_grid") is not None
    if has_eps and has_rho:
        raise ValueError("give at most one of --eps-grid, --rho-grid")

    columns = [
        "row_type",
        "R",
        "family",
        "family_value",
        "upper_log_det_S",
        "upper_log_det_C",
        "lower_trace_S",
        "upper_trace_S",
        "joint_kl_upper",
        "separate_kl_upper",
        "measured_log_det_S",
        "measured_log_det_C",
        "measured_trace_S",
        "measured_kl",
        "valid",
    ]

    envelope = envelope_sweep(n, ratio_grid)
    rows = [
        {
            "row_type": "envelope",
            "R": report.condition_ratio,
            "upper_log_det_S": report.upper_log_det_S,
            "upper_log_det_C": report.upper_log_det_C,
            "lower_trace_S": report.lower_trace_S,
            "upper_trace_S": report.upper_trace_S,
            "joint_kl_upper": report.joint_kl_upper,
            "separate_kl_upper": report.separate_kl_upper,
        }
        for report in envelope
    ]

    code = EXIT_OK
    if has_eps or has_rho:
        axis = "eps" if has_eps else "rho"
        grid = effective["eps_grid" if has_eps else "rho_grid"]

        def one_point(value: float) -> dict:
            target = _sweep_target(effective, axis, value)
            measured = decompose(target)
            trace_s = shrinkage_matrix(target, fgvi_solve(target)).trace
            at_ratio = bounds_report(n, measured.condition_number)
            valid = (
                measured.log_det_S <= at_ratio.upper_log_det_S + _slack(at_ratio.upper_log_det_S)
                and measured.log_det_C <= at_ratio.upper_log_det_C + _slack(at_ratio.upper_log_det_C)
                and at_ratio.lower_trace_S - _slack(at_ratio.lower_trace_S)
                <= trace_s
                <= at_ratio.upper_trace_S + _slack(at_ratio.upper_trace_S)
                and measured.kl_q_p <= at_ratio.joint_kl_upper + _slack(at_ratio.joint_kl_upper)
            )
            return {
                "row_type": "measured",
                "R": measured.condition_number,
                "family": axis,
                "family_value": value,
                "upper_log_det_S": at_ratio.upper_log_det_S,
                "upper_log_det_C": at_ratio.upper_log_det_C,
                "lower_trace_S": at_ratio.lower_trace_S,
                "upper_trace_S": at_ratio.upper_trace_S,
                "joint_kl_upper": at_ratio.joint_kl_upper,
                "separate_kl_upper": at_ratio.separate_kl_upper,
                "measured_log_det_S": measured.log_det_S,
                "measured_log_det_C": measured.log_det_C,
                "measured_trace_S": trace_s,
                "measured_kl": measured.kl_q_p,
                "valid": valid,
            }

        measured_rows = [one_point(value) for value in grid]
        rows.extend(measured_rows)
        if not all(row["valid"] for row in measured_rows):
            code = EXIT_INVALID_FLAG
    return columns, rows, code


def _mixture_from_config(effective: dict) -> MixtureTarget:
    weights = np.asarray(effective["weights"], dtype=float)
    n = effective["n"]
    separation = effective["separation"]
    sigma = effective["sigma"]
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    count = weights.size
    means = np.zeros((count, n))
    means[:, 0] = (np.arange(count) - (count - 1) / 2.0) * separation
    return MixtureTarget(weights=weights, means=means, component_variance=sigma * sigma)


def run_mixture(effective: dict) -> tuple[list[str], list[dict], int]:
    target = _mixture_from_config(effective)
    seed = effective["seed"]
    optimizer_keys = (
        "learning_rate",
        "mc_samples",
        "max_steps",
        "tolerance",
        "window",
        "average_decay",
        "init_jitter",
    )
    overrides = {k: effective[k] for k in optimizer_keys if k in effective}
    config = OptimizerConfig(
        seed=seed, init_mean=mixture_init_mean(target, seed), **overrides
    )
    fitted = fit_fgvi(mixture_log_density_fn(target), target.n, config)
    comparison = shrinkage_comparison(target, fitted)
    moments = mixture_moments(target)
    bound = max_entropy_gap_bound(moments, fitted)

    rows = [
        {"section": "summary", "name": "n", "value": target.n},
        {"section": "summary", "name": "components", "value": target.components},
        {"section": "summary", "name": "trace_S", "value": comparison.trace_S},
        {"section": "summary", "name": "trace_S_G", "value": comparison.trace_S_G},
        {"section": "summary", "name": "max_entropy_gap_bound", "value": bound},
        {
            "section": "summary",
            "name": "mean_log_shrinkage",
            "value": comparison.S.log_det / target.n,
        },
        {"section": "summary", "name": "step_count", "value": fitted.step_count},
    ]
    sigma_diag = np.diag(moments.covariance)
    for i in range(target.n):
        rows.append({"section": "coordinate", "name": "sigma_ii", "i": i, "value": sigma_diag[i]})
    for i in range(target.n):
        rows.append(
            {"section": "coordinate", "name": "psi_ii", "i": i, "value": fitted.variances[i]}
        )
    for i in range(target.n):
        rows.append(
            {"section": "coordinate", "name": "s_ii", "i": i, "value": comparison.S.diagonal[i]}
        )
    for i in range(target.n):
        rows.append(
            {"section": "coordinate", "name": "s_g_ii", "i": i, "value": comparison.S_G.diagonal[i]}
        )
    for i in range(target.n):
        rows.append(
            {"section": "coordinate", "name": "fitted_mean", "i": i, "value": fitted.mean[i]}
        )
    for step, value in fitted.elbo_trace:
        rows.append({"section": "elbo", "name": "estimate", "i": step, "value": value})
    return ["section", "name", "i", "value"], rows, EXIT_OK


_RUNNERS = {
    "analyze": run_analyze,
    "sweep": run_sweep,
    "bounds": run_bounds,
    "mixture": run_mixture,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgvi",
        description="Entropy-gap decompositions, bounds and stochastic fits "
        "for factorized Gaussian approximations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, default=None, help="PRNG seed (unsigned 64-bit)")
        sub.add_argument("--out", default=None, help="output path, '-' for stdout")
        sub.add_argument("--format", choices=("csv", "json-lines"), default=None)
        sub.add_argument("--config", default=None, help="key = value config file")

    analyze = subparsers.add_parser("analyze", help="decompose one Gaussian target")
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--eps", type=float, default=None, help="constant off-diagonal value")
    analyze.add_argument("--rho", type=float, default=None, help="kernel length scale")
    analyze.add_argument("--matrix-file", default=None, help="covariance file (n, then n rows)")
    add_common(analyze)

    sweep = subparsers.add_parser("sweep", help="decompose a family along a parameter grid")
    sweep.add_argument("--n", type=int, default=None)
    sweep.add_argument("--eps-grid", type=_parse_float_list, default=None)
    sweep.add_argument("--rho-grid", type=_parse_float_list, default=None)
    add_common(sweep)

    bounds = subparsers.add_parser("bounds", help="condition-number bound envelopes")
    bounds.add_argument("--n", type=int, default=None)
    bounds.add_argument("--R-grid", dest="R_grid", type=_parse_float_list, default=None)
    bounds.add_argument("--eps-grid", type=_parse_float_list, default=None)
    bounds.add_argument("--rho-grid", type=_parse_float_list, default=None)
    add_common(bounds)

    mixture = subparsers.add_parser("mixture", help="stochastic fit of a Gaussian mixture")
    mixture.add_argument("--n", type=int, default=None)
    mixture.add_argument("--separation", type=float, default=None)
    mixture.add_argument("--sigma", type=float, default=None)
    mixture.add_argument("--weights", type=_parse_float_list, default=None)
    add_common(mixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        effective = resolve_config(args.command, flags, args.config)
        columns, rows, code = _RUNNERS[args.command](effective)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ArithmeticError, GenerationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergenceError as exc:
        print(f"optimizer divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    metadata = {
        "tool": "fgvi",
        "version": __version__,
        "subcommand": args.command,
        "config_hash": config_hash(args.command, effective),
    }
    for key in sorted(effective):
        metadata[f"config.{key}"] = _canonical(effective[key])

    out_path = effective.get("out", "-")
    if out_path == "-":
        write_table(sys.stdout, effective["format"], metadata, columns, rows)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            write_table(handle, effective["format"], metadata, columns, rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
