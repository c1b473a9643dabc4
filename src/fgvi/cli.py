"""Command-line interface: deterministic tables for every library surface.

Four subcommands: ``analyze`` decomposes one target, ``sweep`` walks a
family parameter grid, ``bounds`` tabulates the condition-number envelopes
(optionally overlaid with measured curves from a target family), and
``mixture`` runs the stochastic fit on a separated Gaussian mixture.

Output is CSV or JSON-lines with a leading metadata record (tool version,
seed, effective config, config hash).  Floats are printed with 17
significant digits, so identical configs produce byte-identical output and
every value round-trips through text exactly.

Exit codes: 0 success, 1 a validity flag failed, 2 invalid input or an
``--out`` path that cannot be written, 3 numerical failure (singular input,
overflow, or a nan or infinite value bound for the output), 4 optimizer
divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from typing import Callable, NamedTuple

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
    shrinkage_comparison,
)
from .gaussian import (
    GaussianTarget,
    _check_dimension,
    _check_seed,
    _real_array,
    decompose,
    fgvi_solve,
    shrinkage_matrix,
)
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


class _BadValueError(argparse.ArgumentTypeError, ValueError):
    """Bad value: argparse prints its message for a flag, main for a config file."""


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise _BadValueError(f"expected comma-separated numbers, got {text!r}")
    return values


_GAUSSIAN = "analyze sweep bounds"
_ALL = _GAUSSIAN + " mixture"
# Lines must survive str.splitlines(): CSV metadata writes \ and each line break
# it splits at as unicode_escape does, JSON strings the three json leaves raw as \u.
_METADATA_ESCAPES = str.maketrans(
    {c: c.encode("unicode_escape").decode() for c in "\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)
_JSON_ESCAPES = str.maketrans({c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"})
_encode_string = json.JSONEncoder(ensure_ascii=False).encode


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = text  # refused, quoted, by _check_seed
    try:
        return _check_seed(seed)
    except ValueError as exc:
        raise _BadValueError(*exc.args) from None


def _format(text: str) -> str:
    if text not in ("csv", "json-lines"):
        raise _BadValueError(f"format must be 'csv' or 'json-lines', got {text!r}")
    return text


def _on(subcommands: str, default=None) -> dict:
    return dict.fromkeys(subcommands.split(), default)


class _Key(NamedTuple):
    """One config key: its coercion (config-file values and flag strings),
    the subcommands that accept it with their defaults (None for none), and
    whether it is also a ``--flag``."""

    coerce: Callable[[str], object]
    defaults: dict
    flag: bool = False
    help: str | None = None
    metavar: str | None = None


# Flags appear in each subcommand's help in this order, then --config.
_KEYS = {
    "n": _Key(int, {**_on(_GAUSSIAN), "mixture": 2}, flag=True),
    "eps": _Key(float, _on("analyze"), flag=True, help="constant off-diagonal value"),
    "rho": _Key(float, _on("analyze"), flag=True, help="kernel length scale"),
    "matrix_file": _Key(str, _on("analyze"), flag=True, help="covariance file (n, then n rows)"),
    "R_grid": _Key(_parse_float_list, _on("bounds"), flag=True),
    "eps_grid": _Key(_parse_float_list, _on("sweep bounds"), flag=True),
    "rho_grid": _Key(_parse_float_list, _on("sweep bounds"), flag=True),
    "separation": _Key(float, _on("mixture", 10.0), flag=True),
    "sigma": _Key(float, _on("mixture", 1.0), flag=True),
    "weights": _Key(_parse_float_list, _on("mixture", [0.5, 0.5]), flag=True),
    "seed": _Key(_seed, _on(_ALL, 0), flag=True, help="PRNG seed (unsigned 64-bit)"),
    "out": _Key(str, _on(_ALL, "-"), flag=True, help="output path, '-' for stdout"),
    "format": _Key(_format, _on(_ALL, "csv"), flag=True, metavar="{csv,json-lines}"),
    "jitter": _Key(float, _on(_GAUSSIAN, 1e-8)),
    # Optimizer settings, config file only; unset ones keep OptimizerConfig's defaults.
    "learning_rate": _Key(float, _on("mixture")),
    "mc_samples": _Key(int, _on("mixture")),
    "max_steps": _Key(int, _on("mixture")),
    "tolerance": _Key(float, _on("mixture")),
    "window": _Key(int, _on("mixture")),
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
    keys = {name: key for name, key in _KEYS.items() if subcommand in key.defaults}
    effective = {
        name: key.defaults[subcommand]
        for name, key in keys.items()
        if key.defaults[subcommand] is not None
    }
    if config_path is not None:
        for name, raw in read_config_file(config_path).items():
            if name not in keys:
                raise ValueError(f"config key {name!r} is not valid for {subcommand!r}")
            effective[name] = keys[name].coerce(raw)
    for name, value in flags.items():
        if value is not None and name in keys:
            effective[name] = value
    return effective


def _float_text(value) -> str:
    return format(value, ".17g")


def _quoted(text: str) -> str:
    """A str as a JSON string token.  Every character the encoder or
    _JSON_ESCAPES escapes is a quote, a backslash or unprintable."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return _encode_string(text).translate(_JSON_ESCAPES)


# The types of nearly every cell, by exact type: one dict lookup per cell
# instead of a chain of isinstance checks.  np.float64 formats as float does.
_TEXT_BY_TYPE = {float: _float_text, np.float64: _float_text, int: str, str: str}
_JSON_BY_TYPE = {**_TEXT_BY_TYPE, str: _quoted}


def _text(value) -> str:
    """A value as written in CSV cells, metadata and the config hash."""
    fast = _TEXT_BY_TYPE.get(type(value))
    if fast is not None:
        return fast(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return str(value)


def config_hash(subcommand: str, effective: dict) -> str:
    payload = "\n".join(
        [subcommand] + [f"{k}={_text(v)}" for k, v in sorted(effective.items())]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def _json(value) -> str:
    """A value as a JSON token: numbers and booleans as in CSV."""
    fast = _JSON_BY_TYPE.get(type(value))
    if fast is not None:
        return fast(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    if isinstance(value, (bool, int, float, np.number)):
        return _text(value)
    return _quoted(str(value))


def _json_line(record: dict) -> str:
    return "{" + ", ".join(f'"{key}": {_json(value)}' for key, value in record.items()) + "}"


class NonFiniteOutputError(ArithmeticError):
    """A float bound for a table is nan or inf; JSON has no token for it."""


# Float types by exact type: a set lookup, far cheaper per cell than isinstance.
_FLOAT_TYPES = frozenset({float, np.float16, np.float32, np.float64, np.longdouble})
# Cells of these exact types are floats, checked together, or hold no float;
# any other cell, a list or tuple among them, goes through _finite.
_PLAIN_TYPES = _FLOAT_TYPES | {int, str, bool, type(None)}


def _finite(value) -> bool:
    """False for a nan or infinite float, alone or in a list or tuple."""
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return type(value) not in _FLOAT_TYPES or bool(np.isfinite(value))


def write_table(stream, fmt: str, metadata: dict, columns: list[str], rows: list[dict]) -> None:
    """Emit one table with a leading metadata record.

    Raises NonFiniteOutputError, before writing anything, if a metadata
    value or a cell is a nan or infinite float, or a list or tuple holding
    one, in either format.
    """
    for key, value in metadata.items():
        if not _finite(value):
            raise NonFiniteOutputError(f"metadata {key} is not finite: {value}")
    cells = [[row.get(col) for col in columns] for row in rows]
    floats = [value for line in cells for value in line if type(value) in _FLOAT_TYPES]
    others = [value for line in cells for value in line if type(value) not in _PLAIN_TYPES]
    if not (np.isfinite(floats).all() and all(map(_finite, others))):
        index, col, value = next(
            (index, col, value)
            for index, line in enumerate(cells)
            for col, value in zip(columns, line)
            if not _finite(value)
        )
        raise NonFiniteOutputError(f"column {col} of row {index} is not finite: {value}")
    if fmt == "csv":
        for key, value in metadata.items():
            stream.write(f"# {key}={_text(value).translate(_METADATA_ESCAPES)}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for line in cells:
            writer.writerow([_text(value) for value in line])
    else:
        stream.write(_json_line({"record": "metadata", **metadata}) + "\n")
        stream.write(_json_line({"record": "header", "columns": columns}) + "\n")
        # Each row prints as {"record": "row", **dict(zip(columns, line))}
        # would: a column named "record" or named twice keeps the first place.
        slots = {"record": len(columns), **{col: i for i, col in enumerate(columns)}}
        fields = [(f'"{col}": ', i) for col, i in slots.items()]
        for line in cells:
            line.append("row")
            stream.write("{" + ", ".join([key + _json(line[i]) for key, i in fields]) + "}\n")


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
    matrix = _real_array(matrix, "matrix", 2, copy=False)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{matrix.shape[0]}\n")
        for row in matrix:
            handle.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _family_target(effective: dict, axis: str, value: float) -> GaussianTarget:
    """The equicorrelated (axis 'eps') or squared-exponential kernel (axis
    'rho') target of size --n at one parameter value."""
    n = effective.get("n")
    if n is None:
        raise ValueError("--n is required with --eps, --rho, --eps-grid or --rho-grid")
    if axis == "eps":
        return constant_offdiag_target(ConstantOffDiagConfig(n=n, eps=value))
    return squared_exponential_target(
        KernelConfig(n=n, rho=value, seed=effective["seed"], jitter=effective["jitter"])
    )


def _family_grid(effective: dict) -> tuple[str, list[float]] | None:
    """The family axis and grid of --eps-grid or --rho-grid; None if neither."""
    given = [axis for axis in ("eps", "rho") if effective.get(f"{axis}_grid") is not None]
    if len(given) > 1:
        raise ValueError("give at most one of --eps-grid, --rho-grid")
    return (given[0], effective[f"{given[0]}_grid"]) if given else None


def _named_rows(section: str, values: dict) -> list[dict]:
    return [{"section": section, "name": name, "value": v} for name, v in values.items()]


def _coordinate_rows(vectors: dict) -> list[dict]:
    """One 'coordinate' row per entry of each named per-coordinate vector."""
    return [
        {"section": "coordinate", "name": name, "i": i, "value": value}
        for name, vector in vectors.items()
        for i, value in enumerate(vector)
    ]


def run_analyze(effective: dict) -> tuple[list[str], list[dict], int]:
    sources = [key for key in ("matrix_file", "eps", "rho") if effective.get(key) is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --matrix-file, --eps, --rho must be given")
    if sources == ["matrix_file"]:
        cov = read_matrix_file(effective["matrix_file"])
        target = GaussianTarget(mean=np.zeros(cov.shape[0]), covariance=cov)
    else:
        target = _family_target(effective, sources[0], effective[sources[0]])
    report = decompose(target)
    approx = fgvi_solve(target)
    shrink = shrinkage_matrix(target, approx)
    n = target.n

    names = ("log_det_S", "log_det_C", "entropy_p", "entropy_q", "entropy_gap", "kl_q_p")
    rows = _named_rows(
        "report",
        {
            "n": n,
            **{name: getattr(report, name) for name in names + ("condition_number",)},
            "per_component_gap": report.entropy_gap / n,
        },
    )
    rows += _coordinate_rows(
        {
            "sigma_ii": np.diag(target.covariance),
            "psi_ii": approx.variances,
            "s_ii": shrink.diagonal,
        }
    )
    if n >= 2:
        cov_q = np.diag(approx.variances[:2])
        rows += [
            {"section": section, "name": "cov", "i": i, "j": j, "value": cov[i, j]}
            for section, cov in (("ellipse_p", target.covariance), ("ellipse_q", cov_q))
            for i, j in ((0, 0), (0, 1), (1, 1))
        ]
    return ["section", "name", "i", "j", "value"], rows, EXIT_OK


def run_sweep(effective: dict) -> tuple[list[str], list[dict], int]:
    family = _family_grid(effective)
    if family is None:
        raise ValueError("exactly one of --eps-grid, --rho-grid must be given")
    axis, grid = family
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"--{axis}-grid must be strictly ascending")

    def one_point(value: float) -> dict:
        report = decompose(_family_target(effective, axis, value))
        return {
            "axis": axis,
            "value": value,
            "half_log_det_S": 0.5 * report.log_det_S,
            "half_log_det_C_inv": 0.0 - 0.5 * report.log_det_C,
            "entropy_gap": report.entropy_gap,
            "kl_q_p": report.kl_q_p,
            "condition_number": report.condition_number,
        }

    rows = [one_point(value) for value in grid]
    return list(rows[0]), rows, EXIT_OK


_BOUND_COLUMNS = (
    "upper_log_det_S",
    "upper_log_det_C",
    "lower_trace_S",
    "upper_trace_S",
    "joint_kl_upper",
    "separate_kl_upper",
)


def _bound_cells(report) -> dict:
    return {name: getattr(report, name) for name in _BOUND_COLUMNS}


def run_bounds(effective: dict) -> tuple[list[str], list[dict], int]:
    n = effective.get("n")
    ratio_grid = effective.get("R_grid")
    if n is None or ratio_grid is None:
        raise ValueError("--n and --R-grid are required for bounds")
    family = _family_grid(effective)

    columns = [
        "row_type",
        "R",
        "family",
        "family_value",
        *_BOUND_COLUMNS,
        "measured_log_det_S",
        "measured_log_det_C",
        "measured_trace_S",
        "measured_kl",
        "valid",
    ]
    rows = [
        {"row_type": "envelope", "R": report.condition_ratio, **_bound_cells(report)}
        for report in envelope_sweep(n, ratio_grid)
    ]
    if family is None:
        return columns, rows, EXIT_OK
    axis, grid = family

    def one_point(value: float) -> dict:
        target = _family_target(effective, axis, value)
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
            **_bound_cells(at_ratio),
            "measured_log_det_S": measured.log_det_S,
            "measured_log_det_C": measured.log_det_C,
            "measured_trace_S": trace_s,
            "measured_kl": measured.kl_q_p,
            "valid": valid,
        }

    measured_rows = [one_point(value) for value in grid]
    code = EXIT_OK if all(row["valid"] for row in measured_rows) else EXIT_INVALID_FLAG
    return columns, rows + measured_rows, code


def _mixture_from_config(effective: dict) -> MixtureTarget:
    n, separation, sigma = effective["n"], effective["separation"], effective["sigma"]
    _check_dimension(n)
    if not (sigma > 0.0 and 0.0 < sigma * sigma < np.inf):
        raise ValueError(f"sigma must be positive with a finite, non-zero square, got {sigma!r}")
    count = len(effective["weights"])
    means = np.zeros((count, n))
    with np.errstate(over="ignore", invalid="ignore"):
        means[:, 0] = (np.arange(count) - (count - 1) / 2.0) * separation
    if np.all(np.isfinite(means)):
        target = MixtureTarget(effective["weights"], means, component_variance=sigma * sigma)
        # The (0, 0) spread entry of mixture_moments, which would overflow
        # only after the fit.
        centered = means[:, 0] - target.weights @ means[:, 0]
        with np.errstate(over="ignore"):
            spread = (target.weights * centered) @ centered
        if spread < np.inf:
            return target
    raise ValueError(f"separation must give the means a finite squared spread, got {separation!r}")


def run_mixture(effective: dict) -> tuple[list[str], list[dict], int]:
    target = _mixture_from_config(effective)
    fields = {field.name for field in dataclasses.fields(OptimizerConfig)}
    settings = {k: v for k, v in effective.items() if k in fields}
    config = OptimizerConfig(init_mean=mixture_init_mean(target, effective["seed"]), **settings)
    fitted = fit_fgvi(mixture_log_density_fn(target), target.n, config)
    comparison = shrinkage_comparison(target, fitted)

    rows = _named_rows(
        "summary",
        {
            "n": target.n,
            "components": target.components,
            "trace_S": comparison.trace_S,
            "trace_S_G": comparison.trace_S_G,
            "max_entropy_gap_bound": max_entropy_gap_bound(comparison.moments, fitted),
            "mean_log_shrinkage": comparison.S.log_det / target.n,
            "step_count": fitted.step_count,
        },
    )
    rows += _coordinate_rows(
        {
            "sigma_ii": np.diag(comparison.moments.covariance),
            "psi_ii": fitted.variances,
            "s_ii": comparison.S.diagonal,
            "s_g_ii": comparison.S_G.diagonal,
            "fitted_mean": fitted.mean,
        }
    )
    rows += [
        {"section": "elbo", "name": "estimate", "i": step, "value": value}
        for step, value in fitted.elbo_trace
    ]
    return ["section", "name", "i", "value"], rows, EXIT_OK


# Subcommand: (help, runner).
_SUBCOMMANDS = {
    "analyze": ("decompose one Gaussian target", run_analyze),
    "sweep": ("decompose a family along a parameter grid", run_sweep),
    "bounds": ("condition-number bound envelopes", run_bounds),
    "mixture": ("stochastic fit of a Gaussian mixture", run_mixture),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fgvi`` argument parser, built on the first call and shared by
    every later one: parsing and usage errors leave it unchanged, and
    building it costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="fgvi",
        description="Entropy-gap decompositions, bounds and stochastic fits "
        "for factorized Gaussian approximations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        for name, key in _KEYS.items():
            if key.flag and command in key.defaults:
                sub.add_argument(
                    "--" + name.replace("_", "-"),
                    type=key.coerce,
                    help=key.help,
                    metavar=key.metavar,
                )
        sub.add_argument("--config", default=None, help="key = value config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        effective = resolve_config(args.command, flags, args.config)
        columns, rows, code = _SUBCOMMANDS[args.command][1](effective)
        metadata = {
            "tool": "fgvi",
            "version": __version__,
            "subcommand": args.command,
            "config_hash": config_hash(args.command, effective),
            **{f"config.{key}": _text(effective[key]) for key in sorted(effective)},
        }
        # Rendered whole first, so that a refused table leaves no output file.
        table = io.StringIO()
        write_table(table, effective["format"], metadata, columns, rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ArithmeticError, GenerationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergenceError as exc:
        print(f"optimizer divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    out_path = effective.get("out", "-")
    if out_path == "-":
        sys.stdout.write(table.getvalue())
    else:
        handle = None
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(table.getvalue())
        except OSError as exc:
            # A regular file cut short by a failed write is not left as output.
            if handle is not None and os.path.isfile(out_path):
                with contextlib.suppress(OSError):
                    os.remove(out_path)
            print(f"error: cannot write output file {out_path}: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
