"""Brute-force arbiters for the eigenvalue-envelope bounds.

Each oracle searches the relaxed feasible set directly, never calling
the closed forms under test.  Feasible spectra (descending, trace n,
extreme-eigenvalue ratio R) form a convex polytope whose vertices are
exactly the two-level spectra: j entries at the top edge and n - j at
the bottom.  Convex objectives therefore peak at one of those n - 1
vertices, which the oracles enumerate exactly; dense 1-D grids over the
bottom eigenvalue (one flexible entry, or all interior entries equal)
confirm that no interior point does better and catch the stationary
optima of the concave/convex interior problems.  Exact vertex candidates
are always included so comparisons are not limited by grid resolution.

``reference_table`` is the arbiter of the CLI's table writer: the general,
isinstance-driven cell formatting and dict-per-row JSON records the writer
used before its exact-type fast path, kept whole so its bytes and its
refusals can be compared with the writer's.
"""

import csv
import io
import json
import math

import numpy as np


def _two_level_profiles(n: int, ratio: float) -> list[np.ndarray]:
    profiles = []
    for j in range(1, n):
        bottom = n / (j * ratio + n - j)
        profiles.append(
            np.concatenate([np.full(j, ratio * bottom), np.full(n - j, bottom)])
        )
    return profiles


def _equal_interior(n: int, ratio: float, step: float):
    """Grids (lam_n, shared interior value) for spectra with all n - 2
    interior entries equal; empty when nothing is feasible.

    lam_n runs over its feasible interval [n/(R(n-1)+1), n/(R+n-1)] in
    round(1/step) steps, so the grid keeps its resolution however small
    lam_n gets at large R."""
    lo, hi = n / (ratio * (n - 1) + 1.0), n / (ratio + n - 1.0)
    grid = np.linspace(lo, hi, int(round(1.0 / step)) + 1)
    interior = (n - (1.0 + ratio) * grid) / (n - 2)
    mask = (interior >= grid) & (interior <= ratio * grid)
    return grid[mask], interior[mask]


def oracle_max_inverse_sum(n: int, ratio: float, step: float = 1e-5) -> float:
    if ratio == 1.0:
        return float(n)
    best = max(float(np.sum(1.0 / v)) for v in _two_level_profiles(n, ratio))
    grid = np.arange(step, 1.0 + step, step)
    for k in range(1, n - 1):
        # k entries at the top edge, one flexible, n - k - 1 at the bottom
        flex = n - (k * ratio + (n - k - 1)) * grid
        mask = (flex >= grid) & (flex <= ratio * grid)
        if np.any(mask):
            lam_n = grid[mask]
            value = k / (ratio * lam_n) + (n - k - 1) / lam_n + 1.0 / flex[mask]
            best = max(best, float(np.max(value)))
    return best


def oracle_bound_log_det_s(n: int, ratio: float, step: float = 1e-5) -> float:
    return n * math.log(oracle_max_inverse_sum(n, ratio, step) / n)


def oracle_bound_log_det_c(n: int, ratio: float, step: float = 1e-6) -> float:
    if ratio == 1.0 or n == 1:
        return 0.0
    if n == 2:
        bottom = 2.0 / (1.0 + ratio)
        return math.log(ratio * bottom) + math.log(bottom)
    best = max(float(np.sum(np.log(v))) for v in _two_level_profiles(n, ratio))
    lam_n, interior = _equal_interior(n, ratio, step)
    if lam_n.size:
        value = np.log(ratio * lam_n) + (n - 2) * np.log(interior) + np.log(lam_n)
        best = max(best, float(np.max(value)))
    return best


def oracle_min_inverse_sum(n: int, ratio: float, step: float = 1e-6) -> float:
    if ratio == 1.0:
        return float(n)
    if n == 2:
        bottom = 2.0 / (1.0 + ratio)
        return 1.0 / (ratio * bottom) + 1.0 / bottom
    best = min(float(np.sum(1.0 / v)) for v in _two_level_profiles(n, ratio))
    lam_n, interior = _equal_interior(n, ratio, step)
    if lam_n.size:
        value = 1.0 / (ratio * lam_n) + (n - 2) / interior + 1.0 / lam_n
        best = min(best, float(np.min(value)))
    return best


def oracle_joint_kl(n: int, ratio: float, step: float = 1e-6) -> float:
    """Search in normalized-inverse space: simplex vectors with extreme
    ratio R, objective (1/2)(-sum log omega - n log n)."""
    if ratio == 1.0:
        return 0.0
    best = -math.inf
    for j in range(1, n):
        bottom = 1.0 / (j * ratio + n - j)
        best = max(best, -(j * math.log(ratio * bottom) + (n - j) * math.log(bottom)))
    grid = np.arange(step, 1.0 / n + step, step)
    for k in range(1, n - 1):
        flex = 1.0 - (k * ratio + (n - k - 1)) * grid
        mask = (flex >= grid) & (flex <= ratio * grid)
        if np.any(mask):
            omega = grid[mask]
            value = -(
                k * np.log(ratio * omega)
                + (n - k - 1) * np.log(omega)
                + np.log(flex[mask])
            )
            best = max(best, float(np.max(value)))
    return 0.5 * (best - n * math.log(n))


_METADATA_ESCAPES = str.maketrans(
    {c: c.encode("unicode_escape").decode() for c in "\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}
)
_JSON_ESCAPES = str.maketrans({c: f"\\u{ord(c):04x}" for c in "\x85\u2028\u2029"})
_encode_string = json.JSONEncoder(ensure_ascii=False).encode
_FLOAT_TYPES = (float, np.float16, np.float32, np.float64, np.longdouble)


def _text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple)):
        return ",".join(_text(v) for v in value)
    return str(value)


def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    if isinstance(value, (bool, int, float, np.number)):
        return _text(value)
    return _encode_string(str(value)).translate(_JSON_ESCAPES)


def _json_line(record: dict) -> str:
    return "{" + ", ".join(f'"{key}": {_json(value)}' for key, value in record.items()) + "}"


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return type(value) not in _FLOAT_TYPES or bool(np.isfinite(value))


def reference_table(fmt: str, metadata: dict, columns: list, rows: list) -> str:
    """The table write_table should emit, or ArithmeticError with the
    message its refusal should carry."""
    for key, value in metadata.items():
        if not _finite(value):
            raise ArithmeticError(f"metadata {key} is not finite: {value}")
    cells = [[row.get(col) for col in columns] for row in rows]
    floats = [value for line in cells for value in line if type(value) in _FLOAT_TYPES]
    if not np.isfinite(floats).all():
        index, col, value = next(
            (index, col, value)
            for index, line in enumerate(cells)
            for col, value in zip(columns, line)
            if not _finite(value)
        )
        raise ArithmeticError(f"column {col} of row {index} is not finite: {value}")
    stream = io.StringIO()
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
        for line in cells:
            stream.write(_json_line({"record": "row", **dict(zip(columns, line))}) + "\n")
    return stream.getvalue()
