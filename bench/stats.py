"""Latency, rate and JSON arithmetic for benchmark results.

A failed op missed every latency limit, so failures rank above every
success.  A percentile that lands on a failure is reported as missed
(``None``, JSON ``null``) and is never recomputed from the successes
alone; with this rule, fixing a defect reads as a gain rather than as a
latency regression.
"""

from __future__ import annotations

import json
import math

# The tail percentile is the highest one with at least this many attempted
# ops beyond it, so that it never rests on one or two samples.
TAIL_MIN_BEYOND = 10
# Seconds per iteration of each reference kernel (child.reference_seconds)
# on the nominal machine: the typical speed of a 2-core Intel Xeon virtual
# machine with one BLAS thread.  setup_s and goodput_per_s are taken at
# that speed.
REF_NOMINAL_S = {"interpreter": 7.75e-6, "memory": 1.7e-3}


def ranked(latencies_s, oks) -> list[tuple[bool, float]]:
    """Ops in latency order with every failure after every success."""
    return sorted((not ok, lat) for lat, ok in zip(latencies_s, oks))


def nearest_rank(count: int, pct: float) -> int:
    """1-based nearest-rank index of percentile ``pct`` among ``count`` ops."""
    if count < 1:
        raise ValueError("no ops to rank")
    return min(count, max(1, math.ceil(pct / 100.0 * count - 1e-9)))


def percentile_ms(latencies_s, oks, pct: float) -> float | None:
    """Latency at percentile ``pct`` in ms, or None when it is a failure."""
    order = ranked(latencies_s, oks)
    failed, lat = order[nearest_rank(len(order), pct) - 1]
    return None if failed else lat * 1e3


def tail(latencies_s, oks, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float | None, float | None]:
    """(percentile, latency ms) of the highest percentile that keeps at
    least ``min_beyond`` attempted ops beyond it.

    The percentile is None when fewer than ``min_beyond + 1`` ops ran; the
    latency is None as well when the rank lands on a failure.
    """
    order = ranked(latencies_s, oks)
    count = len(order)
    if count <= min_beyond:
        return None, None
    rank = count - min_beyond
    failed, lat = order[rank - 1]
    return 100.0 * rank / count, (None if failed else lat * 1e3)


def reference_slowdown(refs, kind: str = "interpreter") -> float:
    """Median of reference-kernel times per iteration over the nominal."""
    return median(refs) / REF_NOMINAL_S[kind]


def end_to_end(
    latencies_s, oks, wall_s: float, slowdown: float, setup_s: float, peak_rss_mb: float
) -> dict:
    """The six end-to-end figures of one measured run, plus context.

    ``wall_s`` is the timed wall time, during which the reference kernel
    ran ``slowdown`` times slower than nominal; goodput_per_s is taken at
    the nominal speed, goodput_raw_per_s at the measured one.
    """
    attempted = len(oks)
    good = sum(1 for ok in oks if ok)
    tail_pct, tail_ms = tail(latencies_s, oks)
    return {
        "setup_s": setup_s,
        "goodput_per_s": good / wall_s * slowdown,
        "goodput_raw_per_s": good / wall_s,
        "op_p50_ms": percentile_ms(latencies_s, oks, 50.0),
        "op_tail_ms": tail_ms,
        "error_rate": (attempted - good) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "op_tail_pct": tail_pct,
        "op_samples": attempted,
    }


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    order = sorted(values)
    mid = len(order) // 2
    return order[mid] if len(order) % 2 else 0.5 * (order[mid - 1] + order[mid])


def dumps(obj) -> str:
    """Strict JSON: raises on NaN or infinity instead of emitting them."""
    return json.dumps(obj, allow_nan=False)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def loads(text: str):
    """Strict JSON parse that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
