"""Spans around the benchmark's own calls into fgvi's public functions.

Each layer is timed from outside: the harness calls a public function
through ``call(name, fn, *args)`` and the tracer records a span with the
name, start, end, parent span and op id.  Spans stay in memory and are
written once, when the traced run ends.  Nothing inside ``fgvi`` is
patched.

Span names are ``<layer>.<function>``; the harness's own spans (an op, or
the probes after it) use the layer ``bench``.
"""

from __future__ import annotations

import json
from time import perf_counter


def error_cause(exc: BaseException) -> str:
    """Short cause label for an exception raised by fgvi."""
    name = type(exc).__name__
    text = str(exc)
    if name == "ValueError" and "log-determinant" in text and "is below" in text:
        return "log_det_floor"
    if name in ("ConditioningError", "GenerationError"):
        return "conditioning"
    return "other"


def plain_call(name, fn, *args):
    """Untraced call: tags an escaping exception with the call's name."""
    try:
        return fn(*args)
    except Exception as exc:
        if not hasattr(exc, "bench_call"):
            exc.bench_call = name
        raise


class Tracer:
    """In-memory span recorder; ``call`` has the signature of ``plain_call``."""

    def __init__(self):
        # [name, start, end, parent index, op id, error type, error cause]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span[5] = type(exc).__name__
            span[6] = error_cause(exc)
            if not hasattr(exc, "bench_call"):
                exc.bench_call = name
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "error", "cause")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self) -> dict:
        """Per-function calls and durations, per-layer self time and errors.

        A span's self time is its duration minus that of its direct
        children; the harness never overlaps sibling calls, so the
        children's sum is exactly the part of the interval they cover.
        An error counts once, at the innermost span that raised it.
        """
        child_time = [0.0] * len(self.spans)
        raised_inside = [False] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
                if span[5] is not None:
                    raised_inside[span[3]] = True
        functions: dict[str, list[float]] = {}
        self_ms: dict[str, float] = {}
        errors: dict[str, dict[str, int]] = {}
        for i, (name, start, end, _parent, _op, err, cause) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            functions.setdefault(name, []).append((end - start) * 1e3)
            self_ms[layer] = self_ms.get(layer, 0.0) + (end - start - child_time[i]) * 1e3
            if err is not None and not raised_inside[i]:
                counts = errors.setdefault(layer, {})
                for key in (f"type.{err}", f"cause.{cause}"):
                    counts[key] = counts.get(key, 0) + 1
        return {"functions": functions, "self_ms": self_ms, "errors": errors}
