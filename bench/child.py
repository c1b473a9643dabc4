"""One workload process: set up, run a closed loop, check, report JSON.

Started by ``run.py`` in a fresh interpreter per pass.  The loop is a
single client: the next op starts only when the previous one has ended.
It measures whole cycles until ``--seconds`` of timed wall time have
passed, checks each op's output outside the timed region, and prints one
JSON object on stdout.

    python3 bench/child.py --workload small-targets --seed 1 --seconds 5 \
        --mode run --traced 0 --workdir bench/out/work
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from time import perf_counter

# Reference kernels, timed beside the work to follow the host's speed
# drift: "interpreter" is interpreter work and small numpy calls, like
# interpreter start, imports and most ops; "memory" is a matrix-vector
# product over a 32 MB matrix, like the factorizations of large targets.
# Each child times REF_SAMPLES runs of REF_ITERATIONS interpreter
# iterations (about 15 ms each) once it is ready, before any timed op; and
# while it measures, it times blocks of its workload's kernel (a few ms
# each) after every op, off the timed clock, until their time reaches
# REF_SHARE of the op time so far.
REF_ITERATIONS = 2000
REF_SAMPLES = 5
REF_BLOCKS = {"interpreter": 100, "memory": 2}
REF_SHARE = 0.05
_kernel_data: dict = {}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]


def versions() -> dict:
    import numpy
    import scipy

    record = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas_name"] = blas.get("name")
        record["blas_version"] = blas.get("version")
        record["blas_config"] = blas.get("openblas configuration")
    except (TypeError, KeyError):
        record["blas_name"] = "unknown"
    return record


def reference_seconds(iterations: int, kind: str = "interpreter") -> float:
    """Wall time per iteration of a fixed reference kernel.

    The host's speed drifts by tens of per cent from minute to minute;
    timing a kernel like the work beside the work measures the drift, so
    that set-up time and goodput can be taken at a fixed machine speed.
    """
    import numpy

    if kind not in _kernel_data:
        rng = numpy.random.default_rng(0)
        if kind == "interpreter":
            _kernel_data[kind] = rng.standard_normal((8, 8))
        else:
            _kernel_data[kind] = (rng.standard_normal((2048, 2048)), numpy.ones(2048))
    data = _kernel_data[kind]
    start = perf_counter()
    if kind == "interpreter":
        for _ in range(iterations):
            product = data @ data
            float(numpy.sum(product * product))
            sum(range(50))
    else:
        matrix, vector = data
        for _ in range(iterations):
            float(numpy.sum(matrix @ vector))
    return (perf_counter() - start) / iterations


class ReferenceClock:
    """Blocks of one reference kernel timed while a run measures."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = 0.0
        self.iterations = 0

    def block(self) -> float:
        """Time one block; its seconds."""
        count = REF_BLOCKS[self.kind]
        spent = reference_seconds(count, self.kind) * count
        self.seconds += spent
        self.iterations += count
        return spent


def layer_summary(tracer) -> dict:
    from stats import median

    summary = tracer.summary()
    functions = {
        name: {"calls": len(d), "busy_ms": sum(d), "p50_ms": median(d)}
        for name, d in summary["functions"].items()
    }
    return {"functions": functions, "self_ms": summary["self_ms"], "errors": summary["errors"]}


def run_defects(workload) -> dict:
    """Run the workload's known-defect specs once, after the timed loop,
    through a tracer of their own so that their errors are counted per
    layer but their times stay out of the timed ops' layer figures."""
    from tracing import Tracer, error_cause

    tracer = Tracer()
    outcomes: dict[str, int] = {}
    failed = wrong = 0
    specs = workload.defect_specs()
    for index, spec in enumerate(specs):
        tracer.op_id = index
        out = {}
        try:
            tracer.call("bench.defect", workload.run, spec, out, tracer.call)
            failure = workload.check(spec, out)
        except Exception as exc:
            failure = ("raised", f"{getattr(exc, 'bench_call', 'bench.defect')}:"
                       f"{type(exc).__name__}:{error_cause(exc)}")
        if failure is not None:
            failed += 1
            wrong += failure[0] == "wrong"
            key = f"{spec['defect']}/{failure[0]}:{failure[1]}"
            outcomes[key] = outcomes.get(key, 0) + 1
    return {
        "attempted": len(specs),
        "failed": failed,
        "wrong": wrong,
        "outcomes": outcomes,
        "errors": tracer.summary()["errors"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="span file written at exit when traced")
    parser.add_argument(
        "--defects", type=int, choices=(0, 1), default=0,
        help="run the known-defect specs after the timed loop",
    )
    parser.add_argument(
        "--end-to-end", type=int, choices=(0, 1), default=0,
        help="the end-to-end measuring run: at least the workload's min_cycles",
    )
    args = parser.parse_args(argv)

    import fgvi

    if not os.path.abspath(fgvi.__file__).startswith(SRC + os.sep):
        print(f"fgvi imported from {fgvi.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from stats import dumps
    from tracing import Tracer, error_cause, plain_call
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warmup(plain_call)
    t_ready = time.monotonic()
    refs = [reference_seconds(REF_ITERATIONS) for _ in range(REF_SAMPLES)]
    if args.mode == "setup":
        print(dumps({"t_ready": t_ready, "refs": refs}))
        return 0

    tracer = Tracer() if args.traced else None
    call = tracer.call if tracer else plain_call
    reference = ReferenceClock(workload.reference_kind)
    if not tracer:
        workload.reference = reference.block
    # Only ops run on the timed clock: inputs are drawn and screened, probes
    # run and outputs are checked while it is stopped, and no op output
    # outlives its check.
    latencies, oks = [], []
    failures: dict[str, int] = {}
    correct = True
    timed = 0.0
    min_cycles = workload.min_cycles if args.end_to_end else 1
    for cycles_done, cycle in enumerate(workload.cycles(), start=1):
        for spec in cycle:
            out = {}
            failure = None
            if tracer:
                tracer.op_id = len(latencies)
            reference_before = reference.seconds
            start = perf_counter()
            try:
                if tracer:
                    tracer.call("bench.op", workload.run, spec, out, call)
                else:
                    workload.run(spec, out, call)
            except Exception as exc:
                where = getattr(exc, "bench_call", "bench.op")
                failure = ("raised", f"{where}:{type(exc).__name__}:{error_cause(exc)}")
            # Reference blocks timed inside the op are not the op's time.
            stop = perf_counter() - (reference.seconds - reference_before)
            timed += stop - start
            while reference.seconds < REF_SHARE * timed:
                reference.block()
            if tracer:
                try:
                    tracer.call("bench.probe", workload.probe, spec, out, call)
                except Exception:
                    pass  # recorded in the probe's spans
            if failure is None:
                failure = workload.check(spec, out)
                correct = correct and (failure is None or failure[0] != "wrong")
            out.clear()
            if failure is not None:
                key = f"{failure[0]}:{failure[1]}"
                failures[key] = failures.get(key, 0) + 1
            latencies.append(stop - start)
            oks.append(failure is None)
        if timed >= args.seconds and cycles_done >= min_cycles:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    defects = run_defects(workload) if args.defects else None
    if defects:
        correct = correct and defects["wrong"] == 0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "t_ready": t_ready,
        "wall_s": timed,
        "latencies_s": latencies,
        "ok": oks,
        "refs": refs,
        "ref_run": reference.seconds / reference.iterations,
        "ref_kind": reference.kind,
        "correct": correct,
        "failures": failures,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "counters": workload.counters,
        "versions": versions(),
        "layers": layer_summary(tracer) if tracer else None,
        "defects": defects,
    }
    if tracer and args.spans:
        tracer.write(args.spans)
    print(dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
