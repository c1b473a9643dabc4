"""Benchmark for fgvi: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload small-targets --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload elbo-fits --seed 1 --holdout

Each workload runs in fresh child processes (``child.py``) that import
fgvi from ``src/`` of this checkout.  ``--trace 0`` measures the
end-to-end metrics: the median set-up time of several children, then one
single-client closed loop with one BLAS thread.  ``--trace 1`` gives the
per-layer metrics from three passes: untraced, traced with one BLAS
thread, and traced at the platform's default BLAS threading.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` or ``per_layer`` metrics that BENCHMARK.json names).  The
full record, environment included, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

from stats import dumps, end_to_end, loads, median, reference_slowdown

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")

WORKLOADS = ("small-targets", "large-targets", "elbo-fits", "cli-jobs")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up-only children per end-to-end run; the measuring child adds one more.
SETUP_REPEATS = 2
# --holdout adds this to the seed; seeds this large are never used while
# the benchmark or a change is being tuned.
HOLDOUT_OFFSET = 2**40
# Every workload's run, its children included, ends within this many seconds.
RUN_BUDGET_S = 170.0

# The six end-to-end figures every workload reports, then unscaled set-up
# time and goodput.  BENCHMARK.json bounds only figures that are always defined
# and never zero: goodput_per_s, peak_rss_mb and setup_s.  No timed op
# fails at the seed, so the error rate is zero, and the tail percentile is
# null on workloads whose runs hold fewer than 11 ops.
E2E_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "error_rate": "fraction",
    "peak_rss_mb": "MB",
    "setup_raw_s": "s",
    "goodput_raw_per_s": "ops/s",
}

LAYER_FUNCTIONS = {
    "linalg": ("spd_cholesky", "inverse_diagonal"),
    "gaussian": ("GaussianTarget", "decompose", "fgvi_solve", "correlation_from_covariance"),
    "generators": (
        "constant_offdiag_target",
        "squared_exponential_target",
        "random_correlation_matrix",
    ),
    "bounds": (
        "bound_log_det_S",
        "bound_log_det_C",
        "bound_trace_S",
        "bound_kl_joint",
        "bounds_report",
        "envelope_sweep",
    ),
    "engine": ("fit_fgvi", "elbo_sample_terms", "gaussian_density", "mixture_density"),
    "cli": ("main.analyze", "main.sweep", "main.bounds", "main.mixture", "write_table"),
}
CLI_SUBCOMMANDS = ("analyze", "sweep", "bounds", "mixture")

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import scipy.linalg\n"
    "t2 = time.perf_counter()\n"
    "import fgvi.cli\n"
    "t3 = time.perf_counter()\n"
    "print((t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t0) * 1e3)\n"
)
IMPORT_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def loadavg() -> str:
    return read_text("/proc/loadavg").strip()


def child_env(threads: str) -> tuple[dict, dict]:
    """Environment for a child and the thread variables it sets.

    ``threads`` is "1" (every BLAS/OpenMP thread variable set to 1) or
    "default" (all of them removed, so the platform default applies).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env.pop(var, None)
    settings = {var: "1" for var in THREAD_VARS} if threads == "1" else {}
    env.update(settings)
    return env, settings


class Runner:
    """Starts children one at a time within the run's time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        # Inputs the children write (cli-jobs matrix and config files).
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("run exceeded its time budget")
        return left

    def spawn(self, argv: list[str], env: dict) -> tuple[str, float]:
        """(stdout, monotonic spawn time); kills the child's process group
        on timeout and always waits for it."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} timed out") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}:\n{stderr[-3000:]}")
        return stdout, t_spawn

    def child(
        self, workload, seed, mode, seconds, threads, traced=0, spans=None, defects=0,
        end_to_end=0,
    ):
        argv = [
            sys.executable, CHILD,
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(float(seconds)),
            "--mode", mode,
            "--traced", str(traced),
            "--workdir", self.workdir,
            "--defects", str(defects),
            "--end-to-end", str(end_to_end),
        ]
        if spans:
            argv += ["--spans", spans]
        env, settings = child_env(threads)
        stdout, t_spawn = self.spawn(argv, env)
        result = loads(stdout.strip().splitlines()[-1])
        result["setup_s"] = result["t_ready"] - t_spawn
        result["threads_env"] = settings
        return result

    def import_times(self) -> dict:
        env, _ = child_env("1")
        samples = []
        for _ in range(IMPORT_REPEATS):
            stdout, _t = self.spawn([sys.executable, "-c", IMPORT_PROBE], env)
            samples.append([float(v) for v in stdout.split()])
        numpy_ms, scipy_ms, total_ms = (median(col) for col in zip(*samples))
        return {
            "cli.import_ms": total_ms,
            "cli.import_numpy_ms": numpy_ms,
            "cli.import_scipy_linalg_ms": scipy_ms,
        }


def measure_end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    children = [runner.child(workload, seed, "setup", seconds, "1") for _ in range(SETUP_REPEATS)]
    run = runner.child(workload, seed, "run", seconds, "1", end_to_end=1)
    children.append(run)
    # Set-up time at the reference kernel's nominal speed: the kernel tracks
    # the host's drift for interpreter start and imports.
    setups = [c["setup_s"] / reference_slowdown(c["refs"]) for c in children]
    metrics = end_to_end(
        run["latencies_s"],
        run["ok"],
        run["wall_s"],
        reference_slowdown([run["ref_run"]], run["ref_kind"]),
        median(setups),
        run["peak_rss_mb"],
    )
    metrics["setup_raw_s"] = median([c["setup_s"] for c in children])
    return {
        "metrics": metrics,
        "setup_samples_s": [c["setup_s"] for c in children],
        "setup_reference_s": setups,
        "correct": run["correct"],
        "attempted": len(run["ok"]),
        "failed": run["ok"].count(False),
        "failures": run["failures"],
        "passes": {"run": summary_of(run)},
    }


def summary_of(result: dict) -> dict:
    """A child's record without its per-op arrays."""
    drop = ("latencies_s", "ok", "layers")
    return {k: v for k, v in result.items() if k not in drop}


def function_stats(layers: dict, name: str) -> dict:
    return layers["functions"].get(name, {"calls": 0, "busy_ms": 0.0, "p50_ms": 0.0})


def merged_errors(traced: dict) -> dict:
    """Error counts per layer of the timed ops and the defect specs."""
    merged: dict[str, dict[str, int]] = {}
    for source in (traced["layers"]["errors"], traced["defects"]["errors"]):
        for layer, counts in source.items():
            into = merged.setdefault(layer, {})
            for key, count in counts.items():
                into[key] = into.get(key, 0) + count
    return merged


def layer_metrics(untraced: dict, traced: dict, default: dict, imports: dict) -> dict:
    """Every per-layer metric, by name.  A function the workload never
    calls reads 0 calls and 0 ms.  Times are the timed ops' own; error
    counts also take in the workload's known-defect specs."""
    layers = traced["layers"]
    all_errors = merged_errors(traced)
    metrics: dict[str, float] = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            stats = function_stats(layers, f"{layer}.{fn}")
            for stat in ("calls", "busy_ms", "p50_ms"):
                metrics[f"{layer}.{fn}.{stat}"] = stats[stat]
        errors = all_errors.get(layer, {})
        metrics[f"{layer}.errors"] = sum(v for k, v in errors.items() if k.startswith("type."))
        metrics[f"{layer}.self_ms"] = layers["self_ms"].get(layer, 0.0)
    gaussian_errors = all_errors.get("gaussian", {})
    for cause in ("log_det_floor", "conditioning"):
        metrics[f"gaussian.errors.{cause}"] = gaussian_errors.get(f"cause.{cause}", 0)
    defects = traced["defects"]
    metrics["defects.fail_frac"] = (
        defects["failed"] / defects["attempted"] if defects["attempted"] else 0.0
    )

    counters = traced["counters"]
    chol_s = metrics["linalg.spd_cholesky.busy_ms"] / 1e3
    flops = counters.get("spd_cholesky.flops", 0.0)
    metrics["linalg.spd_cholesky.gflops_computed"] = flops / chol_s / 1e9 if chol_s > 0 else 0.0
    steps = counters.get("fit.steps", 0.0)
    fits = counters.get("fit.count", 0.0)
    metrics["engine.fit_fgvi.steps"] = int(steps)
    metrics["engine.fit_fgvi.step_us"] = (
        metrics["engine.fit_fgvi.busy_ms"] * 1e3 / steps if steps else 0.0
    )
    metrics["engine.fit_fgvi.tolerance_stop_frac"] = (
        counters.get("fit.tolerance_stops", 0.0) / fits if fits else 0.0
    )
    metrics["engine.fit_fgvi.max_rel_err"] = counters.get("fit.max_rel_err", 0.0)

    metrics.update(imports)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.job_ms"] = function_stats(layers, f"cli.{sub}.job")["p50_ms"]

    # Same op sequence in both passes: the median over the ops both
    # completed of traced over untraced latency, each pass's latencies in
    # units of its own reference-kernel time, since the two passes run at
    # different moments of the host's speed drift.
    slowdowns = [reference_slowdown([r["ref_run"]], r["ref_kind"]) for r in (traced, untraced)]
    ratios = [
        (t / slowdowns[0]) / (u / slowdowns[1])
        for t, u in zip(traced["latencies_s"], untraced["latencies_s"])
    ]
    metrics["trace.overhead_frac"] = median(ratios) - 1.0

    for layer in ("linalg", "gaussian"):
        for fn in LAYER_FUNCTIONS[layer]:
            stats = function_stats(default["layers"], f"{layer}.{fn}")
            for stat in ("busy_ms", "p50_ms"):
                metrics[f"blas_default.{layer}.{fn}.{stat}"] = stats[stat]
    return metrics


def measure_layers(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    spans = os.path.join(OUT, f"spans-{workload}-s{seed}")
    untraced = runner.child(workload, seed, "run", seconds / 4, "1")
    traced = runner.child(
        workload, seed, "run", seconds / 2, "1", 1, spans + "-t1.jsonl", defects=1
    )
    default = runner.child(
        workload, seed, "run", seconds / 4, "default", 1, spans + "-tdefault.jsonl"
    )
    metrics = layer_metrics(untraced, traced, default, runner.import_times())
    return {
        "metrics": metrics,
        "correct": untraced["correct"] and traced["correct"] and default["correct"],
        "attempted": len(traced["ok"]),
        "failed": traced["ok"].count(False),
        "failures": traced["failures"],
        "layer_errors": {
            "blas_1": traced["layers"]["errors"],
            "blas_default": default["layers"]["errors"],
        },
        "defects": traced["defects"],
        "passes": {
            "untraced": summary_of(untraced),
            "traced": summary_of(traced),
            "traced_default_blas": summary_of(default),
        },
    }


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_lines(workload: str, result: dict, trace: int, units: dict) -> list[str]:
    lines = [f"== {workload}  seed={result['workload_seed']}  trace={trace}"]
    metrics = result["metrics"]
    if trace == 0:
        for name, unit in E2E_UNITS.items():
            note = ""
            if name == "op_tail_ms":
                pct = metrics["op_tail_pct"]
                where = "fewer than 11 ops" if pct is None else f"p{pct:.4g}"
                note = f"  ({where} of {metrics['op_samples']} ops"
                note += "; missed: lands on a failure)" if metrics[name] is None and pct else ")"
            elif name == "op_p50_ms" and metrics[name] is None:
                note = "  (missed: lands on a failure)"
            lines.append(f"  {name:<16} {fmt(metrics[name]):>12} {unit}{note}")
    else:
        for name, value in metrics.items():
            lines.append(f"  {name:<48} {fmt(value):>12} {units.get(name, '')}")
    for key, count in sorted(result["failures"].items()):
        lines.append(f"  failure {key} x{count}")
    defects = result.get("defects")
    if defects and defects["attempted"]:
        lines.append(
            f"  known-defect specs: {defects['failed']} of {defects['attempted']} fail"
        )
        for key, count in sorted(defects["outcomes"].items()):
            lines.append(f"    {key} x{count}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fgvi benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--holdout", action="store_true", help="run on the held-out seed for --seed"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fgvi", "__init__.py")):
        print(f"error: no fgvi sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        spec = loads(read_text(spec_path))
    except ValueError:
        print(f"error: cannot read {spec_path}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(OUT, exist_ok=True)

    seed = args.seed + HOLDOUT_OFFSET if args.holdout else args.seed
    measure = measure_layers if args.trace else measure_end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        load_start = loadavg()
        runner = Runner()
        try:
            result = measure(runner, workload, seed, args.seconds)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            runner.close()
        result.update(
            workload=workload,
            seed=args.seed,
            workload_seed=seed,
            holdout=args.holdout,
            seconds=args.seconds,
            trace=args.trace,
            environment={
                "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "loadavg_start": load_start,
                "loadavg_end": loadavg(),
            },
        )
        path = os.path.join(OUT, f"result-{workload}-s{seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(result) + "\n")
        print("\n".join(report_lines(workload, result, args.trace, units)))
        results[workload] = result

    def entry(metrics, name):
        return {"value": metrics[name], "unit": units[name]}

    if len(names) == 1:
        metrics = {m["name"]: entry(results[names[0]]["metrics"], m["name"]) for m in listed}
    else:
        metrics = {
            f"{w}/{m['name']}": entry(results[w]["metrics"], m["name"])
            for w in names
            for m in listed
        }
    print(
        dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
