"""Benchmark of the evcontracts package: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload paper-defaults --seed 1 --seconds 25 --trace 0

Workloads: paper-defaults, dp-fine-grid, mc-null-audit, closed-form-sweep
(see perfbench/README.md for why each was chosen).

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median time for a fresh interpreter to import
  ``evcontracts.cli`` (numpy and scipy included), over several imports;
- ``wall_s``: median wall time of one pass of the workload's fixed job
  list, timed pass after pass until ``--seconds`` is used up;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it alternates untraced passes with passes traced by
``tracer.Tracer`` and reports the per-layer metrics: calls and self time of
every wrapped function, the layer counters, and the tracing overhead. Spans
are written to ``perfbench/.work/<workload>/spans.tsv`` at exit.

Every pass checks the program's outputs. Failed jobs and checks over
attempted ones is the fail ratio, reported as ``attempted`` and ``failed``
in the result. The last line of standard output is the result as JSON;
the lines before it give each metric with its unit and the environment.
The workloads run in this one single-threaded process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 5  # timed fresh-interpreter imports per run, after one untimed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing evcontracts.cli.

    The first import is not timed: it writes the bytecode caches, which a
    user pays once, not on every run.
    """
    command = [sys.executable, "-c", "import evcontracts.cli"]
    env = child_env()
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_jobs(jobs, checks, tracer=None) -> float:
    """Run a job list once; return its wall time in seconds."""
    start = time.perf_counter()
    for label, job in jobs:
        try:
            if tracer is None:
                ok = job()
            else:
                with tracer.span("job." + label):
                    ok = job()
        except Exception:
            traceback.print_exc()
            ok = False
        checks.expect(ok, f"job {label} failed")
    return time.perf_counter() - start


def run_pass(workload, checks, tracer=None) -> float:
    """One timed pass of the job list, then the output checks (untimed)."""
    workload.clear_outputs()
    if tracer is None:
        wall = run_jobs(workload.jobs, checks)
    else:
        with tracer:
            wall = run_jobs(workload.jobs, checks, tracer)
    try:
        workload.check(checks)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError):
        traceback.print_exc()
        checks.expect(False, "output check raised")
    return wall


def measure(workload, seconds: float, checks) -> tuple[dict, dict]:
    """End-to-end metrics: untraced passes until the time is used up."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_pass(workload, checks))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"untraced": walls}


def measure_traced(workload, seconds: float, checks, tracers: list) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced passes."""
    import tracer as tracer_mod

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, checks))
        tracers.append(tracer_mod.Tracer())
        traced.append(run_pass(workload, checks, tracers[-1]))
        pair = statistics.median(untraced) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    per_pass = [tracer_mod.layer_metrics(t) for t in tracers]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit in ("s", "1/s"):
            value = statistics.median(values)
        else:
            # Counts must repeat exactly on identical passes.
            checks.expect(len(set(values)) == 1, f"{name} differs between traced passes: {values}")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics, {"untraced": untraced, "traced": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evcontracts" / "__init__.py").is_file():
        print(f"error: no evcontracts sources under {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process: pin the numeric libraries' thread pools
    # before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    setup_s = measure_setup()

    import evcontracts
    import workloads

    if Path(evcontracts.__file__).resolve().parent != (SRC / "evcontracts").resolve():
        print(f"error: imported evcontracts from {evcontracts.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    work_dir = WORK / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, refs)
    checks = workloads.Checks()
    workload.clear_outputs()
    run_jobs(workload.warm_up_jobs, checks)

    if args.trace:
        tracers = []
        try:
            metrics, walls = measure_traced(workload, args.seconds, checks, tracers)
        finally:
            with open(work_dir / "spans.tsv", "w", encoding="utf-8") as handle:
                handle.write("trace\tspan\tname\tstart_ns\tend_ns\tparent\n")
                for trace_id, tracer in enumerate(tracers):
                    tracer.write_spans(handle, trace_id)
    else:
        metrics, walls = measure(workload, args.seconds, checks)
        metrics = {"setup_s": (setup_s, "s"), **metrics}

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for kind, values in walls.items():
        print(
            f"{kind} passes: {len(values)}, median {statistics.median(values):.4f} s, "
            "each (s): " + " ".join(f"{v:.4f}" for v in values)
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    ratio = checks.failed / checks.attempted
    print(f"fail_ratio {ratio:.6g} ({checks.failed} failed of {checks.attempted} attempted)")
    for message in checks.messages:
        print(f"failed: {message}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
