"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload cls-cell --seed 0 --seconds 18 --trace 0

Run from anywhere; the program is imported from src/ next to this directory.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, measured with no wrapper installed; with --trace 1
the same operations run once untraced and once traced, and the metrics are
the per-layer ones. Lines before it give every metric by name and unit,
failure messages and check problems. A record of the run (machine, versions,
seed, every metric) and, when traced, its spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MB = 1e6
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "fraction", "test_accuracy": "fraction",
         "test_mse": "squared"}
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # stop after set-up; the set-up probes time processes started this way
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_blas_threads() -> int:
    """At most one BLAS thread per usable core; set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)
    return int(os.environ[BLAS_ENV[0]])


def time_setup(argv) -> list[float]:
    """Wall time of fresh processes that start, import, configure and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), *argv,
                        "--setup-only"], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_ops(workload, seconds: float, tracer=None):
    """Operations until the next one would end past `seconds`; at least one."""
    walls, results = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = len(walls)
        t0 = time.perf_counter()
        results.append(workload.run_op())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return walls, results


def describe(args, blas_threads: int, epochs: int | None) -> dict:
    import numpy as np

    from perfbench.checks import source_digest

    try:
        # a checkout without .git may still sit inside another repository
        top, _, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip().partition("\n")
    except (OSError, subprocess.SubprocessError):
        top = rev = ""
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        rev = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev or "unknown",
        "source_digest": source_digest(os.path.join(SRC, "protodro")),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "epochs": epochs,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    blas_threads = limit_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "protodro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/protodro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import checks, layers, workloads
    from perfbench.tracing import Tracer, peak_rss_kb

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, ROOT)
    if args.setup_only:
        return 0

    setup = time_setup([a for a in argv if a != "--setup-only"])
    # an untimed first operation, checked like the others; its digest is
    # left out because it may run other inputs than the timed ones
    warm_up = getattr(workload, "warm_up", None)
    checked = [warm_up()] if warm_up else []
    layer_metrics = {}
    tracer = None
    results = []
    if args.trace:
        # traced operations go first: the peak RSS growth of a span only
        # shows while the process has not yet reached that peak
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced_walls, results = run_ops(workload, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        per_op = [layers.per_op_metrics([s for s in tracer.spans if s.op == i])
                  for i in range(len(results))]
        layer_metrics = {name: statistics.median(m[name] for m in per_op)
                         for name in layers.METRICS}
    walls, untraced = run_ops(workload, args.seconds / (1 + args.trace))
    results += untraced
    peak_rss_mb = 1024 * peak_rss_kb() / MB
    if args.trace:
        layer_metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)

    attempted = sum(r.attempted for r in checked + results)
    failures = [msg for r in checked + results for msg in r.failures]
    problems = [msg for r in checked + results for msg in r.problems]
    digests = sorted({r.digest for r in results})
    if len(digests) > 1:
        problems.append(f"operations of one run gave different values: {digests}")
    description = describe(args, blas_threads,
                           getattr(workload, "epochs", None))
    store = checks.DigestStore(os.path.join(OUT, "digests.json"))
    key = f"{args.workload}/seed={args.seed}/src={description['source_digest']}"
    for value in digests:
        problems += store.check(key, value)
    store.save()

    quality = {}
    for r in results:
        quality.update(r.quality)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(failures) / attempted,
        "test_accuracy": quality.get("test_accuracy"),
        "test_mse": quality.get("test_mse"),
    }
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "description": description,
            "end_to_end": e2e,
            "per_layer": layer_metrics,
            "setup_samples_s": setup,
            "op_walls_s": walls,
            "attempted": attempted,
            "failures": failures,
            "problems": problems,
            "value_digests": digests,
        }, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    print(f"perfbench {args.workload} seed={args.seed} ops={len(walls)} "
          f"blas_threads={blas_threads} rev={description['git_rev'][:12]}")
    for name, value in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown} {UNITS[name]}")
    for name, value in layer_metrics.items():
        print(f"  {name:<36} {value:.6g} {layers.METRICS[name][0]}")
    for msg in sorted(set(failures)):
        print(f"  failed x{failures.count(msg)}: {msg}")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")

    if args.trace:
        chosen = {name: (layer_metrics[name], unit)
                  for name, (unit, _) in layers.METRICS.items()}
    else:
        chosen = {name: (e2e[name], UNITS[name]) for name in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
