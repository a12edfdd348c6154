"""Benchmark of billiard-beta: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from src/.  With
--trace 0 the run measures the end-to-end metrics for --seconds (whole job
groups) with no tracing.  With --trace 1 it runs the workload's fixed traced
job list twice, untraced then traced, and reports the per-layer metrics and
the tracing overhead.  Every job's output is checked in both modes.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads and the package's grid thread pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BILLIARD_BETA_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 7
# Fresh interpreters timed for cli.import_s; the median is reported.
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "ladder", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal size, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build(args, traced=False):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload, args.smoke, traced)


def run_probe(args, extra):
    """Time from spawning a fresh interpreter to the instant it reports."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {extra} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def import_time():
    """Seconds for `import billiard_beta.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import billiard_beta.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_jobs(workload, seconds=None, tracer=None):
    """Run whole job groups, at least one, while the next is expected to end
    within `seconds` (judged by the mean group time so far).

    With seconds None every group runs once.  Returns (job, latency, result)
    triples; only the job call itself is timed.
    """
    done = []
    start = time.perf_counter()
    group = 0
    while True:
        for job in workload.groups[group % len(workload.groups)]:
            if tracer is not None:
                tracer.job = len(done)
            t0 = time.perf_counter()
            try:
                result = workload.run(job)
            except Exception as exc:  # a job that raises is a failed job, not a crash
                result = exc
            latency = time.perf_counter() - t0
            if hasattr(workload, "collect") and not isinstance(result, Exception):
                result = workload.collect(job, result)
            done.append((job, latency, result))
        group += 1
        elapsed = time.perf_counter() - start
        if seconds is None:
            if group == len(workload.groups):
                return done
        elif elapsed + elapsed / group > seconds:
            return done


def check_jobs(workload, done):
    failures = []
    for job, _, result in done:
        if isinstance(result, Exception):
            reasons = [f"raised {result!r}"]
        else:
            reasons = workload.check(job, result)
        if reasons:
            failures.append((job, reasons))
    return failures


def environment():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "MKL_NUM_THREADS": os.environ["MKL_NUM_THREADS"],
        "BILLIARD_BETA_THREADS": os.environ.get("BILLIARD_BETA_THREADS", "unset (default 1)"),
    }


def percentile(ordered, share):
    """Nearest-rank percentile of a sorted list, and the samples beyond it."""
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args):
    probes = 1 if args.smoke else SETUP_PROBES
    setup_s = statistics.median(run_probe(args, ["--setup-probe"]) for _ in range(probes))
    workload = build(args)
    done = run_jobs(workload, seconds=args.seconds)
    failures = check_jobs(workload, done)

    latencies = sorted(latency for _, latency, _ in done)
    p95, beyond = percentile(latencies, 0.95)
    if args.workload == "cli":
        rss_mb = max(result["rss_kb"] for _, _, result in done) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "jobs_per_s": len(done) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p95_s": p95,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    print(f"jobs: {len(done)} in {sum(latencies):.3f} s of job time")
    print(f"job_p95_s: {len(latencies)} samples, {beyond} beyond the 95th percentile")
    if hasattr(workload, "below_reference"):
        print(f"beta below the seed-commit reference (counted, not failed): "
              f"{workload.below_reference}")
    return done, failures, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(args):
    import tracing

    untraced_start = time.perf_counter()
    workload = build(args, traced=True)
    plain = run_jobs(workload)
    untraced_wall = time.perf_counter() - untraced_start
    failures = check_jobs(workload, plain)

    tracer = tracing.Tracer()
    if args.workload == "cli":
        import billiard_beta.cli  # noqa: F401  (so that install wraps cli.main)
    tracer.install()
    try:
        traced_start = time.perf_counter()
        workload = build(args, traced=True)
        done = run_jobs(workload, tracer=tracer)
        traced_wall = time.perf_counter() - traced_start
    finally:
        tracer.uninstall()
    failures += check_jobs(workload, done)

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_path)
    layer = tracing.layer_metrics(tracer.spans)
    layer["cli.import_s"] = statistics.median(import_time() for _ in range(IMPORT_PROBES))
    layer["cli.output_bytes"] = sum(r["bytes"] for _, _, r in done) if args.workload == "cli" else 0
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    print(f"traced jobs: {len(done)}; spans: {len(tracer.spans)} written to "
          f"{span_path.relative_to(ROOT)}")
    print(f"wall time: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    print(f"{'per-layer metric':42} {'value':>14} {'unit':6} moves")
    for name, (unit, moves) in tracing.PER_LAYER.items():
        value = layer[name]
        shown = f"{value}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:42} {shown:>14} {unit:6} {moves}")
    return done, failures, {k: (layer[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "billiard_beta" / "__init__.py").is_file():
        print(f"error: billiard_beta sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        build(args)
        print(time.monotonic())
        return 0

    print("env: " + json.dumps(environment(), sort_keys=True))
    done, failures, metrics = traced(args) if args.trace else end_to_end(args)
    for job, reasons in failures[:20]:
        print(f"FAILED {job}: {'; '.join(reasons)}")
    attempted = len(done) * (2 if args.trace else 1)
    print(f"fail_frac: {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:12} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
