"""Compare the engine at a base commit with the working tree; write BENCH_<n>.json.

    python3 bench/compare.py --base HEAD --out BENCH_25.json

Run from the root of a checkout.  The base tree is exported with
`git archive` into a temporary directory.  Three measurements, each taken on
both trees with the same code and settings:

- counts: deterministic call and row counts of the engine's inner functions
  (`_evaluate`, `_solve_cyclic`, `_feasible_fraction`, `_newton_phase`) on
  the 78 traced suite jobs, the two ladder brackets and the CLI script of
  perfbench at seed 0;
- in-process timings: one long-lived worker process per tree builds the
  same job lists (and the CLI script, run through `cli.main`), warms up, and
  then the two workers time whole job lists in alternating rounds; each CLI
  command is also timed on its own;
- perfbench: the unchanged `perfbench/run.py` of each tree, in alternating
  base/change pairs per workload; medians, quartiles and wins per metric.

BLAS runs on one thread, as in perfbench.  The result is one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
# engine functions whose calls and rows are counted
COUNTED = ("_newton_phase", "_evaluate", "_solve_cyclic", "_feasible_fraction")
WORKLOADS = ("suite", "ladder", "cli")
METRICS = {"jobs_per_s": "higher", "job_p50_s": "lower", "job_p95_s": "lower",
           "setup_s": "lower", "peak_rss_mb": "lower"}
ROUNDS = 7  # in-process timing rounds per tree
PAIRS = 10  # alternating base/change perfbench pairs per workload
SECONDS = 30.0  # length of one perfbench run


# --------------------------------------------------------------------------
# worker: runs inside one tree (billiard_beta from PYTHONPATH)
# --------------------------------------------------------------------------


def _rows(args, position):
    """Rows of the configuration argument: 1 for one row, R for R x q."""
    shape = getattr(args[position], "shape", (0,))
    rows = 1
    for size in shape[:-1]:
        rows *= size
    return rows


def _job_lists(out_dir):
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    lists = {}
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name](0, Path(out_dir) / name, traced=True)
        jobs = [job for group in workload.groups for job in group]
        lists[name] = (workload, jobs)
    return lists


def _run_list(workload, jobs):
    """Seconds of each job's time in one pass over the list; CLI output is discarded."""
    seconds = []
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            workload.run(job)
            seconds.append(time.perf_counter() - start)
    return seconds


def _counts(lists):
    from billiard_beta import twist

    # argument position of the configuration rows of each counted function
    position = {"_newton_phase": 1, "_evaluate": 1, "_solve_cyclic": 2, "_feasible_fraction": 2}
    counts = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            counts[f"{name}.rows"] += _rows(args, position[name])
            return fn(*args, **kwargs)

        return counted

    originals = {name: getattr(twist, name) for name in COUNTED}
    out = {}
    try:
        for name, fn in originals.items():
            setattr(twist, name, wrap(name, fn))
        for name in WORKLOADS:
            counts.clear()
            _run_list(*lists[name])
            out[name] = dict(sorted(counts.items()))
    finally:
        for name, fn in originals.items():
            setattr(twist, name, fn)
    return out


def worker(out_dir):
    """Answer commands on stdin, one JSON line each: 'counts' or a list name."""
    lists = _job_lists(out_dir)
    for name in WORKLOADS:  # warm-up: caches, lazy imports, first allocations
        _run_list(*lists[name])
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "counts":
            reply = _counts(lists)
        else:
            reply = {"seconds": _run_list(*lists[cmd])}
        print(json.dumps(reply), flush=True)


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


class Worker:
    def __init__(self, tree, out_dir):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=tree,
            env=dict(ENV, PYTHONPATH=str(Path(tree) / "src")))
        self.read()

    def ask(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def compared(base, change):
    return {
        "base_s": summary(base),
        "change_s": summary(change),
        "change_wins": sum(c < b for b, c in zip(base, change)),
        "speedup_of_medians": statistics.median(base) / statistics.median(change),
    }


def in_process(trees, tmp):
    """Counts, and timings of each job list and of each CLI command."""
    workers = {side: Worker(tree, Path(tmp) / f"worker-{side}") for side, tree in trees.items()}
    sys.path.insert(0, str(PERFBENCH))
    from workloads import CLI_SCRIPT

    try:
        counts = {side: w.ask("counts") for side, w in workers.items()}
        times = {name: {side: [] for side in trees} for name in WORKLOADS}
        commands = {cmd: {side: [] for side in trees} for cmd, _ in CLI_SCRIPT}
        for r in range(ROUNDS):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name in WORKLOADS:
                for side in order:
                    seconds = workers[side].ask(name)["seconds"]
                    times[name][side].append(sum(seconds))
                    if name == "cli":  # the job list is CLI_SCRIPT's command names, in order
                        for (cmd, _), t in zip(CLI_SCRIPT, seconds):
                            commands[cmd][side].append(t)
    finally:
        for w in workers.values():
            w.close()
    timings = {name: compared(sides["base"], sides["change"]) for name, sides in times.items()}
    timings["cli"]["commands"] = {cmd: compared(sides["base"], sides["change"]) for cmd, sides in commands.items()}
    return counts, timings


def perfbench_run(tree, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(SECONDS)],
        capture_output=True, text=True, cwd=tree, env=ENV, timeout=SECONDS * 10 + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} in {tree} failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["failed"], result["attempted"], {k: v["value"] for k, v in result["metrics"].items()}


def perfbench(trees):
    out = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in trees}
        failed = {side: 0 for side in trees}
        for r in range(PAIRS):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for side in order:
                fails, _, metrics = perfbench_run(trees[side], workload)
                failed[side] += fails
                runs[side].append(metrics)
        row = {"failed_jobs": failed}
        for metric, better in METRICS.items():
            base = [m[metric] for m in runs["base"]]
            change = [m[metric] for m in runs["change"]]
            wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
            row[metric] = {"better": better, "base": summary(base), "change": summary(change),
                           "change_wins": wins}
        out[workload] = row
        print(f"perfbench {workload}: done", file=sys.stderr)
    return out


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True, cwd=ROOT).stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the base tree")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.out:
        parser.error("--out is required")

    base_rev = git("rev-parse", args.base).strip()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        archive = subprocess.run(["git", "archive", base_rev], capture_output=True, check=True, cwd=ROOT)
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        trees = {"base": base_tree, "change": ROOT}
        counts, timings = in_process(trees, tmp)
        print("in-process: done", file=sys.stderr)
        bench = perfbench(trees)

    import numpy

    report = {
        "base": base_rev,
        "change": "working tree",
        "conditions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": "1",
            "in_process_rounds": ROUNDS,
            "perfbench_pairs": PAIRS,
            "perfbench_seconds": SECONDS,
        },
        "counts": counts,
        "in_process": timings,
        "perfbench": bench,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
