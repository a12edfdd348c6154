"""The three benchmark workloads: inputs from a seed, jobs, and their checks.

A workload is built from its seed in `__init__`; that is the set-up that
`setup_s` times, after the package import.  `groups` are the job lists the
closed loop runs whole, so that every run has the same mix of jobs.
`check` judges one job's output and returns the reasons it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

SUITE_ROTATIONS = ((1, 3), (1, 4), (1, 5), (2, 5), (1, 2))
SUITE_THEOREMS = ("T4.2", "T4.3", "T4.4")
SUITE_MODEL = {"T4.2": "birkhoff", "T4.3": "symplectic", "T4.4": "fourth"}
# Enough domains for a 60 s run; a longer run starts the list again.
SUITE_DOMAINS = 64
# Domains in one traced run, whose counts must repeat exactly.
SUITE_TRACED_DOMAINS = 6

LADDER_OMEGA = 1.0 / math.sqrt(10.0)
LADDER_TOL = 1e-6
LADDER_SMOKE_TOL = 1e-3
LADDER_MODELS = ("outer", "fourth")

CLI_TIMEOUT_S = 150.0
# One pass of the CLI script.  {out} is the run's output directory; {domain}
# is the seed-rotated ellipse written there as JSON.
CLI_SCRIPT = (
    ("sweep", "sweep --domain gutkin:4,0.05 --model all --qmax 11 --svg {out}/sweep.svg"),
    ("T6.4", "verify --theorem T6.4 --domain ellipse:2,1"),
    ("CE6.5", "verify --theorem CE6.5 --domain squeezed:0.1 --rot 1/3,1/4"),
    ("gutkin", "verify --theorem gutkin --domain disk:1"),
    ("radon", "verify --theorem radon --domain {domain}"),
    ("beta", "beta --domain disk:1 --model all --rot 1/3,2/7 --orbit-out {out}/orbit.csv"),
    ("toy", "toy --qmax 10"),
)
CLI_FILES = {"sweep": "sweep.svg", "beta": "orbit.csv"}


def seed_angle(seed):
    """Rotation angle in [0, 2 pi) drawn from the workload seed."""
    return float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))


def load_reference(name):
    path = REFERENCE / name
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Suite:
    """Main-inequality verifier calls on random N = 8 domains."""

    name = "suite"

    def __init__(self, seed, out_dir, smoke=False, traced=False):
        from billiard_beta import rigidity

        count = 1 if smoke else SUITE_TRACED_DOMAINS if traced else SUITE_DOMAINS
        self.domains = rigidity.sample_random_domains(count, seed)
        self.groups = [
            [(d, theorem, p, q) for p, q in SUITE_ROTATIONS for theorem in SUITE_THEOREMS
             if (p, q) != (1, 2) or theorem == "T4.2"]
            for d in range(count)
        ]
        ref = load_reference(f"suite-seed{seed}.json")
        self.reference = {tuple(job): beta for *job, beta in ref["jobs"]} if ref else {}
        self.below_reference = 0

    def run(self, job):
        from billiard_beta import rigidity
        from billiard_beta.twist import RotationNumber

        d, theorem, p, q = job
        return rigidity.verify_main_inequality(
            self.domains[d], theorem, RotationNumber.rational(p, q))

    def check(self, job, report):
        from billiard_beta import models, twist

        d, theorem, p, q = job
        system = models.make_system(self.domains[d], SUITE_MODEL[theorem])
        ref = self.reference.get(tuple(job))
        self.below_reference += checks.suite_below_reference(report.lhs, ref)
        return checks.suite_failures(
            report.lhs, report.gap, report.converged, report.equality, ref,
            twist.equispaced_average_action(system, p / q))


class Ladder:
    """Irrational beta brackets on a rotated N = 64 ellipse."""

    name = "ladder"

    def __init__(self, seed, out_dir, smoke=False, traced=False):
        from billiard_beta import geometry, models

        base = geometry.ellipse(1.5, 0.8)
        dom = geometry.affine_image(base, geometry.AffineMap.rotation(seed_angle(seed)))
        self.systems = {tag: models.make_system(dom, tag) for tag in LADDER_MODELS}
        self.tol = LADDER_SMOKE_TOL if smoke else LADDER_TOL
        self.groups = [list(LADDER_MODELS)]
        self.reference = load_reference("ladder.json")

    def run(self, tag):
        from billiard_beta import twist

        return twist.beta_irrational_result(self.systems[tag], LADDER_OMEGA, self.tol)

    def check(self, tag, res):
        ref = self.reference[tag]
        return checks.ladder_failures(
            res.lower, res.upper, res.converged, self.tol, ref["lower"], ref["upper"])


class Cli:
    """A fixed script of billiard-beta commands, each in a fresh interpreter.

    In a traced run the same commands go through `cli.main` in this process,
    so that the wrapped library functions see them.
    """

    name = "cli"

    def __init__(self, seed, out_dir, smoke=False, traced=False):
        from billiard_beta import cli, geometry, rigidity  # noqa: F401  (import is set-up)

        # gutkin_roots is cached; clear it so every pass does the same work.
        rigidity.gutkin_roots.cache_clear()
        self.out = Path(out_dir).resolve()
        self.out.mkdir(parents=True, exist_ok=True)
        domain_path = self.out / "domain.json"
        dom = geometry.affine_image(
            geometry.ellipse(2.0, 1.0), geometry.AffineMap.rotation(seed_angle(seed)))
        geometry.save_domain(dom, str(domain_path))
        self.argv = {
            name: [tok.format(out=self.out, domain=domain_path) for tok in cmd.split()]
            + ["--seed", str(seed)]
            for name, cmd in CLI_SCRIPT
        }
        self.groups = [[name for name, _ in CLI_SCRIPT]]
        self.traced = traced
        self.reference = load_reference("cli.json")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, name):
        if self.traced:
            return self._run_in_process(name)
        stdout_path = self.out / f"{name}.stdout"
        with open(stdout_path, "wb") as out, open(self.out / f"{name}.stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "billiard_beta.cli", *self.argv[name]],
                stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": proc.returncode, "stdout_path": stdout_path, "rss_kb": usage.ru_maxrss}

    def _run_in_process(self, name):
        from billiard_beta import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv[name])
        return {"exit": code, "stdout": out.getvalue(), "rss_kb": 0}

    def collect(self, name, result):
        """Read what the command wrote; called outside the timed region."""
        if "stdout_path" in result:
            result["stdout"] = result.pop("stdout_path").read_text(encoding="utf-8")
        result["bytes"] = len(result["stdout"].encode())
        result["file_ok"] = True
        if name in CLI_FILES:
            path = self.out / CLI_FILES[name]
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            result["bytes"] += len(text.encode())
            if name == "sweep":
                result["file_ok"] = text.rstrip().endswith("</svg>")
            else:
                result["file_ok"] = len(text.splitlines()) == self.reference[name]["file_lines"]
            path.unlink(missing_ok=True)
        return result

    def check(self, name, result):
        ref = self.reference[name]
        reasons = checks.cli_failures(result["exit"], result["stdout"], ref["exit"], ref["stdout"])
        if not result["file_ok"]:
            reasons.append(f"bad or missing {CLI_FILES[name]}")
        return reasons


WORKLOADS = {w.name: w for w in (Suite, Ladder, Cli)}
