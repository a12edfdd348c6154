"""Tests of the benchmark itself: smoke runs of every workload and the checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = HERE / "reference"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac: 0 (" in out
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        _, result = smoke("suite", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["geometry.eval_support.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_perturbed_suite_beta_fails():
    _, theorem, p, q, beta = json.loads((REFERENCE / "suite-seed0.json").read_text())["jobs"][0]
    assert checks.suite_failures(beta, 0.1, True, False, beta, beta + 1.0) == []
    assert checks.suite_failures(beta + 1e-6, 0.1, True, False, beta, beta + 1.0)
    assert checks.suite_failures(beta, 0.1, True, False, None, beta - 1e-6)
    assert checks.suite_failures(beta, -1e-6, True, False, beta)
    assert checks.suite_failures(beta, 0.1, False, False, beta)
    assert checks.suite_failures(beta, 0.1, True, True, beta)
    lower = beta - 1e-6
    assert checks.suite_failures(lower, 0.1, True, False, beta) == []
    assert checks.suite_below_reference(lower, beta)


def test_bracket_missing_reference_fails():
    ref = json.loads((REFERENCE / "ladder.json").read_text())["outer"]
    lo, hi = ref["lower"], ref["upper"]
    assert checks.ladder_failures(lo, hi, True, 1e-6, lo, hi) == []
    assert checks.ladder_failures(hi + 1e-7, hi + 2e-7, True, 1e-6, lo, hi)
    assert checks.ladder_failures(lo - 2e-7, lo - 1e-7, True, 1e-6, lo, hi)
    assert checks.ladder_failures(lo, hi + 2e-6, True, 1e-6, lo, hi)
    assert checks.ladder_failures(lo, hi, False, 1e-6, lo, hi)


def test_wrong_exit_code_or_number_fails():
    refs = json.loads((REFERENCE / "cli.json").read_text())
    for name, ref in refs.items():
        assert checks.cli_failures(ref["exit"], ref["stdout"], ref["exit"], ref["stdout"]) == []
        assert checks.cli_failures(ref["exit"] + 1, ref["stdout"], ref["exit"], ref["stdout"])
    csv = refs["toy"]["stdout"]
    assert checks.cli_failures(0, csv.replace("0.005,", "0.0050001,", 1), 0, csv)
    line = refs["T6.4"]["stdout"]
    lhs = json.loads(line)["lhs"]
    perturbed = line.replace(repr(lhs), repr(lhs + 1e-6))
    assert perturbed != line
    assert checks.cli_failures(0, perturbed, 0, line)
