"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs define correct; it rewrites
perfbench/reference/.  The suite keeps references for seed 0 (the default)
and seed 1 (held out); the ladder and CLI outputs do not depend on the seed
within the checks' tolerance, so seed 0 serves every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SUITE_SEEDS = (0, 1)


def write(name, data):
    workloads.REFERENCE.mkdir(exist_ok=True)
    with open(workloads.REFERENCE / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main():
    out = HERE / "out" / "reference"
    for seed in SUITE_SEEDS:
        suite = workloads.Suite(seed, out)
        rows = [[*job, suite.run(job).lhs] for group in suite.groups for job in group]
        write(f"suite-seed{seed}.json", {"seed": seed, "jobs": rows})

    ladder = workloads.Ladder(0, out)
    brackets = {}
    for tag in workloads.LADDER_MODELS:
        res = ladder.run(tag)
        brackets[tag] = {"lower": res.lower, "upper": res.upper, "value": res.value,
                         "convergents": [[p, q] for p, q, _ in res.evaluations]}
    write("ladder.json", brackets)

    cli = workloads.Cli(0, out)
    outputs = {}
    for name in cli.groups[0]:
        result = cli.run(name)
        result["stdout"] = result.pop("stdout_path").read_text(encoding="utf-8")
        entry = {"exit": result["exit"], "stdout": result["stdout"]}
        if name == "beta":
            path = cli.out / workloads.CLI_FILES[name]
            entry["file_lines"] = len(path.read_text(encoding="utf-8").splitlines())
        outputs[name] = entry
    write("cli.json", outputs)


if __name__ == "__main__":
    main()
