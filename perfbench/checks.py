"""Output checks behind `fail_frac`.

Every function returns the list of reasons a job failed; an empty list means
the job passed.  The functions are pure so that the tests can feed them
perturbed outputs without running the solver.
"""

from __future__ import annotations

import json
import math

# The paper guarantees the inequalities, so a gap below -GAP_TOL is a failure.
GAP_TOL = 1e-8
# A beta (or CLI output number) further than this from its reference fails.
VALUE_TOL = 1e-8


def suite_failures(beta, gap, converged, equality, ref_beta=None, equispaced=None):
    """Reasons one `verify_main_inequality` job on a random domain failed.

    ref_beta is the beta recorded at the seed commit (None for seeds without
    a reference).  equispaced is the average action of the equispaced orbit,
    an admissible configuration, so beta can never lie above it.
    """
    reasons = []
    if not converged:
        reasons.append("not converged")
    if gap < -GAP_TOL:
        reasons.append(f"gap {gap!r} < -{GAP_TOL}")
    if equality:
        reasons.append("equality flag on a random domain")
    if ref_beta is not None and beta > ref_beta + VALUE_TOL:
        reasons.append(f"beta {beta!r} above reference {ref_beta!r}")
    if equispaced is not None and beta > equispaced + VALUE_TOL:
        reasons.append(f"beta {beta!r} above equispaced action {equispaced!r}")
    return reasons


def suite_below_reference(beta, ref_beta):
    """A lower minimum than the seed commit found: counted, not failed."""
    return ref_beta is not None and beta < ref_beta - VALUE_TOL


def ladder_failures(lower, upper, converged, tol, ref_lower, ref_upper):
    """Reasons one irrational bracket failed.

    Both brackets are convexity bounds on the same beta, so a correct bracket
    always overlaps the reference bracket recorded at the seed commit.
    """
    reasons = []
    if not converged:
        reasons.append("not converged")
    if not upper - lower < tol:
        reasons.append(f"bracket width {upper - lower!r} >= tol {tol!r}")
    if upper < ref_lower or lower > ref_upper:
        reasons.append(f"bracket [{lower!r}, {upper!r}] misses reference [{ref_lower!r}, {ref_upper!r}]")
    return reasons


def output_tokens(text):
    """Values of a CSV or JSON-lines output, in order, numbers as floats."""
    tokens = []
    for line in text.splitlines():
        if line.startswith("{"):
            values = _flatten(json.loads(line))
        else:
            values = line.split(",")
        for value in values:
            tokens.append(_as_number(value))
    return tokens


def _flatten(obj):
    if isinstance(obj, dict):
        return [v for key in sorted(obj) for v in [key] + _flatten(obj[key])]
    if isinstance(obj, list):
        return [v for item in obj for v in _flatten(item)]
    return [obj]


def _as_number(value):
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except ValueError:
        return value


def cli_failures(exit_code, stdout, ref_exit, ref_stdout):
    """Reasons one CLI command failed: exit code, then stdout token by token."""
    reasons = []
    if exit_code != ref_exit:
        reasons.append(f"exit code {exit_code}, expected {ref_exit}")
    got, want = output_tokens(stdout), output_tokens(ref_stdout)
    if len(got) != len(want):
        return reasons + [f"{len(got)} output values, expected {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, float) and isinstance(g, float):
            if not abs(g - w) <= VALUE_TOL and not (math.isnan(g) and math.isnan(w)):
                reasons.append(f"value {k}: {g!r} differs from reference {w!r}")
        elif g != w:
            reasons.append(f"value {k}: {g!r}, expected {w!r}")
    return reasons
