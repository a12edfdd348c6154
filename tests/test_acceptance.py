"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from billiard_beta import rigidity
from billiard_beta.geometry import constant_width, disk, ellipse, perimeter, squeezed_disk
from billiard_beta.models import MODEL_TAGS, beta_disk, make_system
from billiard_beta.rigidity import (
    constant_width_equality,
    gutkin_equality_check,
    gutkin_roots,
    outer_counterexample,
    outer_quarter_relation,
    outer_third_relation,
    run_inequality_suite,
    verify_main_inequality,
)
from billiard_beta.twist import (
    Configuration,
    RotationNumber,
    action,
    action_gradient,
    beta_irrational_result,
    beta_rational,
    equispaced_average_action,
    farey_fractions,
    make_toy_system,
    minimize_periodic,
)
from oracles import orbit_deviation, triangle_midpoint_property

SQ3 = math.sqrt(3.0)
SUITE_SEED = 20260808
SUITE_ROTATIONS = [(1, 3), (1, 4), (1, 5), (2, 5), (1, 2)]


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def random_suite_reports():
    domains = rigidity.sample_random_domains(50, seed=SUITE_SEED)
    start = time.perf_counter()
    reports = run_inequality_suite(domains, SUITE_ROTATIONS)
    return reports, time.perf_counter() - start


def test_criterion_1_disk_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for p, q in [(1, 3), (1, 4), (1, 5), (2, 5), (1, 2), (3, 7)]:
        for tag in MODEL_TAGS:
            if (p, q) == (1, 2) and tag != "birkhoff":
                continue
            res = minimize_periodic(make_system(disk(1.0), tag), p, q)
            err = abs(res.beta - beta_disk(tag, p / q))
            worst = max(worst, err)
            assert res.converged
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"disk closed forms max err {worst:.2e} in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_inequality_suite(random_suite_reports):
    reports, elapsed = random_suite_reports
    violations = [r for r in reports if r.gap < -1e-8]
    nonconv = [r for r in reports if not r.converged]
    report(
        2,
        not violations and not nonconv and elapsed < 120.0,
        f"{len(reports)} checks (50 domains x 5 rationals x 3 theorems), "
        f"{len(violations)} violations, {len(nonconv)} non-converged, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_equality_rigidity(random_suite_reports):
    reports, _ = random_suite_reports
    # random Fourier domains are far from disks/affine disks: no equality may fire
    spurious = [r for r in reports if r.equality]
    # positive controls: disk saturates everything; ellipse saturates only T4.3
    disk_eq = all(
        verify_main_inequality(disk(1.0), theorem, RotationNumber.rational(1, 3)).equality
        for theorem in ("T4.2", "T4.3", "T4.4")
    )
    e = ellipse(2, 1)
    ellipse_eq = (
        verify_main_inequality(e, "T4.3", RotationNumber.rational(1, 3)).equality
        and not verify_main_inequality(e, "T4.2", RotationNumber.rational(1, 3)).equality
        and not verify_main_inequality(e, "T4.4", RotationNumber.rational(1, 3)).equality
    )
    report(
        3,
        not spurious and disk_eq and ellipse_eq,
        f"{len(spurious)} spurious equalities on random domains; disk saturates all three; "
        "ellipse saturates only the affine-invariant case",
    )


def test_criterion_4_gutkin_mechanism():
    empty = gutkin_roots(2).roots == () and gutkin_roots(3).roots == ()
    roots4 = gutkin_roots(4).roots
    root_err = abs(roots4[0] - math.atan(math.sqrt(5.0)) / math.pi) if roots4 else math.inf
    rep = gutkin_equality_check(4, 0.02)
    report(
        4,
        empty and len(roots4) == 1 and root_err < 1e-10 and abs(rep.gap) < 3e-6 and rep.converged,
        f"roots(2)=roots(3)=[], root(4) err {root_err:.1e}, equality gap {abs(rep.gap):.2e} (< 3e-6)",
    )


def test_criterion_5_constant_width():
    rep = constant_width_equality(constant_width(0.05, 3))
    dom_perimeter = perimeter(constant_width(0.05, 3))
    ok = (
        abs(rep.lhs + 2.0) < 1e-8
        and abs(rep.rhs + dom_perimeter / math.pi) < 1e-12
        and abs(rep.gap) < 1e-8
    )
    report(5, ok, f"beta(1/2) = {rep.lhs:.12f} vs -perimeter/pi = {rep.rhs:.12f}")


def test_criterion_6_outer_relations():
    checks = []
    for dom in (disk(1.0), ellipse(2, 1)):
        third = outer_third_relation(dom)
        quarter = outer_quarter_relation(dom)
        checks.append(abs(third.lhs) < 1e-7 and abs(quarter.lhs) < 1e-7)
        checks.append(quarter.meta["half_area_defect"] < 1e-9)
        checks.append(triangle_midpoint_property(dom) < 1e-9)
    d3 = outer_third_relation(disk(1.0))
    checks.append(abs(d3.meta["beta_outer"] - SQ3) < 1e-8)
    checks.append(abs(d3.meta["beta_symplectic"] + SQ3 / 4) < 1e-8)
    d4 = outer_quarter_relation(disk(1.0))
    checks.append(abs(d4.meta["beta_outer"] - 1.0) < 1e-8)
    checks.append(abs(d4.meta["beta_symplectic"] + 0.5) < 1e-8)
    for dom in rigidity.sample_random_domains(3, seed=5):
        checks.append(outer_third_relation(dom).lhs <= 1e-8)
        q = outer_quarter_relation(dom)
        checks.append(q.lhs <= 1e-8 and q.meta["half_area_defect"] < 1e-9)
        checks.append(triangle_midpoint_property(dom) < 1e-9)
    report(6, all(checks), f"{sum(checks)}/{len(checks)} outer-relation identities hold")


def test_criterion_7_outer_counterexample():
    margins = {}
    for eps in (0.05, 0.1, 0.2):
        rep = outer_counterexample(squeezed_disk(eps), Fraction(1, 4))
        margins[eps] = rep.rhs - rep.lhs
    best = max(margins.values())
    report(
        7,
        best > 1e-4,
        "squeezed-disk margins rhs-lhs at 1/4: "
        + ", ".join(f"eps={e}: {m:.2e}" for e, m in margins.items()),
    )


def test_criterion_8_toy_model():
    grid = farey_fractions(10)
    free = make_toy_system()
    worst_eq = max(abs(beta_rational(free, p, q) - (p / q) ** 2 / 2) for p, q in grid)
    rng = np.random.default_rng(17)
    ok_all, strict_all = True, True
    for _ in range(10):
        coeffs = rng.uniform(-0.03, 0.03, 3)
        while np.abs(coeffs).max() < 1e-3:
            coeffs = rng.uniform(-0.03, 0.03, 3)
        sys = make_toy_system(coeffs, rng.uniform(-0.03, 0.03, 3))
        gaps = [(p / q) ** 2 / 2 - beta_rational(sys, p, q) for p, q in grid]
        ok_all &= min(gaps) >= -1e-10
        strict_all &= max(gaps) > 1e-6
    report(
        8,
        worst_eq < 1e-10 and ok_all and strict_all,
        f"V=0 max |beta - rho^2/2| = {worst_eq:.1e}; 10 random potentials all below "
        "the free beta with a strict gap",
    )


def test_criterion_9_property_suites():
    rng = np.random.default_rng(41)
    doms = [disk(1.0), rigidity.random_domain(rng)]

    grad_ok = True
    for dom in doms:
        for tag in MODEL_TAGS:
            sys = make_system(dom, tag)
            for _ in range(5):
                gaps = rng.uniform(0.7, 1.3, 5)
                gaps *= 2 * math.pi / gaps.sum()
                if gaps.max() >= sys.max_gap:
                    continue
                x = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) + rng.uniform(0, 2 * math.pi)
                cfg = Configuration(x, 1, 2 * math.pi)
                grad = action_gradient(sys, cfg)
                for k in range(5):
                    plus, minus = x.copy(), x.copy()
                    plus[k] += 1e-6
                    minus[k] -= 1e-6
                    fd = (
                        action(sys, Configuration(plus, 1, 2 * math.pi))
                        - action(sys, Configuration(minus, 1, 2 * math.pi))
                    ) / 2e-6
                    grad_ok &= abs(fd - grad[k]) < 1e-5

    convex_ok = True
    for dom, tag in [(disk(1.0), "outer"), (doms[1], "birkhoff")]:
        sys = make_system(dom, tag)
        pts = [
            (p / q, beta_rational(sys, p, q))
            for p, q in farey_fractions(10, include_half=(tag == "birkhoff"))
        ]
        for (r1, b1), (r2, b2), (r3, b3) in zip(pts, pts[1:], pts[2:]):
            convex_ok &= b2 <= b1 + (b3 - b1) * (r2 - r1) / (r3 - r1) + 1e-8

    lemma_ok = True
    checked = 0
    while checked < 50:
        dom = doms[rng.integers(2)]
        tag = MODEL_TAGS[rng.integers(4)]
        q = int(rng.integers(2, 11))
        p = int(rng.integers(1, q))
        if math.gcd(p, q) != 1 or p / q > 0.49:
            continue
        sys = make_system(dom, tag)
        avg = equispaced_average_action(sys, p / q, float(rng.uniform(0, 2 * math.pi)))
        lemma_ok &= avg >= beta_rational(sys, p, q) - 1e-8
        checked += 1

    orbit_ok = True
    for dom in (disk(1.0), ellipse(2, 1), doms[1]):
        for tag in ("birkhoff", "symplectic", "outer"):
            res = minimize_periodic(make_system(dom, tag), 2, 5)
            orbit_ok &= res.converged and orbit_deviation(dom, tag, res.config) < 1e-7

    report(
        9,
        grad_ok and convex_ok and lemma_ok and orbit_ok,
        f"gradient-FD {grad_ok}, beta convexity {convex_ok}, "
        f"equispaced>=beta {lemma_ok}, forward/variational {orbit_ok}",
    )


def test_criterion_10_irrational_beta():
    omega = 1 / math.sqrt(8)
    res = beta_irrational_result(make_system(disk(1.0), "birkhoff"), omega, 1e-6)
    err = abs(res.value + 2 * math.sin(math.pi * omega))
    max_q = max(q for _, q, _ in res.evaluations)
    report(
        10,
        res.converged and err < 1e-6 and max_q <= 2000,
        f"beta(1/sqrt(8)) err {err:.2e} with convergents up to q={max_q} (<= 2000)",
    )
