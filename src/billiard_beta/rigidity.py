"""Inequality, equality-rigidity and counterexample verifiers.

Each verifier compares a computed minimal average action against a scaled
disk value (or a cross-model combination) and returns an InequalityReport
whose `gap` is oriented so that gap >= 0 means the tested inequality holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import geometry
from .geometry import SupportDomain, area, eval_support, perimeter, support_jet
from .models import beta_disk, make_system, outer_polygon, polygon_area
from .twist import (
    MinimizeOptions,
    RotationNumber,
    beta_irrational_result,
    minimize_periodic,
    minimize_with_fixed_start,
)

EQ_TOL = 1e-6
NUM_TOL = 1e-8

_MAIN_MODEL = {"T4.2": "birkhoff", "T4.3": "symplectic", "T4.4": "fourth"}


@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    rho: float
    lhs: float
    rhs: float
    gap: float
    holds: bool
    equality: bool
    converged: bool = True
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "rho": self.rho,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "holds": self.holds,
            "equality": self.equality,
            "converged": self.converged,
        }
        out.update(self.meta)
        return out


def _report(theorem, rho, lhs, rhs, gap, converged, num_tol, eq_tol, **meta):
    return InequalityReport(
        theorem=theorem,
        rho=float(rho),
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(gap),
        holds=bool(gap >= -num_tol),
        equality=bool(abs(gap) < eq_tol),
        converged=bool(converged),
        meta=meta,
    )


def _disk_beta(dom: SupportDomain, tag: str, rho: float) -> float:
    """beta of the disk with the perimeter (birkhoff, fourth) or area
    (symplectic, outer) of dom, the value each inequality compares with."""
    if tag in ("birkhoff", "fourth"):
        return perimeter(dom) / (2.0 * math.pi) * beta_disk(tag, rho)
    return area(dom) / math.pi * beta_disk(tag, rho)


def verify_main_inequality(
    dom: SupportDomain,
    theorem: str,
    rho: RotationNumber,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Theorems comparing beta of the domain with the rescaled disk beta."""
    if theorem not in _MAIN_MODEL:
        raise ValueError(f"unknown main-inequality tag: {theorem!r}")
    tag = _MAIN_MODEL[theorem]
    sys = make_system(dom, tag)
    if rho.is_rational:
        res = minimize_periodic(sys, rho.p, rho.q, opts)
        lhs, converged, residual = res.beta, res.converged, res.grad_residual
    else:
        ir = beta_irrational_result(sys, rho.omega, rho.tol, opts)
        lhs, converged, residual = ir.value, ir.converged, ir.upper - ir.lower
    rhs = _disk_beta(dom, tag, rho.value)
    return _report(
        theorem, rho.value, lhs, rhs, rhs - lhs, converged, num_tol, eq_tol, residual=residual
    )


# ---------------------------------------------------------------------------
# Gutkin root equation tan(n pi delta) = n tan(pi delta)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GutkinRootSet:
    n: int
    roots: tuple


def _poly_eval_exact(coeffs, s: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _poly_scaled(coeffs, s: float) -> float:
    """P(s) / max(1, s)^deg for s >= 0, which has the sign of P(s).

    For s > 1 it is the reversed polynomial at 1/s, so it cannot overflow.
    """
    if s > 1.0:
        coeffs, s = coeffs[::-1], 1.0 / s
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * s + float(c)
    return acc


@lru_cache(maxsize=None)
def gutkin_roots(n: int) -> GutkinRootSet:
    """Roots delta in (0, 1/2) of tan(n pi delta) = n tan(pi delta).

    With t = tan(x), tan(n x) = Im (1 + i t)^n / Re (1 + i t)^n, so the
    equation becomes the odd integer polynomial P(t) = Im - n t Re = 0 with a
    trivial triple root at t = 0.  P / t^3 is R(s) in s = t^2, with
    coefficients r_j = (-1)^(j+1) (C(n, 2j+3) - n C(n, 2j+2)) for j < n // 2
    and r_0 = n (n-1) (n+1) / 3 > 0.  Its positive roots are isolated with
    certified sign changes (exact rational arithmetic) and refined by
    bisection.
    """
    if not 2 <= n <= 64:
        raise ValueError("mode n must be in [2, 64]")
    r = [(-1) ** (j + 1) * (math.comb(n, 2 * j + 3) - n * math.comb(n, 2 * j + 2))
         for j in range(n // 2)]

    xs = np.linspace(1e-9, 0.5 * math.pi - 1e-9, 32 * n + 1)
    svals = np.tan(xs) ** 2
    signs = np.sign([_poly_scaled(r, s) for s in svals])
    roots = []
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0):
        lo, hi = Fraction(float(svals[i])), Fraction(float(svals[i + 1]))
        flo = _poly_eval_exact(r, lo)
        if flo == 0:
            roots.append(float(lo))
            continue
        for _ in range(80):
            mid = (lo + hi) / 2
            fm = _poly_eval_exact(r, mid)
            if fm == 0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        s_root = float((lo + hi) / 2)
        roots.append(math.atan(math.sqrt(s_root)) / math.pi)
    return GutkinRootSet(n, tuple(sorted(roots)))


def in_R(rho: float, n_max: int = 32) -> bool:
    """Membership in the rigidity set: rho is no Gutkin root up to mode n_max."""
    if not 0.0 < rho < 0.5:
        raise ValueError("rho must lie in (0, 1/2)")
    for n in range(2, n_max + 1):
        for root in gutkin_roots(n).roots:
            if abs(rho - root) <= 1e-9:
                return False
    return True


def equispaced_criticality_residual(dom: SupportDomain, rho: float) -> float:
    """Sup of the Birkhoff action gradient over equispaced configurations at rho.

    Vanishes identically exactly when the domain carries an invariant curve of
    constant reflection angle pi*rho.
    """
    phi = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    gap = 2.0 * math.pi * rho
    s, c = math.sin(math.pi * rho), math.cos(math.pi * rho)
    (h0, h1), (hp0, hp1) = support_jet(dom, np.stack([phi, phi + gap]), 1)
    res = (hp1 + hp0) * s - (h1 - h0) * c
    return float(np.abs(res).max())


def gutkin_equality_check(
    n: int,
    eps: float,
    beta_tol: float = 1e-6,
    eq_tol: float = 3e-6,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
) -> InequalityReport:
    """Equality in the Birkhoff inequality at the first Gutkin root of mode n."""
    roots = gutkin_roots(n).roots
    if not roots:
        raise ValueError(f"mode n={n} has no Gutkin root")
    delta = roots[0]
    dom = geometry.gutkin(n, eps)
    residual = equispaced_criticality_residual(dom, delta)
    sys = make_system(dom, "birkhoff")
    ir = beta_irrational_result(sys, delta, beta_tol, opts)
    rhs = _disk_beta(dom, "birkhoff", delta)
    return _report(
        "T4.2",
        delta,
        ir.value,
        rhs,
        rhs - ir.value,
        ir.converged,
        num_tol,
        eq_tol,
        criticality_residual=residual,
        bracket=(ir.lower, ir.upper),
    )


def width_defect(dom: SupportDomain) -> float:
    phi = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    h = eval_support(dom, phi, 0)
    hpi = eval_support(dom, phi + math.pi, 0)
    return float(np.abs(h + hpi - 2.0 * dom.a0).max())


def constant_width_equality(
    dom: SupportDomain,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Birkhoff inequality at rho = 1/2; equality characterizes constant width."""
    defect = width_defect(dom)
    res = minimize_periodic(make_system(dom, "birkhoff"), 1, 2, opts)
    rhs = _disk_beta(dom, "birkhoff", 0.5)
    return _report(
        "T4.2",
        0.5,
        res.beta,
        rhs,
        rhs - res.beta,
        res.converged,
        num_tol,
        eq_tol,
        width_defect=defect,
        is_constant_width=bool(defect < 1e-10),
    )


def _beta_pair(dom, p, q, opts):
    out = minimize_periodic(make_system(dom, "outer"), p, q, opts)
    symp = minimize_periodic(make_system(dom, "symplectic"), p, q, opts)
    return out, symp


def outer_third_relation(
    dom: SupportDomain,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """beta_out(1/3) + 4 beta_symp(1/3) <= 0, equality iff period-3 invariant curve."""
    out, symp = _beta_pair(dom, 1, 3, opts)
    lhs = out.beta + 4.0 * symp.beta
    return _report(
        "C6.3",
        1.0 / 3.0,
        lhs,
        0.0,
        -lhs,
        out.converged and symp.converged,
        num_tol,
        eq_tol,
        beta_outer=out.beta,
        beta_symplectic=symp.beta,
    )


def triangle_midpoint_property(dom: SupportDomain) -> float:
    """|Area(outer 3-gon) - 4 Area(tangency triangle)| on the minimal 1/3 orbit."""
    cfg = minimize_periodic(make_system(dom, "outer"), 1, 3).config
    poly = outer_polygon(dom, cfg)
    tangency = geometry.boundary_xy(dom, cfg.points)
    return abs(poly.area - 4.0 * polygon_area(tangency))


def outer_quarter_relation(
    dom: SupportDomain,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """beta_out(1/4) + 2 beta_symp(1/4) <= 0 plus the midpoint half-area identity."""
    out, symp = _beta_pair(dom, 1, 4, opts)
    lhs = out.beta + 2.0 * symp.beta
    poly = outer_polygon(dom, out.config)
    midpoints = 0.5 * (poly.vertices + np.roll(poly.vertices, -1, axis=0))
    half_area_defect = abs(poly.area - 2.0 * polygon_area(midpoints))
    return _report(
        "P6.9",
        0.25,
        lhs,
        0.0,
        -lhs,
        out.converged and symp.converged,
        num_tol,
        eq_tol,
        beta_outer=out.beta,
        beta_symplectic=symp.beta,
        half_area_defect=half_area_defect,
    )


def outer_counterexample(
    dom: SupportDomain,
    rho: Fraction | float,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Compare beta_out(rho) against the area-scaled disk value.

    gap = rhs - lhs > 0 reproduces the counterexample direction (the domain
    beats the disk bound); gap < 0 is the reversed, invariant-curve direction.
    """
    frac = Fraction(rho).limit_denominator(64)
    if (frac.numerator, frac.denominator) not in ((1, 3), (1, 4)):
        raise ValueError("counterexample check is stated for rho in {1/3, 1/4}")
    res = minimize_periodic(make_system(dom, "outer"), frac.numerator, frac.denominator, opts)
    rhs = _disk_beta(dom, "outer", float(frac))
    return _report(
        "CE6.5",
        float(frac),
        res.beta,
        rhs,
        rhs - res.beta,
        res.converged,
        num_tol,
        eq_tol,
        direction="counterexample" if res.beta < rhs - eq_tol else (
            "equality" if abs(res.beta - rhs) <= eq_tol else "reversed"
        ),
    )


def invariant_curve_spread(dom: SupportDomain, tag: str, p: int, q: int) -> float:
    """Spread of pinned minimal actions across phases.

    A vanishing spread certifies numerically that every phase carries a
    minimal periodic orbit, i.e. an invariant curve of periodic points.
    """
    sys = make_system(dom, tag)
    actions = [
        minimize_with_fixed_start(sys, p, q, x0).beta
        for x0 in np.linspace(0.0, sys.period / q, 12, endpoint=False)
    ]
    return float(max(actions) - min(actions))


def outer_rigidity_theorem(
    dom: SupportDomain,
    rho: Fraction,
    opts: MinimizeOptions | None = None,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Reversed outer inequality under the invariant-curve hypothesis.

    For rho = 1/3 (T6.4) and rho = 1/4 (T6.10): when all phase-shifted
    critical orbits have equal action, beta_out(rho) >= (area/pi) tan(pi rho),
    with equality only for ellipses.
    """
    frac = Fraction(rho)
    theorem = {(1, 3): "T6.4", (1, 4): "T6.10"}.get((frac.numerator, frac.denominator))
    if theorem is None:
        raise ValueError("outer rigidity is stated for rho in {1/3, 1/4}")
    spread = invariant_curve_spread(dom, "outer", frac.numerator, frac.denominator)
    res = minimize_periodic(make_system(dom, "outer"), frac.numerator, frac.denominator, opts)
    rhs = _disk_beta(dom, "outer", float(frac))
    return _report(
        theorem,
        float(frac),
        res.beta,
        rhs,
        res.beta - rhs,
        res.converged,
        num_tol,
        eq_tol,
        orbit_spread=spread,
        hypothesis_certified=bool(spread < 1e-8),
    )


# ---------------------------------------------------------------------------
# random domain sampling and batch suites
# ---------------------------------------------------------------------------


def random_domain(rng: np.random.Generator) -> SupportDomain:
    """a0 = 1 with modes n = 2..8 uniform in +-0.5/n^3, rejection-sampled convex."""
    while True:
        an = np.zeros(8)
        bn = np.zeros(8)
        for n in range(2, 9):
            an[n - 1] = rng.uniform(-0.5, 0.5) / n**3
            bn[n - 1] = rng.uniform(-0.5, 0.5) / n**3
        try:
            return SupportDomain(1.0, an, bn)
        except ValueError:
            continue


def sample_random_domains(count: int, seed: int = 0) -> list[SupportDomain]:
    rng = np.random.default_rng(seed)
    return [random_domain(rng) for _ in range(count)]


def nontrivial_fourier_energy(dom: SupportDomain) -> float:
    """Sum of squared mode amplitudes above n = 1 (translation-invariant shape energy)."""
    if dom.n_modes < 2:
        return 0.0
    return float((dom.an[1:] ** 2 + dom.bn[1:] ** 2).sum())


def run_inequality_suite(domains, rotations) -> list[InequalityReport]:
    """Cartesian main-inequality sweep; rho = 1/2 is only valid for T4.2."""
    reports = []
    for dom in domains:
        for p, q in rotations:
            for theorem in ("T4.2", "T4.3", "T4.4"):
                if (p, q) == (1, 2) and theorem != "T4.2":
                    continue
                reports.append(verify_main_inequality(dom, theorem, RotationNumber.rational(p, q)))
    return reports


def sine_equation_root_free(n_max: int = 64) -> bool:
    """Check sin(n theta) = n sin(theta) has no solution with theta in (0, pi).

    Solutions need |sin(theta)| <= 1/n, so only windows at the two ends are
    scanned.  Within cut = 1e-2/n of the trivial endpoints 0 and pi the
    difference is dominated by its strictly negative cubic Taylor term, so
    the scan starts outside that margin (where cancellation would otherwise
    round the difference to zero).
    """
    for n in range(2, n_max + 1):
        width = math.asin(1.0 / n)
        cut = 1e-2 / n
        for lo, hi in ((cut, width), (math.pi - width, math.pi - cut)):
            theta = np.linspace(lo, hi, 4096)
            vals = np.sin(n * theta) - n * np.sin(theta)
            if vals.max() >= -1e-12:
                return False
    return True
