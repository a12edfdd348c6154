"""Inequality, equality-rigidity and counterexample verifiers.

Each verifier compares a computed minimal average action against a scaled
disk value (`_versus_disk`) or a cross-model combination against 0, and
returns an InequalityReport whose `gap` is oriented so that gap >= 0 means
the tested inequality holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import geometry
from .geometry import SupportDomain, area, eval_support, perimeter
from .models import beta_disk, make_system, outer_polygon, polygon_area
from .twist import RotationNumber, beta_at, beta_irrational_result, minimize_periodic, minimize_pinned

EQ_TOL = 1e-6
NUM_TOL = 1e-8

_MAIN_MODEL = {"T4.2": "birkhoff", "T4.3": "symplectic", "T4.4": "fourth"}


@dataclass(frozen=True, slots=True)
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


def _versus_disk(theorem, dom, tag, rho, lhs, converged, num_tol, eq_tol, **meta):
    """Report beta `lhs` of dom's `tag` model at rho against rhs, the beta of
    the disk with the perimeter (birkhoff, fourth) or area (symplectic, outer)
    of dom.

    gap = rhs - lhs; the outer rigidity theorems T6.4/T6.10 reverse it to
    lhs - rhs.  CE6.5 also names the direction of lhs against rhs.
    """
    if tag in ("birkhoff", "fourth"):
        rhs = perimeter(dom) / (2.0 * math.pi) * beta_disk(tag, rho)
    else:
        rhs = area(dom) / math.pi * beta_disk(tag, rho)
    gap = lhs - rhs if theorem in ("T6.4", "T6.10") else rhs - lhs
    if theorem == "CE6.5":
        meta["direction"] = "counterexample" if lhs < rhs - eq_tol else (
            "equality" if abs(lhs - rhs) <= eq_tol else "reversed")
    return _report(theorem, rho, lhs, rhs, gap, converged, num_tol, eq_tol, **meta)


def verify_main_inequality(
    dom: SupportDomain,
    theorem: str,
    rho: RotationNumber,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Theorems comparing beta of the domain with the rescaled disk beta."""
    if theorem not in _MAIN_MODEL:
        raise ValueError(f"unknown main-inequality tag: {theorem!r}")
    tag = _MAIN_MODEL[theorem]
    lhs, residual, converged, _ = beta_at(make_system(dom, tag), [rho])[0]
    return _versus_disk(theorem, dom, tag, rho.value, lhs, converged, num_tol, eq_tol, residual=residual)


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


def _root_grid(n: int) -> np.ndarray:
    """The s = tan^2(x) grid on which gutkin_roots(n) brackets sign changes."""
    return np.tan(np.linspace(1e-9, 0.5 * math.pi - 1e-9, 32 * n + 1)) ** 2


@lru_cache(maxsize=None)
def gutkin_roots(n: int) -> GutkinRootSet:
    """Roots delta in (0, 1/2) of tan(n pi delta) = n tan(pi delta).

    With t = tan(x), tan(n x) = Im (1 + i t)^n / Re (1 + i t)^n, so the
    equation becomes the odd integer polynomial P(t) = Im - n t Re = 0 with a
    trivial triple root at t = 0.  P / t^3 is R(s) in s = t^2, with
    coefficients r_j = (-1)^(j+1) (C(n, 2j+3) - n C(n, 2j+2)) for j < n // 2
    and r_0 = n (n-1) (n+1) / 3 > 0.  Its positive roots are isolated with
    certified sign changes (exact rational arithmetic) and refined by
    bisection.  A bracket starts where the sign is not zero, so a root on a
    grid point is found once, as the end of the bracket before it.
    """
    if not 2 <= n <= 64:
        raise ValueError("mode n must be in [2, 64]")
    r = [(-1) ** (j + 1) * (math.comb(n, 2 * j + 3) - n * math.comb(n, 2 * j + 2))
         for j in range(n // 2)]

    svals = _root_grid(n)
    signs = np.sign([_poly_scaled(r, s) for s in svals])
    roots = []
    for i in np.flatnonzero((signs[:-1] != 0) & (signs[:-1] * signs[1:] <= 0)):
        lo, hi = Fraction(float(svals[i])), Fraction(float(svals[i + 1]))
        flo = _poly_eval_exact(r, lo)
        for _ in range(80):
            if flo == 0:  # lo is a root
                hi = lo
                break
            mid = (lo + hi) / 2
            fm = _poly_eval_exact(r, mid)
            if fm == 0 or (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(math.atan(math.sqrt(float((lo + hi) / 2))) / math.pi)
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
    jet = make_system(dom, "birkhoff").jet
    gap = 2.0 * math.pi * rho
    x = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False) + 0.5 * gap
    return float(np.abs(jet(x - gap, x)[2] + jet(x, x + gap)[1]).max())


def gutkin_equality_check(
    n: int,
    eps: float,
    beta_tol: float = 1e-6,
    eq_tol: float = EQ_TOL,
    num_tol: float = NUM_TOL,
) -> InequalityReport:
    """Equality in the Birkhoff inequality at the first Gutkin root of mode n."""
    roots = gutkin_roots(n).roots
    if not roots:
        raise ValueError(f"mode n={n} has no Gutkin root")
    delta = roots[0]
    dom = geometry.gutkin(n, eps)
    residual = equispaced_criticality_residual(dom, delta)
    ir = beta_irrational_result(make_system(dom, "birkhoff"), delta, beta_tol)
    return _versus_disk("T4.2", dom, "birkhoff", delta, ir.value, ir.converged, num_tol, eq_tol,
                        criticality_residual=residual, bracket=(ir.lower, ir.upper))


def width_defect(dom: SupportDomain) -> float:
    phi = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    h = eval_support(dom, phi, 0)
    hpi = eval_support(dom, phi + math.pi, 0)
    return float(np.abs(h + hpi - 2.0 * dom.a0).max())


def constant_width_equality(
    dom: SupportDomain,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Birkhoff inequality at rho = 1/2; equality characterizes constant width."""
    defect = width_defect(dom)
    res = minimize_periodic(make_system(dom, "birkhoff"), 1, 2)
    return _versus_disk("T4.2", dom, "birkhoff", 0.5, res.beta, res.converged, num_tol, eq_tol,
                        width_defect=defect, is_constant_width=bool(defect < 1e-10))


def _outer_plus_symplectic(theorem, dom, q, weight, num_tol, eq_tol):
    """Report lhs = beta_out(1/q) + weight * beta_symp(1/q) against 0 (gap = -lhs).

    P6.9 adds the half-area defect of the minimal outer 4-gon against the
    polygon of its edge midpoints.
    """
    out = minimize_periodic(make_system(dom, "outer"), 1, q)
    symp = minimize_periodic(make_system(dom, "symplectic"), 1, q)
    lhs = out.beta + weight * symp.beta
    meta = {}
    if theorem == "P6.9":
        poly = outer_polygon(dom, out.config)
        midpoints = 0.5 * (poly.vertices + np.roll(poly.vertices, -1, axis=0))
        meta["half_area_defect"] = abs(poly.area - 2.0 * polygon_area(midpoints))
    return _report(theorem, 1.0 / q, lhs, 0.0, -lhs, out.converged and symp.converged, num_tol, eq_tol,
                   beta_outer=out.beta, beta_symplectic=symp.beta, **meta)


def outer_third_relation(
    dom: SupportDomain,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """beta_out(1/3) + 4 beta_symp(1/3) <= 0, equality iff period-3 invariant curve."""
    return _outer_plus_symplectic("C6.3", dom, 3, 4.0, num_tol, eq_tol)


def triangle_midpoint_property(dom: SupportDomain) -> float:
    """|Area(outer 3-gon) - 4 Area(tangency triangle)| on the minimal 1/3 orbit."""
    cfg = minimize_periodic(make_system(dom, "outer"), 1, 3).config
    poly = outer_polygon(dom, cfg)
    tangency = geometry.boundary_xy(dom, cfg.points)
    return abs(poly.area - 4.0 * polygon_area(tangency))


def outer_quarter_relation(
    dom: SupportDomain,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """beta_out(1/4) + 2 beta_symp(1/4) <= 0 plus the midpoint half-area identity."""
    return _outer_plus_symplectic("P6.9", dom, 4, 2.0, num_tol, eq_tol)


def _outer_rotation(rho: Fraction | float) -> Fraction:
    """rho as the Fraction 1/3 or 1/4, the rotations the outer verifiers are
    stated for; a float must equal float(Fraction(1, 3)) or float(Fraction(1, 4)).
    """
    for frac in (Fraction(1, 3), Fraction(1, 4)):
        if rho == frac or (isinstance(rho, float) and rho == float(frac)):
            return frac
    raise ValueError(f"the outer verifiers are stated for rho in {{1/3, 1/4}}, got {rho}")


def outer_counterexample(
    dom: SupportDomain,
    rho: Fraction | float,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Compare beta_out(rho) against the area-scaled disk value.

    gap = rhs - lhs > 0 reproduces the counterexample direction (the domain
    beats the disk bound); gap < 0 is the reversed, invariant-curve direction.
    """
    frac = _outer_rotation(rho)
    res = minimize_periodic(make_system(dom, "outer"), frac.numerator, frac.denominator)
    return _versus_disk("CE6.5", dom, "outer", float(frac), res.beta, res.converged, num_tol, eq_tol)


def _pinned_spread(dom: SupportDomain, tag: str, p: int, q: int) -> tuple[float, bool]:
    """(spread, all converged): the spread of the pinned minimal actions over
    the converged ones of 12 phases x0 in [0, period / q), solved as one pinned
    Newton array; nan when none converged."""
    sys = make_system(dom, tag)
    pinned = minimize_pinned(sys, p, q, np.linspace(0.0, sys.period / q, 12, endpoint=False))
    actions = [res.beta for res in pinned if res.converged]
    spread = max(actions) - min(actions) if actions else math.nan
    return float(spread), len(actions) == len(pinned)


def invariant_curve_spread(dom: SupportDomain, tag: str, p: int, q: int) -> float:
    """Spread of pinned minimal actions across phases, over the converged phases.

    A vanishing spread certifies numerically that every phase carries a
    minimal periodic orbit, i.e. an invariant curve of periodic points.
    """
    return _pinned_spread(dom, tag, p, q)[0]


def outer_rigidity_theorem(
    dom: SupportDomain,
    rho: Fraction | float,
    num_tol: float = NUM_TOL,
    eq_tol: float = EQ_TOL,
) -> InequalityReport:
    """Reversed outer inequality under the invariant-curve hypothesis.

    For rho = 1/3 (T6.4) and rho = 1/4 (T6.10): when all phase-shifted
    critical orbits have equal action, beta_out(rho) >= (area/pi) tan(pi rho),
    with equality only for ellipses.  The hypothesis is certified when every
    pinned phase converged and their spread is below 1e-8; orbit_spread is
    None when no phase converged.
    """
    frac = _outer_rotation(rho)
    theorem = "T6.4" if frac.denominator == 3 else "T6.10"
    spread, all_converged = _pinned_spread(dom, "outer", frac.numerator, frac.denominator)
    res = minimize_periodic(make_system(dom, "outer"), frac.numerator, frac.denominator)
    return _versus_disk(theorem, dom, "outer", float(frac), res.beta, res.converged, num_tol, eq_tol,
                        orbit_spread=None if math.isnan(spread) else spread,
                        hypothesis_certified=all_converged and spread < 1e-8)


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
