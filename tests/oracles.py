"""Test oracles: independent re-computations of results the package computes.

The forward billiard maps re-iterate a minimizer's states to check that it is
a real orbit; the other functions recheck statements of the paper.  Nothing
in the package calls them.
"""

from __future__ import annotations

import math

import numpy as np

from billiard_beta import geometry
from billiard_beta.geometry import SupportDomain, bisect, boundary_xy, eval_support
from billiard_beta.models import make_system, outer_polygon, polygon_area
from billiard_beta.rigidity import gutkin_roots
from billiard_beta.twist import Configuration, minimize_periodic

TWO_PI = 2.0 * math.pi


def polygon_perimeter(vertices: np.ndarray) -> float:
    nxt = np.roll(vertices, -1, axis=0)
    return float(np.sqrt(((nxt - vertices) ** 2).sum(axis=1)).sum())


def _chord_exit(dom: SupportDomain, p0: np.ndarray, beta: float, lo: float, hi: float) -> float:
    """Root in (lo, hi) of d x (gamma(psi) - p0), d the tangent of support angle
    beta: where the line through p0 along d meets the boundary.
    """
    d0, d1 = -math.sin(beta), math.cos(beta)

    def f(psi):
        g = boundary_xy(dom, psi)
        return d0 * (g[1] - p0[1]) - d1 * (g[0] - p0[0])

    flo = f(lo)
    if (flo > 0) == (f(hi) > 0):
        raise RuntimeError("geometry error")
    return bisect(f, lo, hi, flo)


def _outer_step(dom: SupportDomain, point: np.ndarray):
    point = np.asarray(point, dtype=float)

    def f(theta):
        return point[0] * math.cos(theta) + point[1] * math.sin(theta) - eval_support(dom, theta, 0)

    grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    vals = point[0] * np.cos(grid) + point[1] * np.sin(grid) - eval_support(dom, grid, 0)
    nxt = np.roll(vals, -1)
    down = np.flatnonzero((vals > 0) & (nxt <= 0))  # crossing + -> - has F' < 0
    if down.size == 0:
        raise RuntimeError("geometry error")
    i = int(down[0])
    lo, hi = grid[i], grid[i] + (TWO_PI / grid.size)
    theta = bisect(f, lo, hi, f(lo))
    return 2.0 * boundary_xy(dom, theta) - point


def forward_map(dom: SupportDomain, tag: str, state):
    """One step of the billiard map on its state: (phi, alpha) for birkhoff, the
    support angle and incidence angle alpha in (0, pi); (t0, t1) for symplectic,
    two vertex support angles with 0 < t1 - t0 < pi; an outside point for outer.
    A Birkhoff or symplectic state outside its range raises ValueError.
    """
    if tag == "birkhoff":
        phi, alpha = (float(v) for v in state)
        if not 0.0 < alpha < math.pi:
            raise ValueError(f"birkhoff incidence angle must lie in (0, pi), got {alpha!r}")
        # the chord runs along the tangent of support angle beta = phi + alpha, so it
        # meets the tangent at its exit psi at the angle psi - beta
        beta = phi + alpha
        psi = _chord_exit(dom, boundary_xy(dom, phi), beta, phi + 1e-9, phi + TWO_PI - 1e-9)
        return psi, psi - beta
    if tag == "symplectic":
        t0, t1 = (float(v) for v in state)
        if not 0.0 < t1 - t0 < math.pi:
            raise ValueError(f"symplectic gap t1 - t0 must lie in (0, pi), got {t1 - t0!r}")
        # gamma(t1) and gamma(t1 + pi) are the extreme points along n(t1), so for
        # 0 < t1 - t0 < pi the bracket changes sign and excludes the root t0 + 2 pi
        return t1, _chord_exit(dom, boundary_xy(dom, t0), t1, t1 + 1e-9, t1 + math.pi - 1e-9)
    if tag == "outer":
        return _outer_step(dom, state)
    raise ValueError(f"forward map not implemented for tag {tag!r}")


def orbit_deviation(dom: SupportDomain, tag: str, cfg: Configuration) -> float:
    """Max distance between the orbit states of a configuration and the q-step
    forward-map re-iteration of its first state, angles lifted by winding * 2 pi.

    The states are (m_k, alpha_k) for birkhoff, with m_k the vertex angle between
    chords k and k+1; chord k+1 runs along the tangent of support angle x_{k+1},
    so alpha_k = x_{k+1} - m_k.  They are (x_k, x_{k+1}) for symplectic and the
    polygon vertices for outer.
    """
    x, nxt = cfg.points, cfg.closed()
    if tag == "birkhoff":
        states, lift = np.column_stack([0.5 * (x + nxt), 0.5 * (nxt - x)]), (TWO_PI, 0.0)
    elif tag == "symplectic":
        states, lift = np.column_stack([x, nxt]), (TWO_PI, TWO_PI)
    elif tag == "outer":
        states, lift = outer_polygon(dom, cfg).vertices, (0.0, 0.0)
    else:
        raise ValueError(f"forward map not implemented for tag {tag!r}")
    states = np.vstack([states, states[0] + cfg.winding * np.array(lift)])
    cur, dev = states[0], 0.0
    for state in states[1:]:
        cur = forward_map(dom, tag, cur)
        dev = max(dev, float(np.abs(np.subtract(cur, state)).max()))
    return dev


def in_R(rho: float, n_max: int = 32) -> bool:
    """Membership in the rigidity set: rho is no Gutkin root up to mode n_max."""
    if not 0.0 < rho < 0.5:
        raise ValueError("rho must lie in (0, 1/2)")
    for n in range(2, n_max + 1):
        for root in gutkin_roots(n).roots:
            if abs(rho - root) <= 1e-9:
                return False
    return True


def triangle_midpoint_property(dom: SupportDomain) -> float:
    """|Area(outer 3-gon) - 4 Area(tangency triangle)| on the minimal 1/3 orbit."""
    cfg = minimize_periodic(make_system(dom, "outer"), 1, 3).config
    poly = outer_polygon(dom, cfg)
    tangency = geometry.boundary_xy(dom, cfg.points)
    return abs(poly.area - 4.0 * polygon_area(tangency))


def nontrivial_fourier_energy(dom: SupportDomain) -> float:
    """Sum of squared mode amplitudes above n = 1 (translation-invariant shape energy)."""
    if dom.n_modes < 2:
        return 0.0
    return float((dom.an[1:] ** 2 + dom.bn[1:] ** 2).sum())


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
