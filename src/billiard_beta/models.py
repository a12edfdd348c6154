"""The four billiard generating functions over a support-function domain.

All four models share one configuration space: the support angle phi with
period 2*pi.  Orbit polygons are recovered per model:

  birkhoff    S(x0,x1) = -2 h(m) sin(d),  m = (x0+x1)/2, d = (x1-x0)/2.
              Configuration values are chord coordinates; the polygon vertex
              between chords k and k+1 sits at the mean angle m_k, and
              -sum S equals the polygon perimeter for every admissible
              periodic configuration.
  symplectic  S(t0,t1) = -1/2 w(gamma(t0), gamma(t1)); configuration values
              are vertex angles; -sum S is the inscribed polygon area.
  outer       per-edge summand = area of the wedge O, gamma(x0), M, gamma(x1)
              where M is the tangent intersection; sum = circumscribed
              polygon area.
  fourth      S(x0,x1) = lambda0 + lambda1, the two tangent segment lengths
              from M; sum = circumscribed polygon perimeter.

The twist condition S12 < 0 holds on each model's admissible strip.

Each model is one jet function (see `TwistSystem`): it evaluates the support
jet once per edge end (once at the chord midpoint for Birkhoff) and shares
the trig and tangent-length terms across S and its partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SupportDomain, boundary_xy, eval_support, support_jet
from .twist import Configuration, TwistSystem, _closed, _roll

TWO_PI = 2.0 * math.pi

MODEL_TAGS = ("birkhoff", "symplectic", "outer", "fourth")


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def make_system(dom: SupportDomain, tag: str) -> TwistSystem:
    if tag == "birkhoff":
        return _birkhoff_system(dom)
    if tag == "symplectic":
        return _symplectic_system(dom)
    if tag == "outer":
        return _outer_system(dom)
    if tag == "fourth":
        return _fourth_system(dom)
    raise ValueError(f"unknown model tag: {tag!r}")


def _birkhoff_system(dom: SupportDomain) -> TwistSystem:
    def jet(x0, x1, order):
        x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
        h = support_jet(dom, 0.5 * (x0 + x1), order)
        d = 0.5 * (x1 - x0)
        s, c = np.sin(d), np.cos(d)
        out = [-2.0 * h[0] * s]
        if order >= 1:
            out += [-h[1] * s + h[0] * c, -h[1] * s - h[0] * c]
        if order >= 2:
            out += [
                0.5 * (-h[2] * s + 2.0 * h[1] * c + h[0] * s),
                -0.5 * (h[0] + h[2]) * s,
                0.5 * (-h[2] * s - 2.0 * h[1] * c + h[0] * s),
            ]
        return out

    return TwistSystem(TWO_PI, TWO_PI, jet, name="birkhoff")


def _two_end_system(name, max_gap, end, edge) -> TwistSystem:
    """System whose jet is edge(end(x0), end(x1), x0, x1, order).

    end(x, order) is 2 pi-periodic data at the angles x, shape (..., *x.shape).
    On a closed configuration it runs once, on x: the x_{k+1} end is its cyclic shift.
    """

    def jet(x0, x1, order):
        return edge(end(x0, order), end(x1, order), x0, x1, order)

    def cyclic_jet(x, p, order):
        e0 = end(x, order)
        return edge(e0, _roll(e0, -1), x, _closed(x, p, TWO_PI), order)

    return TwistSystem(TWO_PI, max_gap, jet, name=name, cyclic_jet=cyclic_jet)


def _gamma_jets(h, t):
    """gamma and its first len(h) - 2 derivatives at t, from the support jet h.

    Shape (len(h) - 1, 2, *t.shape): derivative, then x and y.
    """
    c, s = np.cos(t), np.sin(t)
    out = [(h[0] * c - h[1] * s, h[0] * s + h[1] * c)]
    if len(h) > 2:
        r = h[0] + h[2]
        out.append((-r * s, r * c))
    if len(h) > 3:
        rp = h[1] + h[3]
        out.append((-rp * s - r * c, rp * c - r * s))
    return np.array(out)


def _symplectic_system(dom: SupportDomain) -> TwistSystem:
    def end(x, order):
        return _gamma_jets(support_jet(dom, x, order + 1), x)

    def edge(g0, g1, x0, x1, order):
        # each partial pairs one derivative of gamma at x0 with one at x1
        pairs = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)][: (1, 3, 6)[order]]
        return [-0.5 * _cross(*g0[i], *g1[j]) for i, j in pairs]

    return _two_end_system("symplectic", math.pi, end, edge)


def _tangent_wedge(g0, g1, x0, x1):
    """Trig of the gap and tangent-segment lengths at a tangent-line pair.

    g0, g1 are support jets at x0, x1.  Returns s, c, 1/s, cot of the gap and
    the signed lengths lambda0 = |M - gamma(x0)|, lambda1 = |gamma(x1) - M|
    where M is the intersection of the two tangent lines (positive for gaps
    in (0, pi) on a strictly convex domain).
    """
    delta = np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)
    s, c = np.sin(delta), np.cos(delta)
    inv_s = 1.0 / s
    cot = c * inv_s
    lam0 = -g0[1] + g1[0] * inv_s - g0[0] * cot
    lam1 = g1[1] + g0[0] * inv_s - g1[0] * cot
    return s, c, inv_s, cot, lam0, lam1


def _lambda_partials(g0, g1, s, c, inv_s, cot):
    """First partials of lambda0, lambda1 in (x0, x1)."""
    p = inv_s * inv_s
    cp = c * p
    a = -g0[2] + g1[0] * cp - g0[1] * cot - g0[0] * p  # d lam0 / d x0
    b = g1[1] * inv_s - g1[0] * cp + g0[0] * p  # d lam0 / d x1
    cc = g0[1] * inv_s + g0[0] * cp - g1[0] * p  # d lam1 / d x0
    d = g1[2] - g0[0] * cp - g1[1] * cot + g1[0] * p  # d lam1 / d x1
    return a, b, cc, d, p, cp


def _lambda_second_partials(g0, g1, s, c, inv_s, cot, p, cp):
    """Second partials of lambda0, lambda1; e = 1/s + 2 c^2 / s^3, f = 2 c / s^3."""
    e = inv_s + 2.0 * c * cp * inv_s
    f = 2.0 * cp * inv_s
    a00 = -g0[3] + g1[0] * e - g0[2] * cot - 2.0 * g0[1] * p - g0[0] * f
    a01 = g1[1] * cp - g1[0] * e + g0[1] * p + g0[0] * f
    b11 = g1[2] * inv_s - 2.0 * g1[1] * cp + g1[0] * e - g0[0] * f
    c00 = g0[2] * inv_s + 2.0 * g0[1] * cp + g0[0] * e - g1[0] * f
    c01 = -g0[1] * cp - g0[0] * e - g1[1] * p + g1[0] * f
    d11 = g1[3] + g0[0] * e - g1[2] * cot + 2.0 * g1[1] * p - g1[0] * f
    return a00, a01, b11, c00, c01, d11


def _outer_system(dom: SupportDomain) -> TwistSystem:
    # per-edge area of the wedge (O, gamma(x0), M, gamma(x1)):
    #   S = (h(x0) lam0 + h(x1) lam1) / 2, summing to the circumscribed area.
    def edge(g0, g1, x0, x1, order):
        s, c, inv_s, cot, lam0, lam1 = _tangent_wedge(g0, g1, x0, x1)
        out = [0.5 * (g0[0] * lam0 + g1[0] * lam1)]
        if order >= 1:
            a, b, cc, d, p, cp = _lambda_partials(g0, g1, s, c, inv_s, cot)
            out += [
                0.5 * (g0[1] * lam0 + g0[0] * a + g1[0] * cc),
                0.5 * (g0[0] * b + g1[1] * lam1 + g1[0] * d),
            ]
        if order >= 2:
            a00, a01, b11, c00, c01, d11 = _lambda_second_partials(g0, g1, s, c, inv_s, cot, p, cp)
            out += [
                0.5 * (g0[2] * lam0 + 2.0 * g0[1] * a + g0[0] * a00 + g1[0] * c00),
                0.5 * (g0[1] * b + g0[0] * a01 + g1[1] * cc + g1[0] * c01),
                0.5 * (g0[0] * b11 + g1[2] * lam1 + 2.0 * g1[1] * d + g1[0] * d11),
            ]
        return out

    return _two_end_system("outer", math.pi, lambda x, order: support_jet(dom, x, order + 1), edge)


def _fourth_system(dom: SupportDomain) -> TwistSystem:
    def edge(g0, g1, x0, x1, order):
        tan = np.tan(0.5 * (np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)))
        total = g0[0] + g1[0]
        out = [g1[1] - g0[1] + total * tan]
        if order >= 1:
            sec2 = 1.0 + tan * tan
            out += [
                -g0[2] + g0[1] * tan - 0.5 * total * sec2,
                g1[2] + g1[1] * tan + 0.5 * total * sec2,
            ]
        if order >= 2:
            mixed = 0.5 * total * sec2 * tan
            out += [
                -g0[3] + g0[2] * tan - g0[1] * sec2 + mixed,
                0.5 * sec2 * (g0[1] - g1[1]) - mixed,
                g1[3] + g1[2] * tan + g1[1] * sec2 + mixed,
            ]
        return out

    return _two_end_system("fourth", math.pi, lambda x, order: support_jet(dom, x, order + 1), edge)


def beta_disk(tag: str, rho: float) -> float:
    """Closed-form beta of the unit disk for each model."""
    if tag == "birkhoff":
        if not 0.0 < rho <= 0.5:
            raise ValueError("rotation number out of range")
        return -2.0 * math.sin(math.pi * rho)
    if not 0.0 < rho < 0.5 and tag in ("outer", "fourth"):
        raise ValueError("rotation number out of range")
    if tag == "outer":
        return math.tan(math.pi * rho)
    if tag == "symplectic":
        if not 0.0 < rho <= 0.5:
            raise ValueError("rotation number out of range")
        return -0.5 * math.sin(2.0 * math.pi * rho)
    if tag == "fourth":
        return 2.0 * math.tan(math.pi * rho)
    raise ValueError(f"unknown model tag: {tag!r}")


@dataclass(frozen=True)
class OuterPolygon:
    vertices: np.ndarray
    area: float


def tangent_intersection(dom: SupportDomain, t0, t1):
    """Intersection of the tangent lines at support angles t0, t1 (gap < pi)."""
    h0, h1 = support_jet(dom, np.stack([t0, t1]), 0)[0]
    s = np.sin(np.asarray(t1) - np.asarray(t0))
    x = (h0 * np.sin(t1) - h1 * np.sin(t0)) / s
    y = (h1 * np.cos(t0) - h0 * np.cos(t1)) / s
    return np.stack([x, y], axis=-1)


def outer_polygon(dom: SupportDomain, cfg: Configuration) -> OuterPolygon:
    """Circumscribed polygon of a tangency configuration and its signed area."""
    gaps = cfg.gaps()
    if gaps.min() <= 0.0 or gaps.max() >= math.pi:
        raise ValueError("gap violation")
    verts = tangent_intersection(dom, cfg.points, cfg.closed())
    return OuterPolygon(verts, polygon_area(verts))


def polygon_perimeter(vertices: np.ndarray) -> float:
    nxt = np.roll(vertices, -1, axis=0)
    return float(np.sqrt(((nxt - vertices) ** 2).sum(axis=1)).sum())


def polygon_area(vertices: np.ndarray) -> float:
    nxt = np.roll(vertices, -1, axis=0)
    return 0.5 * float(np.sum(vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]))


def config_vertices(dom: SupportDomain, tag: str, cfg: Configuration) -> np.ndarray:
    """Orbit polygon vertices of a configuration, per model convention."""
    if tag == "birkhoff":
        return boundary_xy(dom, 0.5 * (cfg.points + cfg.closed()))
    if tag == "symplectic":
        return boundary_xy(dom, cfg.points)
    if tag in ("outer", "fourth"):
        return outer_polygon(dom, cfg).vertices
    raise ValueError(f"unknown model tag: {tag!r}")


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChordState:
    """Birkhoff state: boundary support angle and incidence angle in (0, pi)."""

    phi: float
    alpha: float


def _bisect(f, lo, hi, flo, iters=80):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def _birkhoff_step(dom: SupportDomain, phi: float, alpha: float):
    c, s = math.cos(phi), math.sin(phi)
    tangent = np.array([-s, c])
    normal = np.array([c, s])
    d = math.cos(alpha) * tangent - math.sin(alpha) * normal
    p0 = boundary_xy(dom, phi)

    def f(psi):
        g = boundary_xy(dom, psi)
        return d[0] * (g[1] - p0[1]) - d[1] * (g[0] - p0[0])

    lo, hi = phi + 1e-9, phi + TWO_PI - 1e-9
    flo = f(lo)
    if (flo > 0) == (f(hi) > 0):
        raise RuntimeError("geometry error")
    psi = _bisect(f, lo, hi, flo)
    t1 = np.array([-math.sin(psi), math.cos(psi)])
    n1 = np.array([math.cos(psi), math.sin(psi)])
    alpha1 = math.atan2(float(d @ n1), float(d @ t1))
    return psi, alpha1


def _symplectic_step(dom: SupportDomain, t0: float, t1: float):
    tangent = np.array([-math.sin(t1), math.cos(t1)])
    p0 = boundary_xy(dom, t0)

    def f(psi):
        g = boundary_xy(dom, psi)
        return tangent[0] * (g[1] - p0[1]) - tangent[1] * (g[0] - p0[0])

    lo, hi = t1 + 1e-9, t1 + math.pi - 1e-9
    flo = f(lo)
    if (flo > 0) == (f(hi) > 0):
        # defensive scan; strict convexity should put the root inside
        grid = np.linspace(lo, t0 + TWO_PI - 1e-9, 256)
        vals = np.array([f(g) for g in grid])
        idx = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        if idx.size == 0:
            raise RuntimeError("geometry error")
        lo, hi, flo = grid[idx[0]], grid[idx[0] + 1], vals[idx[0]]
    t2 = _bisect(f, lo, hi, flo)
    return t1, t2


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
    theta = _bisect(f, lo, hi, f(lo))
    tangency = boundary_xy(dom, theta)
    return 2.0 * tangency - point, theta


def forward_map(dom: SupportDomain, tag: str, state):
    """One step of the billiard map; see ChordState / (t0, t1) / point conventions."""
    if tag == "birkhoff":
        phi, alpha = (state.phi, state.alpha) if isinstance(state, ChordState) else state
        psi, alpha1 = _birkhoff_step(dom, float(phi), float(alpha))
        return ChordState(psi, alpha1)
    if tag == "symplectic":
        t0, t1 = state
        return _symplectic_step(dom, float(t0), float(t1))
    if tag == "outer":
        image, _ = _outer_step(dom, state)
        return image
    raise ValueError(f"forward map not implemented for tag {tag!r}")


def orbit_deviation(dom: SupportDomain, tag: str, cfg: Configuration) -> float:
    """Max distance between a configuration and its forward-map re-iteration.

    The first chord (first two points for symplectic, first vertex and
    incidence for Birkhoff, first polygon vertex for outer) seeds the map.
    """
    p, q = cfg.winding, cfg.q
    if tag == "birkhoff":
        psi = 0.5 * (cfg.points + cfg.closed())  # vertex support angles
        psi_closed = np.append(psi, psi[0] + p * TWO_PI)
        v0 = boundary_xy(dom, psi[0])
        v1 = boundary_xy(dom, psi_closed[1])
        d = (v1 - v0) / np.hypot(*(v1 - v0))
        t0 = np.array([-math.sin(psi[0]), math.cos(psi[0])])
        n0 = np.array([math.cos(psi[0]), math.sin(psi[0])])
        alpha = math.atan2(-float(d @ n0), float(d @ t0))
        cur, dev = (psi[0], alpha), 0.0
        for k in range(1, q + 1):
            cur = _birkhoff_step(dom, cur[0], cur[1])
            dev = max(dev, abs(cur[0] - psi_closed[k]))
        return dev
    if tag == "symplectic":
        x = np.append(cfg.points, [cfg.points[0] + p * TWO_PI, cfg.points[1] + p * TWO_PI])
        dev = 0.0
        cur = (x[0], x[1])
        for k in range(2, q + 2):
            cur = _symplectic_step(dom, cur[0], cur[1])
            dev = max(dev, abs(cur[1] - x[k]))
        return dev
    if tag == "outer":
        verts = outer_polygon(dom, cfg).vertices
        cur, dev = verts[0], 0.0
        for k in range(1, q + 1):
            cur, _ = _outer_step(dom, cur)
            dev = max(dev, float(np.abs(cur - verts[k % q]).max()))
        return dev
    raise ValueError(f"forward map not implemented for tag {tag!r}")


def orbit_rows(dom: SupportDomain, tag: str, cfg: Configuration):
    """CSV-ready orbit dump rows (k, phi_k, x, y) of the orbit polygon."""
    verts = config_vertices(dom, tag, cfg)
    if tag == "birkhoff":
        angles = 0.5 * (cfg.points + cfg.closed())
    else:
        angles = cfg.points
    return [(k, float(angles[k]), float(v[0]), float(v[1])) for k, v in enumerate(verts)]
