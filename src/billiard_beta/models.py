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
jet once per edge end (once at the chord midpoint for Birkhoff).  The three
two-end models are one edge formula of the gap d = x1 - x0, with a, b the
support jets at x0, x1 and r = h + h'' the radius of curvature:

  symplectic  S = -1/2 [(a b + a' b') sin d + (a b' - a' b) cos d],
              S1 = 1/2 r0 (b cos d - b' sin d), S2 = -1/2 r1 (a cos d + a' sin d),
              S12 = -1/2 r0 r1 sin d; S11 and S22 differentiate S1 and S2
              once more, with r' = h' + h'''.
  outer       lambda0 = -a' + b / sin d - a cot d and
              lambda1 = b' + a / sin d - b cot d are the tangent segments;
              S = 1/2 (a lambda0 + b lambda1),
              S1 = -1/2 (lambda0^2 + a r0), S2 = 1/2 (lambda1^2 + b r1),
              S11 = lambda0 (r0 - lambda0 cot d) - 1/2 (a' r0 + a (a' + a''')),
              S12 = -lambda0 lambda1 / sin d,
              S22 = lambda1 (r1 - lambda1 cot d) + 1/2 (b' r1 + b (b' + b''')).
              These rest on d0 lambda0 = lambda0 cot d - r0,
              d1 lambda0 = lambda1 / sin d, d0 lambda1 = -lambda0 / sin d and
              d1 lambda1 = r1 - lambda1 cot d, so no term grows like 1/d^3
              and cancels at small gaps.
  fourth      S = b' - a' + (a + b) tan(d/2), differentiated in tan(d/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SupportDomain, bisect, boundary_xy, eval_support, support_jet
from .twist import Configuration, TwistSystem, _closed, _roll

TWO_PI = 2.0 * math.pi

MODEL_TAGS = ("birkhoff", "symplectic", "outer", "fourth")


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


def _two_end_system(name, dom, edge) -> TwistSystem:
    """System whose jet is edge(a, b, d, order), with a, b the support jets of
    order + 1 at x0, x1 and d = x1 - x0 the gap.

    On a closed configuration the support jet runs once, on x: the x_{k+1} end
    is its cyclic shift, since h is 2 pi-periodic.
    """

    def jet(x0, x1, order):
        d = np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)
        return edge(support_jet(dom, x0, order + 1), support_jet(dom, x1, order + 1), d, order)

    def cyclic_jet(x, p, order):
        a = support_jet(dom, x, order + 1)
        return edge(a, _roll(a, -1), _closed(x, p, TWO_PI) - x, order)

    return TwistSystem(TWO_PI, math.pi, jet, name=name, cyclic_jet=cyclic_jet)


def _symplectic_system(dom: SupportDomain) -> TwistSystem:
    # gamma = h n + h' tau and gamma' = r tau in the frame n = (cos, sin), tau = n'
    def edge(a, b, d, order):
        s, c = np.sin(d), np.cos(d)
        out = [-0.5 * ((a[0] * b[0] + a[1] * b[1]) * s + (a[0] * b[1] - a[1] * b[0]) * c)]
        if order >= 1:
            r0, r1 = a[0] + a[2], b[0] + b[2]
            u, v = b[0] * c - b[1] * s, a[0] * c + a[1] * s
            out += [0.5 * r0 * u, -0.5 * r1 * v]
        if order >= 2:
            out += [
                0.5 * ((a[1] + a[3]) * u + r0 * (b[0] * s + b[1] * c)),
                -0.5 * r0 * r1 * s,
                -0.5 * ((b[1] + b[3]) * v + r1 * (a[1] * c - a[0] * s)),
            ]
        return out

    return _two_end_system("symplectic", dom, edge)


def _outer_system(dom: SupportDomain) -> TwistSystem:
    # area of the wedge (O, gamma(x0), M, gamma(x1)) with M the tangent intersection
    def edge(a, b, d, order):
        inv_s = 1.0 / np.sin(d)
        cot = np.cos(d) * inv_s
        lam0 = -a[1] + b[0] * inv_s - a[0] * cot
        lam1 = b[1] + a[0] * inv_s - b[0] * cot
        out = [0.5 * (a[0] * lam0 + b[0] * lam1)]
        if order >= 1:
            r0, r1 = a[0] + a[2], b[0] + b[2]
            out += [-0.5 * (lam0 * lam0 + a[0] * r0), 0.5 * (lam1 * lam1 + b[0] * r1)]
        if order >= 2:
            out += [
                lam0 * (r0 - lam0 * cot) - 0.5 * (a[1] * r0 + a[0] * (a[1] + a[3])),
                -lam0 * lam1 * inv_s,
                lam1 * (r1 - lam1 * cot) + 0.5 * (b[1] * r1 + b[0] * (b[1] + b[3])),
            ]
        return out

    return _two_end_system("outer", dom, edge)


def _fourth_system(dom: SupportDomain) -> TwistSystem:
    def edge(a, b, d, order):
        tan = np.tan(0.5 * d)
        total = a[0] + b[0]
        out = [b[1] - a[1] + total * tan]
        if order >= 1:
            sec2 = 1.0 + tan * tan
            out += [
                -a[2] + a[1] * tan - 0.5 * total * sec2,
                b[2] + b[1] * tan + 0.5 * total * sec2,
            ]
        if order >= 2:
            mixed = 0.5 * total * sec2 * tan
            out += [
                -a[3] + a[2] * tan - a[1] * sec2 + mixed,
                0.5 * sec2 * (a[1] - b[1]) - mixed,
                b[3] + b[2] * tan + b[1] * sec2 + mixed,
            ]
        return out

    return _two_end_system("fourth", dom, edge)


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
    psi = bisect(f, lo, hi, flo)
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
    t2 = bisect(f, lo, hi, flo)
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
    theta = bisect(f, lo, hi, f(lo))
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
