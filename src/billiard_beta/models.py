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

Each model is one jet of S and its five partials (see `TwistSystem`): it
evaluates the support jet once per edge end (once at the chord midpoint for
Birkhoff).  The three two-end models are one edge formula of the gap
d = x1 - x0, with a, b the support jets at x0, x1 and r = h + h'' the radius
of curvature:

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
    def jet(x0, x1):
        x0, x1 = np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
        h = support_jet(dom, 0.5 * (x0 + x1), 2)
        d = 0.5 * (x1 - x0)
        s, c = np.sin(d), np.cos(d)
        return [
            -2.0 * h[0] * s,
            -h[1] * s + h[0] * c,
            -h[1] * s - h[0] * c,
            0.5 * (-h[2] * s + 2.0 * h[1] * c + h[0] * s),
            -0.5 * (h[0] + h[2]) * s,
            0.5 * (-h[2] * s - 2.0 * h[1] * c + h[0] * s),
        ]

    return TwistSystem(TWO_PI, TWO_PI, jet, name="birkhoff")


def _two_end_system(name, dom, edge) -> TwistSystem:
    """System whose jet is edge(a, b, d), with a, b the support jets
    [h, h', h'', h'''] at x0, x1 and d = x1 - x0 the gap.

    On a closed configuration the support jet runs once, on x: the x_{k+1} end
    is its cyclic shift, since h is 2 pi-periodic.
    """

    def jet(x0, x1):
        d = np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float)
        return edge(support_jet(dom, x0), support_jet(dom, x1), d)

    def cyclic_jet(x, p):
        a = support_jet(dom, x)
        return edge(a, _roll(a, -1), _closed(x, p, TWO_PI) - x)

    return TwistSystem(TWO_PI, math.pi, jet, name=name, cyclic_jet=cyclic_jet)


def _symplectic_system(dom: SupportDomain) -> TwistSystem:
    # gamma = h n + h' tau and gamma' = r tau in the frame n = (cos, sin), tau = n'
    def edge(a, b, d):
        s, c = np.sin(d), np.cos(d)
        r0, r1 = a[0] + a[2], b[0] + b[2]
        u, v = b[0] * c - b[1] * s, a[0] * c + a[1] * s
        return [
            -0.5 * ((a[0] * b[0] + a[1] * b[1]) * s + (a[0] * b[1] - a[1] * b[0]) * c),
            0.5 * r0 * u,
            -0.5 * r1 * v,
            0.5 * ((a[1] + a[3]) * u + r0 * (b[0] * s + b[1] * c)),
            -0.5 * r0 * r1 * s,
            -0.5 * ((b[1] + b[3]) * v + r1 * (a[1] * c - a[0] * s)),
        ]

    return _two_end_system("symplectic", dom, edge)


def _outer_system(dom: SupportDomain) -> TwistSystem:
    # area of the wedge (O, gamma(x0), M, gamma(x1)) with M the tangent intersection
    def edge(a, b, d):
        inv_s = 1.0 / np.sin(d)
        cot = np.cos(d) * inv_s
        lam0 = -a[1] + b[0] * inv_s - a[0] * cot
        lam1 = b[1] + a[0] * inv_s - b[0] * cot
        r0, r1 = a[0] + a[2], b[0] + b[2]
        return [
            0.5 * (a[0] * lam0 + b[0] * lam1),
            -0.5 * (lam0 * lam0 + a[0] * r0),
            0.5 * (lam1 * lam1 + b[0] * r1),
            lam0 * (r0 - lam0 * cot) - 0.5 * (a[1] * r0 + a[0] * (a[1] + a[3])),
            -lam0 * lam1 * inv_s,
            lam1 * (r1 - lam1 * cot) + 0.5 * (b[1] * r1 + b[0] * (b[1] + b[3])),
        ]

    return _two_end_system("outer", dom, edge)


def _fourth_system(dom: SupportDomain) -> TwistSystem:
    def edge(a, b, d):
        tan = np.tan(0.5 * d)
        total = a[0] + b[0]
        sec2 = 1.0 + tan * tan
        mixed = 0.5 * total * sec2 * tan
        return [
            b[1] - a[1] + total * tan,
            -a[2] + a[1] * tan - 0.5 * total * sec2,
            b[2] + b[1] * tan + 0.5 * total * sec2,
            -a[3] + a[2] * tan - a[1] * sec2 + mixed,
            0.5 * sec2 * (a[1] - b[1]) - mixed,
            b[3] + b[2] * tan + b[1] * sec2 + mixed,
        ]

    return _two_end_system("fourth", dom, edge)


_DISK_BETA = {
    "birkhoff": lambda rho: -2.0 * math.sin(math.pi * rho),
    "symplectic": lambda rho: -0.5 * math.sin(2.0 * math.pi * rho),
    "outer": lambda rho: math.tan(math.pi * rho),
    "fourth": lambda rho: 2.0 * math.tan(math.pi * rho),
}


def beta_disk(tag: str, rho: float) -> float:
    """Closed-form beta of the unit disk for each model, rho in (0, 1/2]
    (rho < 1/2 for outer and fourth, whose disk value blows up at 1/2)."""
    if tag not in _DISK_BETA:
        raise ValueError(f"unknown model tag: {tag!r}")
    if not 0.0 < rho <= 0.5 or (rho == 0.5 and tag in ("outer", "fourth")):
        raise ValueError("rotation number out of range")
    return _DISK_BETA[tag](rho)


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


def orbit_rows(dom: SupportDomain, tag: str, cfg: Configuration):
    """CSV-ready orbit dump rows (k, phi_k, x, y) of the orbit polygon."""
    verts = config_vertices(dom, tag, cfg)
    if tag == "birkhoff":
        angles = 0.5 * (cfg.points + cfg.closed())
    else:
        angles = cfg.points
    return [(k, float(angles[k]), float(v[0]), float(v[1])) for k, v in enumerate(verts)]
