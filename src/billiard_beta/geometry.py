"""Strictly convex planar domains represented by truncated Fourier support functions.

A domain is encoded by its support function

    h(phi) = a0 + sum_{n=1}^{N} (a_n cos(n phi) + b_n sin(n phi)),

the signed distance from the origin to the tangent line with outer normal
(cos phi, sin phi).  The boundary point with that normal is

    gamma(phi) = h(phi) (cos phi, sin phi) + h'(phi) (-sin phi, cos phi),

and the radius of curvature there is h + h''.  Everything in this module is a
pure function of immutable `SupportDomain` values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
# Highest derivative of h the support jet provides; the model Hessians need the third.
MAX_SUPPORT_ORDER = 3
# Most angles in one e^{i n phi} table of the support jet: a 64-mode table
# then takes 1 MB however many angles a call evaluates.
TABLE_BLOCK = 1024


def _grid_size(n_modes: int) -> int:
    # resolves the highest mode with >= 16 samples
    return max(1024, 16 * n_modes)


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1).copy()
    arr.setflags(write=False)
    return arr


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SupportDomain:
    """Convex domain given by a truncated Fourier support function.

    Construction checks that every coefficient is finite, then validates, on
    a uniform grid of max(1024, 16 N) angles, that h > 0 (origin inside) and
    h + h'' > 0 (strict convexity); invalid coefficients raise ValueError.
    Instances are immutable and safe to share across threads.
    """

    a0: float
    an: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bn: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        an = _readonly(self.an)
        bn = _readonly(self.bn)
        if an.size != bn.size:
            raise ValueError("an and bn must have equal length")
        a0 = float(self.a0)
        if not (math.isfinite(a0) and np.isfinite(an).all() and np.isfinite(bn).all()):
            raise ValueError("support coefficients a0, an, bn must be finite")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "an", an)
        object.__setattr__(self, "bn", bn)
        h, _, hpp = support_jet(self, self.grid(), 2)
        if not (h.min() > 0.0 and (h + hpp).min() > 0.0):
            raise ValueError("nonconvex parameters")

    @property
    def n_modes(self) -> int:
        return int(self.an.size)

    @cached_property
    def _jet_coefficients(self) -> np.ndarray:
        """Row k holds c_n (i n)^k, c_n = a_n - i b_n, for k = 0..MAX_SUPPORT_ORDER.

        Computed once per domain, on its first evaluation, not once per call.
        """
        n = np.arange(1, self.n_modes + 1, dtype=float)
        c = self.an - 1j * self.bn
        return np.stack([c * ((1, 1j, -1, -1j)[k] * n**k) for k in range(MAX_SUPPORT_ORDER + 1)])

    def grid(self) -> np.ndarray:
        """Validation grid used for all quadrature on this domain."""
        return np.linspace(0.0, TWO_PI, _grid_size(self.n_modes), endpoint=False)

    def to_json_dict(self) -> dict:
        return {"a0": self.a0, "modes": [[a, b] for a, b in zip(self.an, self.bn)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SupportDomain":
        modes = data.get("modes", []) if isinstance(data, dict) else None
        if not (isinstance(modes, list) and _is_number(data.get("a0")) and set(data) <= {"a0", "modes"}
                and all(isinstance(m, list) and len(m) == 2 and all(map(_is_number, m)) for m in modes)):
            raise ValueError("a domain file must be a JSON object with a numeric a0 "
                             "and modes as [a_n, b_n] pairs, and no other keys")
        an = [m[0] for m in modes]
        bn = [m[1] for m in modes]
        return cls(float(data["a0"]), np.array(an), np.array(bn))


@dataclass(frozen=True)
class BoundaryPoint:
    phi: float
    position: np.ndarray
    tangent: np.ndarray
    curvature_radius: float


@dataclass(frozen=True)
class AffineMap:
    """Orientation-preserving affine map x -> linear @ x + translation."""

    linear: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        lin = np.array(self.linear, dtype=float).reshape(2, 2)
        tr = np.array(self.translation, dtype=float).reshape(2)
        if np.linalg.det(lin) <= 0.0:
            raise ValueError("linear part must have positive determinant")
        lin.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    @classmethod
    def rotation(cls, angle: float) -> "AffineMap":
        c, s = math.cos(angle), math.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))

    @classmethod
    def scaling(cls, sx: float, sy: float) -> "AffineMap":
        return cls(np.array([[sx, 0.0], [0.0, sy]]))


def support_jet(dom: SupportDomain, phi, order: int = MAX_SUPPORT_ORDER) -> np.ndarray:
    """h, h', ..., h^(order) at the angles phi, shape (order + 1, *phi.shape).

    With c_n = a_n - i b_n, h^(k) = a0 [k = 0] + Re sum_n c_n (i n)^k e^{i n phi}.
    A table of e^{i n phi}, n = 1..N, serves every order through a single
    complex matmul.  The table is built in place from e^{i phi} (phi reduced
    mod 2 pi) by repeated products: rows n+1..n+m are rows 1..m times row n.
    The table covers TABLE_BLOCK angles at a time, in one buffer that every
    block reuses, so it holds at most N * TABLE_BLOCK values however many
    angles the call evaluates.
    """
    if not 0 <= order <= MAX_SUPPORT_ORDER:
        raise ValueError(f"support derivative order must lie in 0..{MAX_SUPPORT_ORDER}")
    phi_arr = np.asarray(phi, dtype=float)
    out = np.zeros((order + 1, phi_arr.size))
    out[0] = dom.a0
    n_modes = dom.n_modes
    if n_modes:
        angles = np.mod(phi_arr.reshape(-1), TWO_PI)
        buffer = np.empty(n_modes * min(angles.size, TABLE_BLOCK), dtype=complex)
        for start in range(0, angles.size, TABLE_BLOCK):
            block = angles[start : start + TABLE_BLOCK]
            table = buffer[: n_modes * block.size].reshape(n_modes, block.size)
            np.exp(1j * block, out=table[0])
            done = 1
            while done < n_modes:
                m = min(done, n_modes - done)
                np.multiply(table[:m], table[done - 1], out=table[done : done + m])
                done += m
            out[:, start : start + block.size] += (dom._jet_coefficients[: order + 1] @ table).real
    return out.reshape(order + 1, *phi_arr.shape)


def eval_support(dom: SupportDomain, phi, order: int = 0):
    """Evaluate h or one derivative, up to MAX_SUPPORT_ORDER: row `order` of `support_jet`."""
    out = support_jet(dom, phi, order)[order]
    return float(out) if out.ndim == 0 else out


def boundary_xy(dom: SupportDomain, phi):
    """Boundary points for an array of support angles, shape (..., 2)."""
    phi_arr = np.asarray(phi, dtype=float)
    h, hp = support_jet(dom, phi_arr, 1)
    c, s = np.cos(phi_arr), np.sin(phi_arr)
    return np.stack([h * c - hp * s, h * s + hp * c], axis=-1)


def boundary_point(dom: SupportDomain, phi: float) -> BoundaryPoint:
    phi = float(phi)
    h, hp, hpp = support_jet(dom, phi, 2)
    c, s = math.cos(phi), math.sin(phi)
    pos = np.array([h * c - hp * s, h * s + hp * c])
    return BoundaryPoint(phi, pos, np.array([-s, c]), float(h + hpp))


def perimeter(dom: SupportDomain) -> float:
    """Boundary length, the Cauchy integral of h over one turn."""
    grid = dom.grid()
    return float(eval_support(dom, grid, 0).mean() * TWO_PI)


def area(dom: SupportDomain) -> float:
    """Enclosed area pi (a0^2 + 1/2 sum (1 - n^2)(a_n^2 + b_n^2)): the support
    identity |Omega| = 1/2 int (h^2 - h'^2) summed mode by mode (Parseval)."""
    n = np.arange(1, dom.n_modes + 1, dtype=float)
    return math.pi * (dom.a0**2 + 0.5 * float(((1 - n * n) * (dom.an**2 + dom.bn**2)).sum()))


def project_to_modes(samples: np.ndarray, n_out: int, rel_tol: float = 1e-8):
    """Fit a0 and n_out Fourier modes to uniform samples of a support function.

    Raises ValueError("insufficient modes") when the discarded tail carries
    more than rel_tol of the oscillatory energy.
    """
    m = samples.size
    if n_out >= m // 2:
        raise ValueError("insufficient modes")
    coeffs = np.fft.rfft(samples)
    a0 = float(coeffs[0].real) / m
    an = 2.0 * coeffs[1 : n_out + 1].real / m
    bn = -2.0 * coeffs[1 : n_out + 1].imag / m
    tail = np.abs(coeffs[n_out + 1 :]) ** 2
    total = np.abs(coeffs[1:]) ** 2
    denom = float(total.sum())
    if denom > 0 and float(tail.sum()) > rel_tol * denom:
        raise ValueError("insufficient modes")
    return a0, an, bn


def affine_image(dom: SupportDomain, amap: AffineMap, n_out: int = 64) -> SupportDomain:
    """Support function of amap(domain), projected to n_out Fourier modes."""
    m = _grid_size(max(n_out, dom.n_modes))
    psi = np.linspace(0.0, TWO_PI, m, endpoint=False)
    u = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    v = u @ amap.linear  # rows are A^T u
    norm = np.hypot(v[:, 0], v[:, 1])
    ang = np.arctan2(v[:, 1], v[:, 0])
    samples = norm * eval_support(dom, ang, 0) + u @ amap.translation
    a0, an, bn = project_to_modes(samples, n_out)
    return SupportDomain(a0, an, bn)


def scaled(dom: SupportDomain, factor: float) -> SupportDomain:
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return SupportDomain(factor * dom.a0, factor * dom.an, factor * dom.bn)


def disk(radius: float = 1.0) -> SupportDomain:
    return SupportDomain(radius)


ELLIPSE_MODES = 64


def ellipse(a: float, b: float) -> SupportDomain:
    """Ellipse with semi-axes a, b: h = sqrt(a^2 cos^2 + b^2 sin^2), projected."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"ellipse semi-axes must be positive, got {a!r}, {b!r}")
    m = _grid_size(ELLIPSE_MODES)
    phi = np.linspace(0.0, TWO_PI, m, endpoint=False)
    samples = np.sqrt((a * np.cos(phi)) ** 2 + (b * np.sin(phi)) ** 2)
    a0, an, bn = project_to_modes(samples, ELLIPSE_MODES, rel_tol=1e-12)
    return SupportDomain(a0, an, bn)


def gutkin(n: int, eps: float) -> SupportDomain:
    """One-mode perturbation h = 1 + eps cos(n phi); convex iff |eps|(n^2-1) < 1."""
    if n < 2:
        raise ValueError("gutkin mode must satisfy n >= 2")
    an = np.zeros(n)
    an[n - 1] = eps
    return SupportDomain(1.0, an, np.zeros(n))


def constant_width(eps: float, n: int = 3) -> SupportDomain:
    """Odd single-mode domain of constant width 2: h = 1 + eps cos(n phi), n odd."""
    if n % 2 == 0 or n < 3:
        raise ValueError("constant width requires an odd mode n >= 3")
    return gutkin(n, eps)


SQUEEZE_SIGMA = 0.35
SQUEEZE_MODES = 48


def squeezed_disk(eps: float, sigma: float = SQUEEZE_SIGMA) -> SupportDomain:
    """Unit disk flattened near phi = pi/2, rescaled back to area pi.

    The dent is the smooth periodic cap bump(phi) = exp(-(1 - cos(phi - pi/2)) / sigma^2).
    """
    if not sigma > 0.0:
        raise ValueError(f"squeeze width sigma must be positive, got {sigma!r}")
    m = _grid_size(SQUEEZE_MODES)
    phi = np.linspace(0.0, TWO_PI, m, endpoint=False)
    bump = np.exp(-(1.0 - np.cos(phi - 0.5 * math.pi)) / sigma**2)
    a0, an, bn = project_to_modes(1.0 - eps * bump, SQUEEZE_MODES, rel_tol=1e-12)
    raw = SupportDomain(a0, an, bn)
    return scaled(raw, math.sqrt(math.pi / area(raw)))


_NAMED = {
    "disk": disk,
    "ellipse": ellipse,
    "gutkin": gutkin,
    "constant_width": constant_width,
    "squeezed_disk": squeezed_disk,
}


def make_named(family: str, *params) -> SupportDomain:
    try:
        builder = _NAMED[family]
    except KeyError:
        raise ValueError(f"unknown domain family: {family!r}") from None
    return builder(*params)


def bisect(f, lo, hi, flo):
    """Midpoint bisection of sign changes of f in the brackets [lo, hi], flo = f(lo).

    The brackets are scalars or arrays (f then acts elementwise); all are
    halved together until every one is narrower than 1e-13, at most 80 times.
    Returns the bracket midpoints, a float for a scalar bracket.
    """
    lo, hi, flo = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), np.asarray(flo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        same = (fm > 0) == (flo > 0)
        lo, flo, hi = np.where(same, mid, lo), np.where(same, fm, flo), np.where(same, hi, mid)
        if (hi - lo).max() < 1e-13:
            break
    mid = 0.5 * (lo + hi)
    return float(mid) if mid.ndim == 0 else mid


@dataclass(frozen=True)
class RadonReport:
    is_centrally_symmetric: bool
    max_defect: float
    is_radon: bool
    tol: float


def radon_check(dom: SupportDomain, tol: float = 1e-8) -> RadonReport:
    """Test symmetry of Birkhoff orthogonality on a centrally symmetric curve.

    For each grid angle phi, find phi* with gamma(phi*) parallel to the
    tangent at gamma(phi) and measure how far gamma(phi) is from being
    parallel to the tangent at gamma(phi*) (angle defect mod pi).  Domains
    with odd Fourier modes are reported non-symmetric and not scanned.
    """
    odd = slice(0, dom.n_modes, 2)  # indices 0,2,... hold modes n=1,3,...
    odd_amp = 0.0
    if dom.n_modes:
        odd_amp = float(max(np.abs(dom.an[odd]).max(), np.abs(dom.bn[odd]).max()))
    if odd_amp >= tol:
        return RadonReport(False, math.nan, False, tol)

    def support_dot(psi, phi):
        # <gamma(psi), (cos phi, sin phi)>
        h, hp = support_jet(dom, psi, 1)
        return h * np.cos(psi - phi) - hp * np.sin(psi - phi)

    phi = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    lo, hi = phi + 1e-12, phi + math.pi - 1e-12
    psi = bisect(lambda t: support_dot(t, phi), lo, hi, support_dot(lo, phi))
    pos = boundary_xy(dom, phi)
    ang_pos = np.arctan2(pos[:, 1], pos[:, 0])
    ang_tan = psi + 0.5 * math.pi
    defect = np.abs((ang_pos - ang_tan + 0.5 * math.pi) % math.pi - 0.5 * math.pi)
    max_defect = float(defect.max())
    return RadonReport(True, max_defect, max_defect < tol, tol)


def load_domain(path: str) -> SupportDomain:
    with open(path, "r", encoding="utf-8") as fh:
        return SupportDomain.from_json_dict(json.load(fh))


def save_domain(dom: SupportDomain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dom.to_json_dict(), fh)
        fh.write("\n")
