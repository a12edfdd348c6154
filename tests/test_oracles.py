"""Independent cross-checks of beta values.

The twist engine is validated against oracles that share none of its code
path: derivative-free polygon optimization over vertex/tangency angles via
scipy, and affine-invariance closed forms on the ellipse.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from billiard_beta import rigidity
from billiard_beta.geometry import boundary_xy, disk, ellipse, eval_support, gutkin
from billiard_beta.models import make_system, tangent_intersection
from billiard_beta.twist import beta_irrational, beta_rational

TWO_PI = 2 * math.pi


def chords_closed(points):
    return np.roll(points, -1, axis=0) - points


def inscribed_perimeter(dom, angles):
    pts = boundary_xy(dom, angles)
    return float(np.hypot(*chords_closed(pts).T).sum())


def inscribed_area(dom, angles):
    pts = boundary_xy(dom, angles)
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]))


def circumscribed(dom, angles, winding):
    closed = np.append(angles[1:], angles[0] + winding * TWO_PI)
    verts = tangent_intersection(dom, angles, closed)
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * float(np.sum(verts[:, 0] * nxt[:, 1] - verts[:, 1] * nxt[:, 0]))
    perim = float(np.hypot(*chords_closed(verts).T).sum())
    return area, perim


def optimize_polygon(objective, q, p, maximize, max_gap=TWO_PI, seeds=8):
    """Derivative-free extremization over phase + gap coordinates (simplex).

    z = (phase, raw gaps); raw gaps are normalized to sum to p*2*pi, and
    inadmissible gaps are rejected with a large penalty.
    """
    sign = -1.0 if maximize else 1.0
    total = p * TWO_PI

    def penalized(z):
        gaps = np.abs(z[1:]) + 1e-12
        gaps = gaps / gaps.sum() * total
        if gaps.max() >= max_gap - 1e-9:
            return 1e9
        angles = z[0] + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        return sign * objective(angles)

    best = math.inf
    for j in range(seeds):
        z0 = np.concatenate(
            [[j * TWO_PI / (q * seeds)], np.full(q, total / q) * (1 + 0.04 * np.sin(np.arange(q) + j))]
        )
        res = scipy_minimize(
            penalized,
            z0,
            method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 40000, "maxfev": 80000},
        )
        best = min(best, res.fun)
    return sign * best


@pytest.fixture(scope="module")
def oracle_dom():
    return rigidity.sample_random_domains(1, seed=99)[0]


class TestScipyPolygonOracles:
    """Compare engine betas with simplex-optimized polygon functionals."""

    def test_birkhoff_max_inscribed_perimeter(self, oracle_dom):
        beta = beta_rational(make_system(oracle_dom, "birkhoff"), 1, 4)
        oracle = optimize_polygon(lambda a: inscribed_perimeter(oracle_dom, a), 4, 1, True)
        assert beta == pytest.approx(-oracle / 4, abs=1e-8)

    def test_symplectic_max_inscribed_area(self, oracle_dom):
        beta = beta_rational(make_system(oracle_dom, "symplectic"), 1, 4)
        oracle = optimize_polygon(lambda a: inscribed_area(oracle_dom, a), 4, 1, True)
        assert beta == pytest.approx(-oracle / 4, abs=1e-8)

    def test_outer_min_circumscribed_area(self, oracle_dom):
        beta = beta_rational(make_system(oracle_dom, "outer"), 1, 4)
        oracle = optimize_polygon(
            lambda a: circumscribed(oracle_dom, a, 1)[0], 4, 1, False, max_gap=math.pi
        )
        assert beta == pytest.approx(oracle / 4, abs=1e-8)

    def test_fourth_min_circumscribed_perimeter(self, oracle_dom):
        beta = beta_rational(make_system(oracle_dom, "fourth"), 1, 4)
        oracle = optimize_polygon(
            lambda a: circumscribed(oracle_dom, a, 1)[1], 4, 1, False, max_gap=math.pi
        )
        assert beta == pytest.approx(oracle / 4, abs=1e-8)

    def test_birkhoff_winding_two(self, oracle_dom):
        beta = beta_rational(make_system(oracle_dom, "birkhoff"), 2, 5)
        oracle = optimize_polygon(lambda a: inscribed_perimeter(oracle_dom, a), 5, 2, True)
        assert beta == pytest.approx(-oracle / 5, abs=1e-8)


class TestEllipseClosedForms:
    """Affine invariance gives exact ellipse betas for the area-type models."""

    @pytest.mark.parametrize("p,q", [(1, 3), (1, 4), (1, 5), (2, 5), (3, 7)])
    def test_symplectic(self, p, q):
        a, b = 2.0, 1.0
        beta = beta_rational(make_system(ellipse(a, b), "symplectic"), p, q)
        assert beta == pytest.approx(-a * b * 0.5 * math.sin(2 * math.pi * p / q), abs=1e-9)

    @pytest.mark.parametrize("p,q", [(1, 3), (1, 4), (1, 5), (2, 5), (3, 7)])
    def test_outer(self, p, q):
        a, b = 2.0, 1.0
        beta = beta_rational(make_system(ellipse(a, b), "outer"), p, q)
        assert beta == pytest.approx(a * b * math.tan(math.pi * p / q), abs=1e-9)

    def test_outer_irrational(self):
        a, b = 1.5, 0.8
        omega = 1 / math.sqrt(10)
        beta = beta_irrational(make_system(ellipse(a, b), "outer"), omega, 1e-6)
        assert beta == pytest.approx(a * b * math.tan(math.pi * omega), abs=2e-6)


class TestRotatedDomain:
    def test_all_models_rotation_invariant(self):
        from billiard_beta.geometry import AffineMap, affine_image

        dom = gutkin(4, 0.05)
        rot = affine_image(dom, AffineMap.rotation(0.83), n_out=32)
        for tag in ("birkhoff", "symplectic", "outer", "fourth"):
            b0 = beta_rational(make_system(dom, tag), 1, 3)
            b1 = beta_rational(make_system(rot, tag), 1, 3)
            assert b1 == pytest.approx(b0, abs=1e-9)


class TestGutkinBirkhoffExpansion:
    def test_single_mode_equispaced_actions(self):
        # with h = 1 + eps cos(n phi) and q not dividing n, the equispaced
        # action at any phase equals the disk value: the mode sum cancels
        dom = gutkin(4, 0.05)
        sys = make_system(dom, "birkhoff")
        for phase in (0.0, 0.3, 1.1):
            x = phase + np.arange(3) * (TWO_PI / 3)
            xn = np.append(x[1:], x[0] + TWO_PI)
            total = float(np.sum(sys.jet(x, xn)[0]))
            assert total == pytest.approx(-3 * math.sqrt(3.0), abs=1e-12)

    def test_beta_below_disk_value(self):
        # the minimum over non-equispaced configurations must beat the disk
        dom = gutkin(4, 0.05)
        beta = beta_rational(make_system(dom, "birkhoff"), 1, 3)
        assert beta < -math.sqrt(3.0) - 1e-6
