import math

import numpy as np
import pytest

from billiard_beta import rigidity
from billiard_beta.geometry import affine_image, AffineMap, boundary_xy, disk, ellipse, gutkin
from billiard_beta.models import (
    MODEL_TAGS,
    beta_disk,
    config_vertices,
    forward_map,
    make_system,
    orbit_deviation,
    orbit_rows,
    outer_polygon,
    polygon_area,
    polygon_perimeter,
)
from billiard_beta.twist import Configuration, beta_rational, minimize_periodic

SQ3 = math.sqrt(3.0)
TWO_PI = 2 * math.pi


def equispaced(q, p, x0=0.0):
    return Configuration(x0 + np.arange(q) * (p * TWO_PI / q), p, TWO_PI)


def random_admissible(rng, sys, q, p=1):
    gaps = rng.uniform(0.6, 1.4, q)
    gaps *= p * TWO_PI / gaps.sum()
    while gaps.max() >= sys.max_gap - 1e-3:
        gaps = rng.uniform(0.8, 1.2, q)
        gaps *= p * TWO_PI / gaps.sum()
    return Configuration(np.concatenate([[0.0], np.cumsum(gaps[:-1])]) + rng.uniform(0, TWO_PI), p, TWO_PI)


class TestGeneratingFunctions:
    def test_birkhoff_disk_value(self):
        sys = make_system(disk(1.0), "birkhoff")
        assert sys.jet(0.0, TWO_PI / 3)[0] == pytest.approx(-SQ3, abs=1e-14)

    def test_symplectic_disk_value(self):
        sys = make_system(disk(1.0), "symplectic")
        assert sys.jet(0.0, math.pi / 2)[0] == pytest.approx(-0.5, abs=1e-14)

    def test_fourth_disk_value(self):
        sys = make_system(disk(1.0), "fourth")
        assert sys.jet(0.0, TWO_PI / 3)[0] == pytest.approx(2 * SQ3, abs=1e-13)

    def test_outer_disk_value(self):
        sys = make_system(disk(1.0), "outer")
        assert sys.jet(0.0, math.pi / 2)[0] == pytest.approx(1.0, abs=1e-13)

    def test_twist_sign_everywhere(self):
        rng = np.random.default_rng(31)
        doms = [disk(1.0), ellipse(2, 1)] + [rigidity.random_domain(rng) for _ in range(10)]
        for dom in doms:
            for tag in MODEL_TAGS:
                sys = make_system(dom, tag)
                x0 = rng.uniform(0, TWO_PI, 1000)
                gap = rng.uniform(1e-3, sys.max_gap - 1e-3, 1000)
                assert np.max(sys.jet(x0, x0 + gap)[4]) < 0.0

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(4)
        dom = rigidity.random_domain(rng)
        step = 1e-6
        for tag in MODEL_TAGS:
            sys = make_system(dom, tag)
            for _ in range(25):
                x0 = rng.uniform(0, TWO_PI)
                x1 = x0 + rng.uniform(0.2, sys.max_gap - 0.2)
                exact = sys.jet(x0, x1)

                def fd(index, d0, d1):
                    plus = sys.jet(x0 + d0, x1 + d1)[index]
                    minus = sys.jet(x0 - d0, x1 - d1)[index]
                    return (plus - minus) / (2 * step)

                # (jet index, finite difference): S1, S2, S11, S12, S22
                checks = [(1, fd(0, step, 0)), (2, fd(0, 0, step)), (3, fd(1, step, 0)),
                          (4, fd(1, 0, step)), (5, fd(2, 0, step))]
                for index, approx in checks:
                    assert abs(exact[index] - approx) < 1e-5


class TestOuterPolygon:
    def test_disk_triangle(self):
        poly = outer_polygon(disk(1.0), equispaced(3, 1))
        assert poly.area == pytest.approx(3 * SQ3, abs=1e-12)

    def test_disk_square(self):
        poly = outer_polygon(disk(1.0), equispaced(4, 1))
        assert poly.area == pytest.approx(4.0, abs=1e-12)

    def test_vertices_on_tangent_lines(self):
        dom = gutkin(4, 0.05)
        cfg = equispaced(5, 1, x0=0.31)
        poly = outer_polygon(dom, cfg)
        x = cfg.points
        xn = np.append(x[1:], x[0] + TWO_PI)
        from billiard_beta.geometry import eval_support

        for k in range(5):
            for ang in (x[k], xn[k]):
                proj = poly.vertices[k] @ [math.cos(ang), math.sin(ang)]
                assert abs(proj - eval_support(dom, ang)) < 1e-12

    def test_parallel_tangents_rejected(self):
        with pytest.raises(ValueError, match="gap violation"):
            outer_polygon(disk(1.0), equispaced(2, 1))


class TestBetaDisk:
    def test_values(self):
        assert beta_disk("birkhoff", 1 / 3) == pytest.approx(-SQ3)
        assert beta_disk("outer", 1 / 3) == pytest.approx(SQ3)
        assert beta_disk("fourth", 1 / 4) == pytest.approx(2.0)
        assert beta_disk("symplectic", 1 / 4) == pytest.approx(-0.5)
        assert beta_disk("birkhoff", 0.5) == pytest.approx(-2.0)

    def test_range_errors(self):
        for tag, rho in [("birkhoff", 0.0), ("outer", 0.5), ("fourth", 0.6), ("symplectic", -0.1)]:
            with pytest.raises(ValueError):
                beta_disk(tag, rho)


class TestActionGeometryConsistency:
    """Periodic action sums against independently computed polygon quantities."""

    def converged(self, dom, tag, p, q):
        return minimize_periodic(make_system(dom, tag), p, q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_birkhoff_action_is_negative_perimeter(self, seed):
        dom = rigidity.sample_random_domains(1, seed=seed)[0]
        res = self.converged(dom, "birkhoff", 1, 5)
        verts = config_vertices(dom, "birkhoff", res.config)
        assert -5 * res.beta == pytest.approx(polygon_perimeter(verts), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symplectic_action_is_negative_area(self, seed):
        dom = rigidity.sample_random_domains(1, seed=seed)[0]
        res = self.converged(dom, "symplectic", 1, 5)
        verts = config_vertices(dom, "symplectic", res.config)
        assert -5 * res.beta == pytest.approx(polygon_area(verts), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fourth_action_is_circumscribed_perimeter(self, seed):
        dom = rigidity.sample_random_domains(1, seed=seed)[0]
        res = self.converged(dom, "fourth", 1, 5)
        verts = outer_polygon(dom, res.config).vertices
        assert 5 * res.beta == pytest.approx(polygon_perimeter(verts), abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outer_action_is_circumscribed_area(self, seed):
        rng = np.random.default_rng(seed)
        dom = rigidity.random_domain(rng)
        sys = make_system(dom, "outer")
        cfg = random_admissible(rng, sys, 5)
        from billiard_beta.twist import action

        assert action(sys, cfg) == pytest.approx(outer_polygon(dom, cfg).area, abs=1e-12)

    def test_symplectic_identity_for_any_config(self):
        rng = np.random.default_rng(8)
        dom = rigidity.random_domain(rng)
        sys = make_system(dom, "symplectic")
        cfg = random_admissible(rng, sys, 6)
        from billiard_beta.twist import action

        verts = boundary_xy(dom, cfg.points)
        assert action(sys, cfg) == pytest.approx(-polygon_area(verts), abs=1e-12)


class TestForwardMaps:
    def test_birkhoff_disk_advances_by_2alpha(self):
        phi, alpha = forward_map(disk(1.0), "birkhoff", (0.0, math.pi / 3))
        assert phi == pytest.approx(TWO_PI / 3, abs=1e-11)
        assert alpha == pytest.approx(math.pi / 3, abs=1e-11)

    def test_symplectic_disk_preserves_gap(self):
        t1, t2 = forward_map(disk(1.0), "symplectic", (0.0, math.pi / 2))
        assert t2 - t1 == pytest.approx(math.pi / 2, abs=1e-11)

    def test_symplectic_disk_wide_gap(self):
        gap = 2.0  # > pi/2 exercises the root window
        t1, t2 = forward_map(disk(1.0), "symplectic", (0.0, gap))
        assert t2 - t1 == pytest.approx(gap, abs=1e-10)

    @pytest.mark.parametrize(
        "dom, tag, state",
        [
            (disk(1.0), "symplectic", (0.0, 4.0)),
            (disk(1.0), "symplectic", (0.0, math.pi)),
            (ellipse(2, 1), "symplectic", (0.0, -1.0)),
            (disk(1.0), "symplectic", (1.0, 1.0)),
            (disk(1.0), "birkhoff", (0.0, -math.pi / 3)),
            (disk(1.0), "birkhoff", (0.0, 0.0)),
            (disk(1.0), "birkhoff", (0.0, 4.0)),
        ],
    )
    def test_states_outside_phase_space_rejected(self, dom, tag, state):
        with pytest.raises(ValueError, match=r"\(0, pi\)"):
            forward_map(dom, tag, state)

    def test_outer_disk_preserves_radius(self):
        pt = np.array([math.sqrt(2.0), 0.0])
        img = forward_map(disk(1.0), "outer", pt)
        assert np.hypot(*img) == pytest.approx(math.sqrt(2.0), abs=1e-11)

    @pytest.mark.parametrize("tag", ["birkhoff", "symplectic", "outer"])
    def test_variational_orbits_iterate(self, tag):
        rng = np.random.default_rng(14)
        doms = [disk(1.0), ellipse(2, 1), rigidity.random_domain(rng)]
        for dom in doms:
            res = minimize_periodic(make_system(dom, tag), 2, 5)
            assert res.converged
            assert orbit_deviation(dom, tag, res.config) < 1e-7


class TestAffineEquivariance:
    def test_symplectic_and_outer_beta_invariant(self):
        dom = gutkin(4, 0.05)
        amap = AffineMap(np.array([[1.2, 0.3], [0.1, 1.03 / 1.2]]))
        assert abs(amap.det - 1.0) < 1e-15
        dom_a = affine_image(dom, amap, n_out=96)
        for tag in ("symplectic", "outer"):
            b = beta_rational(make_system(dom, tag), 1, 3)
            b_a = beta_rational(make_system(dom_a, tag), 1, 3)
            assert abs(b - b_a) < 1e-7


class TestOrbitRows:
    def test_rows_shape_and_tangency(self):
        dom = disk(1.0)
        res = minimize_periodic(make_system(dom, "outer"), 1, 3)
        rows = orbit_rows(dom, "outer", res.config)
        assert len(rows) == 3
        k, phi, x, y = rows[0]
        assert k == 0 and np.hypot(x, y) == pytest.approx(2.0, abs=1e-9)
