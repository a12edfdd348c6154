import json
import math

import numpy as np
import pytest

from billiard_beta import geometry, rigidity
from billiard_beta.geometry import (
    AffineMap,
    SupportDomain,
    affine_image,
    area,
    boundary_point,
    boundary_xy,
    constant_width,
    disk,
    ellipse,
    eval_support,
    gutkin,
    make_named,
    perimeter,
    radon_check,
    squeezed_disk,
)

TWO_PI = 2 * math.pi


def mode4(eps=0.05):
    an = np.zeros(4)
    an[3] = eps
    return SupportDomain(1.0, an, np.zeros(4))


def quadrature_area(dom):
    """1/2 int (h^2 - h'^2), the trapezoid rule on the domain grid."""
    h, hp = geometry.support_jet(dom, dom.grid(), 1)
    return float(0.5 * np.mean(h * h - hp * hp) * TWO_PI)


def ellipse_perimeter_quadrature(a, b, n=200_000):
    # arclength of (a cos t, b sin t); trapezoid on a periodic integrand
    t = np.linspace(0, TWO_PI, n, endpoint=False)
    return float(np.mean(np.hypot(a * np.sin(t), b * np.cos(t))) * TWO_PI)


class TestEvalSupport:
    def test_disk_constant(self):
        assert eval_support(disk(1.0), 0.7, 0) == pytest.approx(1.0, abs=1e-15)

    def test_second_derivative_mode4(self):
        assert eval_support(mode4(), 0.0, 2) == pytest.approx(-0.8, abs=1e-13)

    def test_first_derivative_mode4(self):
        assert eval_support(mode4(), math.pi / 8, 1) == pytest.approx(-0.2, abs=1e-13)

    def test_finite_difference_consistency(self):
        dom = mode4(0.03)
        rng = np.random.default_rng(0)
        for phi in rng.uniform(0, TWO_PI, 25):
            step = 1e-5
            fd1 = (eval_support(dom, phi + step) - eval_support(dom, phi - step)) / (2 * step)
            fd2 = (
                eval_support(dom, phi + step) - 2 * eval_support(dom, phi) + eval_support(dom, phi - step)
            ) / step**2
            assert fd1 == pytest.approx(eval_support(dom, phi, 1), abs=1e-6)
            # the second central difference carries ~4 eps/h^2 = 4e-6 rounding
            # noise at this step; 1e-5 is the attainable floor
            assert fd2 == pytest.approx(eval_support(dom, phi, 2), abs=1e-5)
            wide = 1e-4  # rounding and truncation balance near eps**(1/4)
            fd2_opt = (
                eval_support(dom, phi + wide) - 2 * eval_support(dom, phi) + eval_support(dom, phi - wide)
            ) / wide**2
            assert fd2_opt == pytest.approx(eval_support(dom, phi, 2), abs=1e-6)


class TestBoundaryPoint:
    def test_disk_north(self):
        bp = boundary_point(disk(1.0), math.pi / 2)
        assert np.allclose(bp.position, [0.0, 1.0], atol=1e-14)
        assert bp.curvature_radius == pytest.approx(1.0)

    def test_shifted_disk(self):
        dom = SupportDomain(2.0, [1.0], [0.0])
        bp = boundary_point(dom, 0.0)
        assert np.allclose(bp.position, [3.0, 0.0], atol=1e-14)

    def test_mode4_point(self):
        bp = boundary_point(mode4(), 0.0)
        assert np.allclose(bp.position, [1.05, 0.0], atol=1e-14)
        assert bp.curvature_radius == pytest.approx(0.25, abs=1e-13)

    def test_support_property(self):
        dom = SupportDomain(1.0, [0.1, 0.02, 0.0, 0.01], [0.0, -0.03, 0.0, 0.005])
        phi = np.linspace(0, TWO_PI, 64, endpoint=False)
        pts = boundary_xy(dom, phi)
        proj = pts[:, 0] * np.cos(phi) + pts[:, 1] * np.sin(phi)
        assert np.abs(proj - eval_support(dom, phi)).max() < 1e-12

    def test_tangent_perpendicular_to_normal(self):
        bp = boundary_point(mode4(), 1.234)
        normal = np.array([math.cos(1.234), math.sin(1.234)])
        assert abs(bp.tangent @ normal) < 1e-14


class TestPerimeterArea:
    def test_disk(self):
        assert perimeter(disk(1.0)) == pytest.approx(TWO_PI, abs=1e-12)
        assert area(disk(1.0)) == pytest.approx(math.pi, abs=1e-12)

    def test_oscillation_does_not_change_perimeter(self):
        assert perimeter(mode4()) == pytest.approx(TWO_PI, abs=1e-12)

    def test_mode4_area_closed_form(self):
        want = math.pi * (1 - 15 * 0.05**2 / 2)
        assert area(mode4()) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("family", ["random", "ellipse", "squeezed", "gutkin"])
    def test_closed_forms_match_quadrature(self, family):
        doms = {
            "random": rigidity.sample_random_domains(6, 2),
            "ellipse": [ellipse(2.0, 1.0), ellipse(1.5, 0.8)],
            "squeezed": [squeezed_disk(0.1), squeezed_disk(0.2, 0.5)],
            "gutkin": [gutkin(4, 0.05), gutkin(7, 0.015), constant_width(0.05)],
        }[family]
        for dom in doms:
            # Cauchy's closed form 2 pi a0 and the support identity on the grid
            assert perimeter(dom) == pytest.approx(TWO_PI * dom.a0, abs=1e-13)
            assert area(dom) == pytest.approx(quadrature_area(dom), abs=1e-13)

    def test_ellipse_perimeter_against_arclength(self):
        dom = ellipse(2.0, 1.0)
        oracle = ellipse_perimeter_quadrature(2.0, 1.0)
        assert perimeter(dom) == pytest.approx(oracle, abs=1e-6)
        assert perimeter(dom) == pytest.approx(9.6884482, abs=1e-6)

    def test_ellipse_area(self):
        assert area(ellipse(2.0, 1.0)) == pytest.approx(TWO_PI, abs=1e-6)

    def test_isoperimetric_inequality(self):
        rng = np.random.default_rng(11)
        doms = [disk(1.0), ellipse(2, 1), mode4(), squeezed_disk(0.1)]
        for _ in range(10):
            an = rng.uniform(-0.5, 0.5, 6) / np.arange(1, 7) ** 3
            an[0] = 0.0
            try:
                doms.append(SupportDomain(1.0, an, np.zeros(6)))
            except ValueError:
                pass
        for dom in doms:
            assert perimeter(dom) ** 2 >= 4 * math.pi * area(dom) - 1e-10

    def test_isoperimetric_equality_only_disk(self):
        d = disk(2.5)
        assert perimeter(d) ** 2 == pytest.approx(4 * math.pi * area(d), abs=1e-10)
        g = gutkin(4, 0.05)
        assert perimeter(g) ** 2 > 4 * math.pi * area(g) + 1e-6


class TestAffine:
    def test_identity(self):
        dom = mode4()
        out = affine_image(dom, AffineMap(np.eye(2)), n_out=16)
        phi = np.linspace(0, TWO_PI, 50)
        assert np.abs(eval_support(out, phi) - eval_support(dom, phi)).max() < 1e-10

    def test_unit_disk_to_ellipse_preserves_area(self):
        out = affine_image(disk(1.0), AffineMap.scaling(2.0, 0.5), n_out=64)
        assert area(out) == pytest.approx(math.pi, abs=1e-8)
        ref = ellipse(2.0, 0.5)
        phi = np.linspace(0, TWO_PI, 64)
        assert np.abs(eval_support(out, phi) - eval_support(ref, phi)).max() < 1e-10

    def test_rotation_is_isometry(self):
        dom = SupportDomain(1.0, [0.05, 0.01, 0.02], [0.0, 0.03, -0.01])
        out = affine_image(dom, AffineMap.rotation(math.pi / 3), n_out=12)
        assert perimeter(out) == pytest.approx(perimeter(dom), abs=1e-10)
        assert area(out) == pytest.approx(area(dom), abs=1e-10)

    def test_determinant_scales_area(self):
        dom = gutkin(3, 0.05)
        amap = AffineMap(np.array([[1.3, 0.2], [-0.1, 0.9]]), np.array([0.1, -0.2]))
        out = affine_image(dom, amap, n_out=96)
        assert area(out) / area(dom) == pytest.approx(amap.det, rel=1e-8)

    def test_translation_only_moves_mode_one(self):
        out = affine_image(disk(1.0), AffineMap(np.eye(2), np.array([0.3, -0.4])), n_out=8)
        assert out.a0 == pytest.approx(1.0, abs=1e-12)
        assert out.an[0] == pytest.approx(0.3, abs=1e-12)
        assert out.bn[0] == pytest.approx(-0.4, abs=1e-12)
        assert np.abs(out.an[1:]).max() < 1e-12

    def test_insufficient_modes(self):
        with pytest.raises(ValueError, match="insufficient modes"):
            affine_image(ellipse(3.0, 1.0), AffineMap.scaling(1.0, 1.0), n_out=2)

    def test_negative_determinant_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestNamedFamilies:
    def test_constant_width_identity(self):
        dom = constant_width(0.05, 3)
        phi = np.linspace(0, TWO_PI, 200)
        widths = eval_support(dom, phi) + eval_support(dom, phi + math.pi)
        assert np.abs(widths - 2.0).max() < 1e-14

    def test_constant_width_needs_odd_mode(self):
        with pytest.raises(ValueError):
            constant_width(0.05, 4)

    def test_gutkin_convexity_margin(self):
        dom = gutkin(4, 0.05)
        grid = dom.grid()
        radius = eval_support(dom, grid, 0) + eval_support(dom, grid, 2)
        assert radius.min() == pytest.approx(0.25, abs=1e-10)

    def test_gutkin_invalid_eps(self):
        with pytest.raises(ValueError, match="nonconvex"):
            gutkin(4, 0.08)

    def test_squeezed_disk_area(self):
        for eps in (0.05, 0.1, 0.2):
            assert area(squeezed_disk(eps)) == pytest.approx(math.pi, abs=1e-10)

    def test_squeezed_disk_flattens_top(self):
        dom = squeezed_disk(0.1)
        assert eval_support(dom, math.pi / 2) < eval_support(dom, 0.0)

    def test_make_named_dispatch(self):
        assert make_named("disk", 2.0).a0 == 2.0
        with pytest.raises(ValueError, match="unknown domain family"):
            make_named("pentagon", 1.0)


class TestRadon:
    def test_disk(self):
        rep = radon_check(disk(1.0))
        assert rep.is_centrally_symmetric and rep.is_radon
        assert rep.max_defect < 1e-12

    def test_ellipse_is_radon(self):
        rep = radon_check(ellipse(2.0, 1.0))
        assert rep.is_centrally_symmetric and rep.max_defect < 1e-8

    def test_odd_mode_not_symmetric(self):
        rep = radon_check(gutkin(3, 0.05))
        assert not rep.is_centrally_symmetric
        assert math.isnan(rep.max_defect)

    def test_even_nondisk_not_radon(self):
        rep = radon_check(gutkin(4, 0.05))
        assert rep.is_centrally_symmetric and not rep.is_radon


class TestSerialization:
    def test_round_trip(self, tmp_path):
        dom = SupportDomain(1.2, [0.05, 0.0, 0.01], [0.0, 0.02, 0.0])
        path = tmp_path / "dom.json"
        geometry.save_domain(dom, str(path))
        loaded = geometry.load_domain(str(path))
        assert loaded.a0 == dom.a0
        assert np.allclose(loaded.an, dom.an) and np.allclose(loaded.bn, dom.bn)

    def test_schema(self):
        payload = json.loads(json.dumps(disk(1.0).to_json_dict()))
        assert payload == {"a0": 1.0, "modes": []}

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match="nonconvex"):
            SupportDomain.from_json_dict({"a0": 1.0, "modes": [[0.0, 0.0], [0.9, 0.0]]})

    @pytest.mark.parametrize(
        "a0, an, bn",
        [(math.nan, [], []), (math.inf, [], []), (1.0, [0.0, math.nan], [0.0, 0.0]), (1.0, [0.0], [-math.inf])],
    )
    def test_non_finite_rejected(self, a0, an, bn):
        with pytest.raises(ValueError, match="a0, an, bn must be finite"):
            SupportDomain(a0, an, bn)
