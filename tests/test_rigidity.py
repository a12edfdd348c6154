import math
from fractions import Fraction

import numpy as np
import pytest

from billiard_beta import rigidity
from billiard_beta.geometry import constant_width, disk, ellipse, gutkin, scaled, squeezed_disk
from billiard_beta.models import make_system
from billiard_beta.rigidity import (
    constant_width_equality,
    gutkin_equality_check,
    gutkin_roots,
    in_R,
    invariant_curve_spread,
    outer_counterexample,
    outer_quarter_relation,
    outer_rigidity_theorem,
    outer_third_relation,
    run_inequality_suite,
    sine_equation_root_free,
    triangle_midpoint_property,
    verify_main_inequality,
)
from billiard_beta.twist import RotationNumber, beta_irrational_result, beta_rational

SQ3 = math.sqrt(3.0)


def rho(p, q):
    return RotationNumber.rational(p, q)


class TestMainInequalities:
    @pytest.mark.parametrize("theorem", ["T4.2", "T4.3", "T4.4"])
    def test_disk_saturates(self, theorem):
        rep = verify_main_inequality(disk(1.0), theorem, rho(1, 3))
        assert rep.holds and rep.equality and abs(rep.gap) < 1e-8

    def test_ellipse_saturates_symplectic_only(self):
        eq = verify_main_inequality(ellipse(2, 1), "T4.3", rho(1, 3))
        assert eq.equality
        for theorem in ("T4.2", "T4.4"):
            rep = verify_main_inequality(ellipse(2, 1), theorem, rho(1, 3))
            assert rep.holds and not rep.equality and rep.gap > 1e-3

    def test_irrational_rotation_uses_bracket(self):
        # An irrational rho is bracketed; lhs is the bracket value and the
        # residual its width.
        omega = 1 / math.sqrt(10)
        rep = verify_main_inequality(ellipse(2, 1), "T4.3", RotationNumber.irrational(omega, 1e-6))
        assert rep.converged and rep.holds and rep.equality
        ir = beta_irrational_result(make_system(ellipse(2, 1), "symplectic"), omega, 1e-6)
        assert rep.lhs == ir.value
        assert rep.meta["residual"] == ir.upper - ir.lower

    def test_gutkin_strict(self):
        rep = verify_main_inequality(gutkin(4, 0.05), "T4.2", rho(1, 3))
        assert rep.holds and rep.gap > 1e-6

    def test_small_random_suite(self):
        domains = rigidity.sample_random_domains(8, seed=3)
        reports = run_inequality_suite(domains, [(1, 3), (1, 4), (2, 5), (1, 2)])
        assert all(r.holds and r.converged for r in reports)
        assert all(r.gap >= -1e-8 for r in reports)
        # random Fourier domains are never disk-like, so no equality may fire
        for r in reports:
            assert not r.equality

    def test_equality_detection_criterion(self):
        domains = rigidity.sample_random_domains(8, seed=3)
        for dom in domains:
            assert rigidity.nontrivial_fourier_energy(dom) > 1e-10


class TestGutkinRoots:
    def test_low_modes_empty(self):
        assert gutkin_roots(2).roots == ()
        assert gutkin_roots(3).roots == ()

    def test_mode_four_root(self):
        roots = gutkin_roots(4).roots
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.atan(math.sqrt(5.0)) / math.pi, abs=1e-12)

    def test_mode_five_root(self):
        roots = gutkin_roots(5).roots
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.atan(math.sqrt(5.0 / 3.0)) / math.pi, abs=1e-12)

    def test_root_on_a_grid_point(self, monkeypatch):
        # At n = 4, R(s) = 20 - 4 s vanishes at s = 5: a grid value of exactly
        # 5.0 has sign 0 there, and its root is reported once, as a delta.
        grid = rigidity._root_grid(4)
        grid[np.searchsorted(grid, 5.0)] = 5.0
        monkeypatch.setattr(rigidity, "_root_grid", lambda n: grid)
        assert gutkin_roots.__wrapped__(4).roots == (math.atan(math.sqrt(5.0)) / math.pi,)

    @pytest.mark.parametrize("n", range(2, 25))
    def test_one_root_per_full_branch(self, n):
        # tan(n x) - n tan(x) changes sign once on each full branch of
        # tan(n x) inside (0, pi/2): (n - 2) // 2 roots
        assert len(gutkin_roots(n).roots) == (n - 2) // 2

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_roots_satisfy_tangent_equation(self, n):
        for delta in gutkin_roots(n).roots:
            assert abs(math.tan(n * math.pi * delta) - n * math.tan(math.pi * delta)) < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 12, 17, 32, 64])
    def test_roots_satisfy_pole_free_form(self, n):
        # k(delta) = n cos(n pi d) sin(pi d) - sin(n pi d) cos(pi d) stays
        # conditioned near delta -> 1/2, unlike the raw tangent difference
        for delta in gutkin_roots(n).roots:
            k = n * math.cos(n * math.pi * delta) * math.sin(math.pi * delta) - math.sin(
                n * math.pi * delta
            ) * math.cos(math.pi * delta)
            assert abs(k) < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_roots_look_irrational(self, n):
        for delta in gutkin_roots(n).roots:
            for q in range(2, 51):
                p = round(delta * q)
                if 0 < p < q:
                    assert abs(delta - p / q) > 1e-6

    def test_in_R(self):
        assert in_R(1 / 3, n_max=32)
        assert in_R(0.1, n_max=32)
        assert not in_R(gutkin_roots(4).roots[0], n_max=4)

    def test_sine_equation_has_no_roots(self):
        assert sine_equation_root_free(64)


class TestGutkinEquality:
    def test_equality_at_root(self):
        rep = gutkin_equality_check(4, 0.02)
        assert rep.converged
        assert abs(rep.gap) < 3e-6
        assert rep.meta["criticality_residual"] < 1e-9

    def test_criticality_residual_larger_eps(self):
        rep = gutkin_equality_check(4, 0.05)
        assert rep.meta["criticality_residual"] < 1e-9

    def test_disk_limit(self):
        res = rigidity.equispaced_criticality_residual(disk(1.0), 0.3661)
        assert res < 1e-14

    def test_zero_eps_is_disk(self):
        rep = gutkin_equality_check(4, 0.0)
        assert rep.equality and rep.meta["criticality_residual"] < 1e-14


class TestConstantWidth:
    def test_odd_mode_saturates_at_half(self):
        rep = constant_width_equality(constant_width(0.05, 3))
        assert rep.meta["is_constant_width"]
        assert rep.lhs == pytest.approx(-2.0, abs=1e-10)
        assert rep.rhs == pytest.approx(-2.0, abs=1e-12)
        assert rep.equality

    def test_max_chord_oracle(self):
        # beta(1/2) equals minus the widest chord, found by a dense double scan
        dom = constant_width(0.05, 3)
        from billiard_beta.geometry import boundary_xy

        phi = np.linspace(0, 2 * math.pi, 720, endpoint=False)
        pts = boundary_xy(dom, phi)
        chord = max(
            float(np.hypot(*(pts[i] - pts[j])))
            for i in range(0, 720, 8)
            for j in range(i + 1, 720, 8)
        )
        rep = constant_width_equality(dom)
        assert rep.lhs == pytest.approx(-chord, abs=1e-4)

    def test_disk(self):
        rep = constant_width_equality(disk(1.0))
        assert rep.equality and rep.lhs == pytest.approx(-2.0, abs=1e-10)

    def test_ellipse_strict(self):
        rep = constant_width_equality(ellipse(2, 1))
        assert not rep.meta["is_constant_width"]
        assert rep.lhs == pytest.approx(-4.0, abs=1e-8)
        assert rep.rhs == pytest.approx(-3.0839289, abs=1e-6)
        assert rep.holds and not rep.equality


class TestOuterRelations:
    def test_third_relation_disk_equality(self):
        rep = outer_third_relation(disk(1.0))
        assert rep.holds and rep.equality
        assert rep.meta["beta_outer"] == pytest.approx(SQ3, abs=1e-9)
        assert rep.meta["beta_symplectic"] == pytest.approx(-SQ3 / 4, abs=1e-9)

    def test_third_relation_ellipse_equality(self):
        rep = outer_third_relation(ellipse(2, 1))
        assert rep.equality and abs(rep.lhs) < 1e-7

    def test_third_relation_gutkin_strict(self):
        rep = outer_third_relation(gutkin(4, 0.05))
        assert rep.holds and rep.lhs < -1e-6

    def test_quarter_relation_disk(self):
        rep = outer_quarter_relation(disk(1.0))
        assert rep.equality
        assert rep.meta["beta_outer"] == pytest.approx(1.0, abs=1e-9)
        assert rep.meta["beta_symplectic"] == pytest.approx(-0.5, abs=1e-9)
        assert rep.meta["half_area_defect"] < 1e-9

    def test_quarter_relation_ellipse(self):
        rep = outer_quarter_relation(ellipse(2, 1))
        assert rep.equality and rep.meta["half_area_defect"] < 1e-9

    def test_quarter_relation_squeezed(self):
        rep = outer_quarter_relation(squeezed_disk(0.1))
        assert rep.holds and rep.lhs <= 1e-8
        assert rep.meta["half_area_defect"] < 1e-9

    def test_triangle_midpoint_property(self):
        for dom in (disk(1.0), ellipse(2, 1), rigidity.sample_random_domains(1, seed=6)[0]):
            assert triangle_midpoint_property(dom) < 1e-9


class TestCounterexample:
    def test_squeezed_disk_margin(self):
        rep = outer_counterexample(squeezed_disk(0.1), Fraction(1, 4))
        assert rep.lhs < rep.rhs - 1e-4
        assert rep.meta["direction"] == "counterexample"

    def test_disk_equality(self):
        rep = outer_counterexample(disk(1.0), Fraction(1, 4))
        assert rep.equality

    def test_ellipse_third_equality(self):
        rep = outer_counterexample(ellipse(2, 1), Fraction(1, 3))
        assert rep.equality and abs(rep.gap) < 1e-7

    def test_ellipse_third_direction_is_equality(self):
        assert outer_counterexample(ellipse(2, 1), Fraction(1, 3)).meta["direction"] == "equality"

    def test_gutkin_third_direction_is_reversed(self):
        rep = outer_counterexample(gutkin(4, 0.05), Fraction(1, 3))
        assert rep.meta["direction"] == "reversed"
        assert rep.gap == pytest.approx(-0.0251, abs=1e-4)

    def test_rejects_other_rationals(self):
        with pytest.raises(ValueError):
            outer_counterexample(disk(1.0), Fraction(1, 5))

    def test_rejects_float_near_quarter(self):
        # no rounding to a nearby fraction: only 1/3 and 1/4 themselves
        with pytest.raises(ValueError, match=r"stated for rho in \{1/3, 1/4\}"):
            outer_counterexample(disk(1.0), 0.2500001)


class TestOuterRigidity:
    def test_disk_third(self):
        rep = outer_rigidity_theorem(disk(1.0), Fraction(1, 3))
        assert rep.meta["hypothesis_certified"] and rep.equality

    def test_ellipse_quarter(self):
        rep = outer_rigidity_theorem(ellipse(2, 1), Fraction(1, 4))
        assert rep.meta["hypothesis_certified"] and rep.equality and rep.holds

    def test_squeezed_disk_fails_hypothesis(self):
        rep = outer_rigidity_theorem(squeezed_disk(0.1), Fraction(1, 4))
        assert not rep.meta["hypothesis_certified"]

    def test_accepts_the_float_third(self):
        # the float rule of outer_counterexample: float(Fraction(1, 3)) is 1/3
        rep = outer_rigidity_theorem(disk(1.0), float(Fraction(1, 3)))
        assert rep.theorem == "T6.4" and rep.rho == pytest.approx(1 / 3)
        assert rep.meta["hypothesis_certified"] and rep.equality

    def test_spread_values(self):
        assert invariant_curve_spread(disk(1.0), "outer", 1, 3) < 1e-10
        assert invariant_curve_spread(ellipse(2, 1), "symplectic", 1, 4) < 1e-8


class TestScalingCovariance:
    def test_beta_scales_with_domain(self):
        dom = gutkin(4, 0.05)
        lam = 1.7
        dom_l = scaled(dom, lam)
        for tag, power in [("birkhoff", 1), ("fourth", 1), ("symplectic", 2), ("outer", 2)]:
            b = beta_rational(make_system(dom, tag), 1, 4)
            b_l = beta_rational(make_system(dom_l, tag), 1, 4)
            assert abs(b_l / b - lam**power) < 1e-8 * lam**power


class TestReportShape:
    def test_json_payload(self):
        rep = verify_main_inequality(disk(1.0), "T4.2", rho(1, 4))
        payload = rep.to_json_dict()
        for key in ("theorem", "rho", "lhs", "rhs", "gap", "holds", "equality", "converged"):
            assert key in payload

    def test_gap_orientation(self):
        rep = verify_main_inequality(gutkin(4, 0.05), "T4.2", rho(1, 3))
        assert rep.gap == pytest.approx(rep.rhs - rep.lhs)
        assert rep.holds == (rep.gap >= -1e-8)

    @pytest.mark.parametrize(
        "verify, orientation",
        [
            (lambda: verify_main_inequality(squeezed_disk(0.1), "T4.3", rho(2, 5)), "rhs - lhs"),
            (lambda: gutkin_equality_check(4, 0.05), "rhs - lhs"),
            (lambda: constant_width_equality(ellipse(2, 1)), "rhs - lhs"),
            (lambda: outer_counterexample(gutkin(4, 0.05), Fraction(1, 3)), "rhs - lhs"),
            (lambda: outer_rigidity_theorem(squeezed_disk(0.1), Fraction(1, 3)), "lhs - rhs"),
            (lambda: outer_rigidity_theorem(squeezed_disk(0.1), Fraction(1, 4)), "lhs - rhs"),
            (lambda: outer_third_relation(gutkin(4, 0.05)), "-lhs"),
            (lambda: outer_quarter_relation(squeezed_disk(0.1)), "-lhs"),
        ],
        ids=["T4.3", "gutkin", "constwidth", "CE6.5", "T6.4", "T6.10", "C6.3", "P6.9"],
    )
    def test_gap_orientation_of_every_verifier(self, verify, orientation):
        rep = verify()
        assert rep.gap != 0.0  # a zero gap would pin no orientation
        if orientation == "-lhs":
            assert rep.rhs == 0.0 and rep.gap == -rep.lhs
        else:
            assert rep.gap == (rep.rhs - rep.lhs if orientation == "rhs - lhs" else rep.lhs - rep.rhs)
        assert rep.holds == (rep.gap >= -1e-8)
