import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from billiard_beta import rigidity, twist
from billiard_beta.geometry import disk, ellipse, squeezed_disk
from billiard_beta.models import MODEL_TAGS, make_system
from billiard_beta.twist import (
    Configuration,
    RotationNumber,
    TwistSystem,
    _evaluate,
    _hull_rows,
    action,
    action_gradient,
    beta_irrational,
    beta_irrational_result,
    beta_rational,
    convergents,
    equispaced_average_action,
    farey_fractions,
    _solve_cyclic,
    make_toy_system,
    minimize_periodic,
    minimize_with_fixed_start,
)

SQ3 = math.sqrt(3.0)


def assert_same_result(res, want):
    """Two BetaResults agree bit for bit."""
    assert (res.beta, res.grad_residual, res.converged) == (want.beta, want.grad_residual, want.converged)
    assert res.config.winding == want.config.winding
    assert np.array_equal(res.config.points, want.config.points)


def equispaced(q, p, period=2 * math.pi, x0=0.0):
    return Configuration(x0 + np.arange(q) * (p * period / q), p, period)


def toy_system(kappa=0.0):
    return make_toy_system([kappa] if kappa else [])


class TestAction:
    def test_birkhoff_disk_triangle(self):
        sys = make_system(disk(1.0), "birkhoff")
        assert action(sys, equispaced(3, 1)) == pytest.approx(-3 * SQ3, abs=1e-12)

    def test_toy_equispaced(self):
        sys = toy_system()
        for p, q in [(1, 3), (2, 5)]:
            cfg = Configuration(0.1 + np.arange(q) * (p / q), p, 1.0)
            assert action(sys, cfg) == pytest.approx(q * (p / q) ** 2 / 2, abs=1e-14)

    def test_period_translation_invariance(self):
        sys = make_system(ellipse(2, 1), "birkhoff")
        cfg = equispaced(5, 2, x0=0.3)
        assert action(sys, cfg.translated(2 * math.pi)) == pytest.approx(action(sys, cfg), abs=1e-12)

    def test_real_translation_on_disk(self):
        sys = make_system(disk(1.0), "symplectic")
        cfg = equispaced(5, 2, x0=0.0)
        assert action(sys, cfg.translated(0.813)) == pytest.approx(action(sys, cfg), abs=1e-12)

    def test_gap_violation(self):
        sys = make_system(disk(1.0), "outer")
        bad = Configuration(np.array([0.0, 0.5, 0.6]), 1, 2 * math.pi)  # wrap gap > pi
        with pytest.raises(ValueError, match="gap violation"):
            action(sys, bad)


class TestGradient:
    def test_equispaced_disk_is_critical(self):
        sys = make_system(disk(1.0), "birkhoff")
        g = action_gradient(sys, equispaced(4, 1, x0=0.37))
        assert np.abs(g).max() < 1e-13

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        doms = [disk(1.0), ellipse(2, 1), rigidity.random_domain(rng)]
        for dom in doms:
            for tag in MODEL_TAGS:
                sys = make_system(dom, tag)
                q = 5
                gap = 2 * math.pi / 5 if tag == "birkhoff" else 0.55
                x = np.cumsum(rng.uniform(0.8, 1.2, q)) * gap
                x = x / (x[-1] + gap) * (2 * math.pi - gap)  # keep wrap gap admissible
                cfg = Configuration(x, 1, 2 * math.pi)
                grad = action_gradient(sys, cfg)
                step = 1e-6
                for k in range(q):
                    plus = x.copy()
                    minus = x.copy()
                    plus[k] += step
                    minus[k] -= step
                    fd = (
                        action(sys, Configuration(plus, 1, 2 * math.pi))
                        - action(sys, Configuration(minus, 1, 2 * math.pi))
                    ) / (2 * step)
                    assert abs(fd - grad[k]) < 1e-5

    def test_toy_gradient_is_potential_derivative(self):
        kappa = 0.07
        sys = toy_system(kappa)
        cfg = Configuration(0.1234 + np.arange(5) * 0.4, 2, 1.0)
        g = action_gradient(sys, cfg)
        V_d = -2 * math.pi * kappa * np.sin(2 * math.pi * cfg.points)
        assert np.abs(g - V_d).max() < 1e-12


class TestEvaluate:
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_hessian_matches_gradient_differences(self, tag):
        sys = make_system(ellipse(1.5, 0.8), tag)
        rng = np.random.default_rng(7)
        q, p = 5, 2
        x = 0.4 + np.arange(q) * (p * 2 * math.pi / q) + rng.uniform(-0.1, 0.1, q)
        act, grad, diag, e = _evaluate(sys, x, p)
        assert act == pytest.approx(action(sys, Configuration(x, p, 2 * math.pi)), abs=1e-12)
        assert np.allclose(grad, action_gradient(sys, Configuration(x, p, 2 * math.pi)), atol=1e-12)
        hess = np.diag(diag)
        for k in range(q):
            hess[k, (k + 1) % q] += e[k]
            hess[(k + 1) % q, k] += e[k]
        step = 1e-6
        for k in range(q):
            dx = np.zeros(q)
            dx[k] = step
            column = (_evaluate(sys, x + dx, p)[1] - _evaluate(sys, x - dx, p)[1]) / (2 * step)
            assert np.allclose(hess[:, k], column, atol=1e-6)


class TestMinimizePeriodic:
    def test_disk_closed_forms(self):
        d = disk(1.0)
        cases = [
            ("birkhoff", 1, 3, -SQ3),
            ("outer", 1, 4, 1.0),
            ("symplectic", 1, 4, -0.5),
            ("fourth", 1, 3, 2 * SQ3),
            ("birkhoff", 1, 2, -2.0),
            ("birkhoff", 2, 5, -2 * math.sin(2 * math.pi / 5)),
        ]
        for tag, p, q, want in cases:
            res = minimize_periodic(make_system(d, tag), p, q)
            assert res.converged
            assert res.beta == pytest.approx(want, abs=1e-10)

    def test_disk_minimizer_is_equispaced(self):
        res = minimize_periodic(make_system(disk(1.0), "birkhoff"), 1, 3)
        gaps = res.config.gaps()
        assert np.abs(gaps - 2 * math.pi / 3).max() < 1e-8

    def test_result_invariants(self):
        res = minimize_periodic(make_system(ellipse(2, 1), "birkhoff"), 1, 3)
        assert res.converged and res.grad_residual < 1e-9
        assert 0.0 <= res.config.points[0] < 2 * math.pi
        payload = res.to_json_dict()
        assert set(payload) == {"beta", "points", "winding", "grad_residual", "converged"}
        import json

        assert json.loads(json.dumps(payload))["winding"] == 1

    def test_inadmissible_rotation(self):
        sys = make_system(disk(1.0), "outer")
        with pytest.raises(ValueError, match="gap violation"):
            minimize_periodic(sys, 1, 2)
        with pytest.raises(ValueError, match="q_max"):
            minimize_periodic(sys, 1, 2001)

    def test_rejects_q_below_two(self):
        # Every solve needs p/q with q >= 2 and p >= 1; q = 1 is never solved.
        toy = toy_system(0.01)
        for p, q in [(0, 1), (1, 1), (0, 3), (-1, 3)]:
            with pytest.raises(ValueError, match="q >= 2"):
                minimize_periodic(toy, p, q)
        with pytest.raises(ValueError, match="q >= 2"):
            minimize_with_fixed_start(toy, 1, 1, 0.0)
        for p, q in [(0, 4), (0, 0)]:
            with pytest.raises(ValueError, match="q >= 2"):
                beta_rational(toy, p, q)

    def test_no_converged_start_reports_lowest_residual(self, monkeypatch):
        # Every start stops unconverged where it began; start 1 has the lowest residual.
        sys = make_system(ellipse(2, 1), "birkhoff")
        residuals = [3e-3, 1e-4, 5e-2, 2e-4, 7e-3, 4e-4, 9e-4, 6e-3]

        def unconverged(sys, rows, p, pin=False):
            assert len(rows) == len(residuals)
            actions = _evaluate(sys, rows, p)[0]
            return [(x, float(act), res, False) for x, act, res in zip(rows, actions, residuals)]

        monkeypatch.setattr(twist, "_newton_phase", unconverged)
        res = minimize_periodic(sys, 1, 3)
        assert not res.converged
        assert res.grad_residual == 1e-4
        row = _hull_rows(Configuration([0.0], 1, 2 * math.pi), 1, 3)[1]
        assert np.array_equal(res.config.points, row)
        assert res.beta == float(_evaluate(sys, row, 1)[0]) / 3

    def test_deterministic(self):
        sys = make_system(ellipse(2, 1), "symplectic")
        r1 = minimize_periodic(sys, 1, 3)
        r2 = minimize_periodic(sys, 1, 3)
        assert r1.beta == r2.beta
        assert np.array_equal(r1.config.points, r2.config.points)

    # Solves that a Newton accepting only residual decreases left stalled at
    # residuals of 5e-5 to 8e-5.
    @pytest.mark.parametrize(
        "n, seed, index, tag, p, q, want",
        [(4, 3, 1, "fourth", 8, 21, 5.0854206930), (8, 5, 0, "outer", 12, 29, 3.5846928303)],
    )
    def test_stalled_solve_converges(self, n, seed, index, tag, p, q, want):
        sys = make_system(rigidity.sample_random_domains(n, seed)[index], tag)
        res = minimize_periodic(sys, p, q)
        assert res.converged
        assert abs(res.beta - want) < 1e-9
        _, _, diag, e = _evaluate(sys, res.config.points, p)
        assert _solve_cyclic(diag, e, np.zeros(q))[1]


def noisy(system, seed):
    """The system with S multiplied by 1 + 1e-15 * noise: rounding-level changes only."""
    rng = np.random.default_rng(seed)

    def jet(x0, x1):
        out = system.jet(x0, x1)
        out[0] = out[0] * (1.0 + 1e-15 * rng.standard_normal(np.shape(out[0])))
        return out

    return TwistSystem(system.period, system.max_gap, jet, name=system.name)


class TestDegenerateFamily:
    # On ellipse(2, 1) at 1/3 every phase is minimal for these models, so the
    # converged starts' actions agree up to rounding.
    @pytest.mark.parametrize("tag", ["symplectic", "outer", "fourth"])
    def test_reported_member_ignores_rounding(self, tag):
        sys = make_system(ellipse(2, 1), tag)
        results = [minimize_periodic(noisy(sys, seed), 1, 3) for seed in range(4)]
        results.append(minimize_periodic(sys, 1, 3))
        first = results[0].config.points[0]
        for res in results:
            assert res.converged
            assert res.beta == pytest.approx(results[0].beta, abs=1e-12)
            assert abs(res.config.points[0] - first) < 1e-6


class TestSolveCyclic:
    @staticmethod
    def system(q):
        rng = np.random.default_rng(q)
        return rng.uniform(3.0, 5.0, q), rng.uniform(-1.0, 1.0, q), rng.standard_normal(q)

    @staticmethod
    def dense(diag, e):
        q = diag.size
        out = np.diag(diag)
        for k in range(q):
            out[k, (k + 1) % q] += e[k]
            out[(k + 1) % q, k] += e[k]
        return out

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 117, 721])
    def test_matches_dense_solve(self, q):
        diag, e, rhs = self.system(q)
        want = np.linalg.solve(self.dense(diag, e), rhs)
        x, ok = _solve_cyclic(diag, e, rhs)
        assert ok
        assert np.abs(x - want).max() < 1e-12

    @pytest.mark.parametrize("q", [2, 3, 9, 117])
    def test_smallest_pivot_gives_inertia(self, q):
        # Diagonal shifts that leave the spectrum half a unit above zero, put
        # every eigenvalue below zero or only the lowest one; plus a diagonal
        # of random sign.
        diag, e, rhs = self.system(q)
        lam = np.linalg.eigvalsh(self.dense(diag, e))
        shifts = [lam[0] - 0.5, lam[-1] + 0.5, 0.5 * (lam[0] + lam[1])]
        cases = [diag - c for c in shifts] + [np.random.default_rng(q).uniform(-2.0, 2.0, q)]
        definite = [np.linalg.eigvalsh(self.dense(d, e)).min() > 0.0 for d in cases]
        assert definite[:3] == [True, False, False]
        for d, want in zip(cases, definite):
            assert _solve_cyclic(d, e, rhs)[1] == want

    @pytest.mark.parametrize("q, pinned", [(2, 0), (5, 0), (5, 2), (5, 4)])
    def test_pinned_row_returns_rhs(self, q, pinned):
        # Newton's pinned rows: diagonal 1 and both couplings zeroed
        diag, e, rhs = self.system(q)
        diag[pinned] = 1.0
        e[pinned] = e[pinned - 1] = 0.0
        x, ok = _solve_cyclic(diag, e, rhs)
        assert ok and x[pinned] == rhs[pinned]

    # a zero Schur complement at q = 2 and (exactly, rows 0 and 2 equal) at
    # q = 3; a zero pivot d_1 inside the forward pass at q = 4
    @pytest.mark.parametrize(
        "diag, e",
        [
            ([1.0, 1.0], [0.5, 0.5]),
            ([1.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
            ([1.0, 0.25, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5]),
        ],
    )
    def test_singular_is_rejected(self, diag, e):
        assert not _solve_cyclic(np.array(diag), np.array(e), np.ones(len(diag)))[1]

    @pytest.mark.parametrize("q", [2, 3, 5, 17, 117])
    def test_stacked_rejects_exactly_the_indefinite_rows(self, q):
        # One call on a stack of definite and indefinite systems: the
        # indefinite rows are rejected and every other row solves on its own.
        rng = np.random.default_rng(q)
        diag, e, rhs = rng.uniform(3.0, 5.0, (6, q)), rng.uniform(-1.0, 1.0, (6, q)), rng.standard_normal((6, q))
        shifts = [np.linalg.eigvalsh(self.dense(d, c)) for d, c in zip(diag, e)]
        diag[1] -= shifts[1][-1] + 0.5  # negative definite
        diag[4] -= 0.5 * (shifts[4][0] + shifts[4][1])  # one negative eigenvalue
        diag[5] = rng.uniform(-2.0, 2.0, q)
        definite = np.array([np.linalg.eigvalsh(self.dense(d, c)).min() > 0.0 for d, c in zip(diag, e)])
        assert definite[[0, 2, 3]].all() and not definite[[1, 4]].any()
        x, ok = _solve_cyclic(diag, e, rhs)
        assert x.shape == (6, q) and np.array_equal(ok, definite)
        for k in np.flatnonzero(definite):
            want = np.linalg.solve(self.dense(diag[k], e[k]), rhs[k])
            assert np.abs(x[k] - want).max() < 1e-12


class TestBatchedNewton:
    """Newton on a stack of start rows against one Newton per row."""

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_stacked_rows_match_single_rows(self, tag):
        for dom in rigidity.sample_random_domains(3, 0):
            sys = make_system(dom, tag)
            for p, q in [(1, 3), (2, 5), (7, 17)]:
                rows = _hull_rows(Configuration([0.0], 1, sys.period), p, q)
                stacked = twist._newton_phase(sys, rows, p)
                single = [twist._newton_phase(sys, row[None, :], p)[0] for row in rows]
                for (x, act, res, ok), (x1, act1, res1, ok1) in zip(stacked, single):
                    assert (act, res, ok) == (act1, res1, ok1)
                    assert np.array_equal(x, x1)


class TestBatchedRationals:
    """minimize_rationals: one Newton array per denominator against one solve per rational."""

    SYSTEMS = [("toy", "toy", None)] + [
        (tag, name, dom) for name, dom in [("ellipse", ellipse(2, 1)),
                                           *((f"random{i}", rigidity.sample_random_domains(4, 5)[i]) for i in (0, 2))]
        for tag in MODEL_TAGS
    ]

    @staticmethod
    def system(tag, dom):
        return make_toy_system([0.02, 0.005], [0.01]) if dom is None else make_system(dom, tag)

    @pytest.mark.parametrize("tag, name, dom", SYSTEMS, ids=[n if n == t else f"{t}-{n}" for t, n, _ in SYSTEMS])
    def test_matches_one_solve_per_rational(self, tag, name, dom):
        sys = self.system(tag, dom)
        grid = farey_fractions(11, include_half=False)
        order = np.random.default_rng(4).permutation(len(grid))
        rationals = [grid[i] for i in order]
        rationals.insert(5, rationals[17])  # one duplicate
        results = twist.minimize_rationals(sys, rationals)
        assert len(results) == len(rationals)
        straight = Configuration([0.0], 1, sys.period)
        for (p, q), res in zip(rationals, results):
            assert (res.config.winding, res.config.q) == (p, q)
            one = twist._select(sys, p, q, twist._newton_phase(sys, _hull_rows(straight, p, q), p))
            assert_same_result(res, one)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_result_does_not_depend_on_the_other_rationals(self, tag):
        # squeezed:0.1 at q = 14 once moved residuals when 3/14 shared its array
        for dom in (squeezed_disk(0.1), rigidity.sample_random_domains(4, 5)[1]):
            sys = make_system(dom, tag)
            [alone] = twist.minimize_rationals(sys, [(3, 14)])
            _, shared, _ = twist.minimize_rationals(sys, [(1, 14), (3, 14), (5, 14)])
            assert_same_result(shared, alone)
            x0s = np.linspace(0.0, sys.period / 3, 12, endpoint=False)
            for res, x0 in zip(twist.minimize_pinned(sys, 1, 3, x0s), x0s):
                assert_same_result(res, minimize_with_fixed_start(sys, 1, 3, x0))

    def test_takes_any_iterable(self):
        sys = make_system(ellipse(2, 1), "outer")
        rationals = [(1, 3), (2, 5), (1, 3)]
        got = twist.minimize_rationals(sys, ((p, q) for p, q in rationals))
        assert len(got) == 3
        for res, want in zip(got, twist.minimize_rationals(sys, rationals)):
            assert_same_result(res, want)

    @pytest.mark.parametrize("bad, at", [((1, 2), 2), ((1, 2001), 4), ((0, 5), 0)])
    def test_inadmissible_rational_fails_before_any_solve(self, monkeypatch, bad, at):
        calls = []
        newton = twist._newton_phase

        def counted(*args, **kwargs):
            calls.append(args)
            return newton(*args, **kwargs)

        monkeypatch.setattr(twist, "_newton_phase", counted)
        rationals = [(1, 3), (2, 5), (1, 4), (3, 7)]
        rationals.insert(at, bad)
        with pytest.raises(ValueError, match=f"rotation number {bad[0]}/{bad[1]}|rho = {bad[0]}/{bad[1]}"):
            twist.minimize_rationals(make_system(ellipse(2, 1), "outer"), rationals)
        assert calls == []

    def test_one_rational_is_minimize_periodic(self):
        sys = make_system(ellipse(2, 1), "birkhoff")
        [res] = twist.minimize_rationals(sys, [(2, 7)])
        assert_same_result(res, minimize_periodic(sys, 2, 7))
        assert twist.minimize_rationals(sys, []) == []


class TestFixedStart:
    """Pinned solves against the free multi-start minimum."""

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 5)])
    def test_pinned_bounds_free(self, p, q):
        for dom in rigidity.sample_random_domains(3, seed=5):
            for tag in MODEL_TAGS:
                sys = make_system(dom, tag)
                free = minimize_periodic(sys, p, q)
                for x0 in np.linspace(0.0, sys.period / q, 12, endpoint=False):
                    res = minimize_with_fixed_start(sys, p, q, x0)
                    assert res.converged and res.config.points[0] == x0
                    assert res.beta >= free.beta - 1e-12
                x0 = free.config.points[0]
                own = minimize_with_fixed_start(sys, p, q, x0)
                assert own.converged and own.config.points[0] == x0
                assert abs(own.beta - free.beta) < 1e-12

    def test_pinned_result_is_canonical(self):
        # Pinning one period further along is the same solve, reported with
        # x_0 in [0, period) like every other solve.
        sys = make_system(rigidity.sample_random_domains(1, seed=5)[0], "outer")
        x0 = 0.3
        a = minimize_with_fixed_start(sys, 1, 3, x0)
        b = minimize_with_fixed_start(sys, 1, 3, x0 + 2 * math.pi)
        assert a.converged and b.converged
        assert abs(a.beta - b.beta) < 1e-12
        for res in (a, b):
            assert 0.0 <= res.config.points[0] < 2 * math.pi
        assert np.abs(a.config.points - b.config.points).max() < 1e-12

    def test_rejects_inadmissible(self):
        sys = make_system(disk(1.0), "outer")
        with pytest.raises(ValueError, match="gap violation"):
            minimize_with_fixed_start(sys, 1, 2, 0.0)
        with pytest.raises(ValueError, match="q_max"):
            minimize_with_fixed_start(sys, 1, 2001, 0.0)


class TestBetaIrrational:
    def test_disk_sqrt8(self):
        sys = make_system(disk(1.0), "birkhoff")
        omega = 1 / math.sqrt(8)
        res = beta_irrational_result(sys, omega, 1e-6)
        assert res.converged
        assert res.value == pytest.approx(-2 * math.sin(math.pi * omega), abs=1e-6)
        assert max(q for _, q, _ in res.evaluations) <= 2000

    def test_outer_golden(self):
        sys = make_system(disk(1.0), "outer")
        omega = (math.sqrt(5) - 1) / 4
        assert beta_irrational(sys, omega, 1e-6) == pytest.approx(math.tan(math.pi * omega), abs=1e-6)

    def test_rational_dispatch(self):
        sys = make_system(disk(1.0), "birkhoff")
        assert beta_irrational(sys, 0.25, 1e-6) == pytest.approx(-2 * math.sin(math.pi / 4), abs=1e-12)

    def test_rational_omega_carries_solve_convergence(self, monkeypatch):
        # An exact fraction is solved as that rational; an unconverged solve
        # must not be reported as a converged bracket.
        sys = make_system(rigidity.sample_random_domains(4, 3)[1], "fourth")
        sol = minimize_periodic(sys, 8, 21)
        assert sol.converged and beta_irrational_result(sys, 8 / 21).converged

        def unconverged(sys, p, q):
            return dataclasses.replace(minimize_periodic(sys, p, q), converged=False)

        monkeypatch.setattr(twist, "minimize_periodic", unconverged)
        res = beta_irrational_result(sys, 8 / 21)
        assert not res.converged
        assert res.value == res.lower == res.upper == sol.beta

    def test_unclosed_bracket_is_unconverged(self):
        # 1/3 + 1e-11 has the convergents 1/2 and 1/3 below q = 2000; with one
        # convergent on each side there is an upper chord but no lower bound.
        sys = make_system(disk(1.0), "birkhoff")
        res = beta_irrational_result(sys, 1 / 3 + 1e-11, 1e-6)
        assert [(p, q) for p, q, _ in res.evaluations] == [(1, 2), (1, 3)]
        assert res.lower == -math.inf
        assert res.value == res.upper
        assert not res.converged

    def test_inadmissible_convergent_is_skipped(self):
        # The convergent 1/2 of (3 - sqrt 5)/2 lies at outer's gap limit.
        sys = make_system(ellipse(2, 1), "outer")
        res = beta_irrational_result(sys, (3 - math.sqrt(5)) / 2, 1e-6)
        qs = [q for _, q, _ in res.evaluations]
        assert 2 not in qs and qs[:2] == [3, 5]
        assert res.converged and res.upper - res.lower < 1e-6

    @pytest.mark.parametrize("tag, omega", [("birkhoff", 0.4999912345), ("outer", 0.4999912345),
                                            ("birkhoff", 0.00033312345678)])
    def test_one_sided_convergents_fail_before_any_solve(self, monkeypatch, tag, omega):
        # Below q = 2000, 0.4999912345 has the one convergent 1/2 (above it, and
        # inadmissible for outer) and 0.00033312345678 has none.
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a convergent of an unbracketable omega")

        monkeypatch.setattr(twist, "_minimize_seeded", no_solve)
        with pytest.raises(ValueError, match="q_max = 2000"):
            beta_irrational_result(make_system(disk(1.0), tag), omega, 1e-6)

    def test_convergents_of_pi(self):
        assert convergents(math.pi, 200)[:3] == [(3, 1), (22, 7), (333, 106)]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_fails_fast(self, bad):
        sys = make_system(disk(1.0), "birkhoff")
        with pytest.raises(ValueError, match="tol"):
            beta_irrational_result(sys, 1 / math.sqrt(10), bad)

    def test_unconverged_convergent_unconverges_bracket(self, monkeypatch):
        sys = make_system(ellipse(1.5, 0.8), "outer")
        solve = twist._minimize_seeded

        def fail_at_19(sys, p, q, prev):
            res = solve(sys, p, q, prev)
            return dataclasses.replace(res, converged=False) if q == 19 else res

        assert beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6).converged
        monkeypatch.setattr(twist, "_minimize_seeded", fail_at_19)
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert res.upper - res.lower < 1e-6
        assert not res.converged

    def test_inverted_bracket_is_unconverged(self, monkeypatch):
        # Lowering beta at the convergent 6/19 by 1e-5 makes the convergent
        # values non-convex, so the lower bound ends about 6.8e-9 above the upper one.
        sys = make_system(rigidity.sample_random_domains(4, 3)[3], "fourth")
        solve = twist._minimize_seeded

        def lowered_at_19(sys, p, q, prev):
            res = solve(sys, p, q, prev)
            return dataclasses.replace(res, beta=res.beta - 1e-5) if q == 19 else res

        assert beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6).converged
        monkeypatch.setattr(twist, "_minimize_seeded", lowered_at_19)
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert 1e-9 < res.lower - res.upper < 1e-6
        assert not res.converged


class TestBetaAt:
    def test_one_dispatch_in_input_order(self, monkeypatch):
        # The rationals share one minimize_rationals call; each irrational is
        # its own bracket; the tuples come back in input order.
        sys = make_system(ellipse(2, 1), "outer")
        omega = 1 / math.sqrt(10)
        rotations = [RotationNumber.rational(1, 4), RotationNumber.irrational(omega),
                     RotationNumber.rational(1, 3), RotationNumber.rational(1, 4)]
        batches = []
        batched = twist.minimize_rationals

        def counted(sys, rationals):
            batches.append(list(rationals))
            return batched(sys, rationals)

        monkeypatch.setattr(twist, "minimize_rationals", counted)
        out = twist.beta_at(sys, rotations)
        assert batches == [[(1, 4), (1, 3), (1, 4)]]
        ir = beta_irrational_result(sys, omega)
        assert out[1] == (ir.value, ir.upper - ir.lower, ir.converged, None)
        for i, (p, q) in [(0, (1, 4)), (2, (1, 3)), (3, (1, 4))]:
            want = minimize_periodic(sys, p, q)
            beta, residual, converged, cfg = out[i]
            assert (beta, residual, converged) == (want.beta, want.grad_residual, want.converged)
            assert np.array_equal(cfg.points, want.config.points)


class TestHullSeed:
    @pytest.mark.parametrize("tag, p, q", [("outer", 6, 19), ("birkhoff", 3, 8)])
    def test_resampling_at_own_rotation_number(self, tag, p, q):
        cfg = minimize_periodic(make_system(ellipse(1.5, 0.8), tag), p, q).config
        assert np.abs(_hull_rows(cfg, p, q)[0] - cfg.points).max() < 1e-12

    @pytest.mark.parametrize("family", ["ellipse", "disk"])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_seeded_ladder_matches_scratch(self, monkeypatch, family, tag):
        arrays = self.count_arrays(monkeypatch)
        sys = make_system(ellipse(1.5, 0.8) if family == "ellipse" else disk(1.0), tag)
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert res.converged
        if family == "ellipse" and tag in ("outer", "fourth"):
            assert res.evaluations[-1][1] == 721
            assert [a[:3] for a in arrays if a[0] == 721] == [(721, twist.STARTS, False)]
        for p, q, b in res.evaluations:
            assert abs(b - minimize_periodic(sys, p, q).beta) <= 1e-12

    @staticmethod
    def count_arrays(monkeypatch):
        """Record each Newton array as (q, rows, whether its first rows are the
        STARTS straight-hull rows, whether any row converged)."""
        arrays = []
        newton = twist._newton_phase

        def counted(sys, x, p, pin=False):
            q = np.shape(x)[1]
            straight = _hull_rows(Configuration([0.0], 1, sys.period), p, q)
            out = newton(sys, x, p, pin)
            arrays.append((q, len(x), np.array_equal(x[: twist.STARTS], straight), any(c[3] for c in out)))
            return out

        monkeypatch.setattr(twist, "_newton_phase", counted)
        return arrays

    def test_rejected_seed_is_scratch_solve(self, monkeypatch):
        # Seed rows with a gap at max_gap leave the solvers' strip: every
        # convergent is solved from the straight rows alone, so Newton never
        # sees the seed rows.
        sys = make_system(rigidity.sample_random_domains(4, 3)[0], "symplectic")
        hull_rows = twist._hull_rows
        seeded = []

        def off_strip(cfg, p, q):
            rows = hull_rows(cfg, p, q)
            if cfg.q > 1:
                rows[0, 1] = rows[0, 0] + sys.max_gap
                seeded.append(rows)
            return rows

        monkeypatch.setattr(twist, "_hull_rows", off_strip)
        arrays = self.count_arrays(monkeypatch)
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert len(seeded) == len(res.evaluations) - 1
        assert [a[:3] for a in arrays] == [(q, twist.STARTS, True) for _, q, _ in res.evaluations]
        assert [b for _, _, b in res.evaluations] == [minimize_periodic(sys, p, q).beta for p, q, _ in res.evaluations]

    def test_unconverged_seed_is_scratch_solve(self, monkeypatch):
        # An ordered seed from which no row converges falls back to the
        # straight rows alone.
        solve_rows = twist._solve
        seeded = []

        def seed_fails(sys, p, q, rows):
            sol = solve_rows(sys, p, q, rows)
            if np.array_equal(rows, _hull_rows(Configuration([0.0], 1, sys.period), p, q)):
                return sol
            seeded.append(q)
            return dataclasses.replace(sol, converged=False)

        monkeypatch.setattr(twist, "_solve", seed_fails)
        arrays = self.count_arrays(monkeypatch)
        sys = make_system(rigidity.sample_random_domains(4, 3)[0], "symplectic")
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert res.converged
        qs = [q for _, q, _ in res.evaluations]
        assert seeded == qs[1:]
        assert [a[:3] for a in arrays] == [(qs[0], twist.STARTS, True)] + [
            a for q in qs[1:] for a in ((q, twist.STARTS, False), (q, twist.STARTS, True))]
        assert [b for _, _, b in res.evaluations] == [minimize_periodic(sys, p, q).beta for p, q, _ in res.evaluations]

    @pytest.mark.parametrize("omega", [1 / math.sqrt(10), math.sqrt(2) - 1], ids=["inv-sqrt10", "sqrt2-1"])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    @pytest.mark.parametrize("index", range(4))
    def test_converged_seed_is_kept(self, monkeypatch, index, tag, omega):
        # The first convergent runs the straight rows; each later one runs one
        # Newton array, and a converged seed that ran alone is the result.
        # No convergent ends above its scratch solve (by design at most
        # TOL * (1 + |beta|), _select's margin; at most 7.1e-15 on these 32).
        arrays = self.count_arrays(monkeypatch)
        sys = make_system(rigidity.sample_random_domains(4, 3)[index], tag)
        res = beta_irrational_result(sys, omega, 1e-6)
        arrays = arrays[:]
        assert res.converged
        assert [a[0] for a in arrays] == [q for _, q, _ in res.evaluations]
        assert arrays[0][1:3] == (twist.STARTS, True)
        kept = [a for a in arrays[1:] if not a[2]]
        assert kept and all(a[1:] == (twist.STARTS, False, True) for a in kept)
        for p, q, b in res.evaluations:
            assert b <= minimize_periodic(sys, p, q).beta + 1e-12

    def test_continuation_closes_birkhoff_bracket(self, monkeypatch):
        # The 8 equispaced starts at 12/29 end 7.1e-4 above the minimum that a
        # min-plus DP over a lifted grid finds; the hull seed from the 5/12
        # minimizer reaches it, and the bracket closes.  That seed's hull is
        # not monotone, so it runs in one array with the straight rows and wins.
        arrays = self.count_arrays(monkeypatch)
        sys = make_system(rigidity.sample_random_domains(8, 5)[1], "birkhoff")
        res = beta_irrational_result(sys, math.sqrt(2) - 1, 1e-6)
        assert res.converged
        assert res.lower <= res.upper + twist.TOL * (1.0 + abs(res.upper))
        assert res.upper - res.lower < 1e-6
        beta = {(p, q): b for p, q, b in res.evaluations}
        assert beta[12, 29] == pytest.approx(-1.9526602687, abs=1e-9)
        assert [a[:3] for a in arrays if a[0] == 29] == [(29, 2 * twist.STARTS, True)]
        assert beta[12, 29] < minimize_periodic(sys, 12, 29).beta - 1e-4

    def test_unordered_seed_keeps_scratch_basin(self, monkeypatch):
        # On squeezed(0.1, 0.3) the 6/19 outer minimizer's hull, resampled at
        # 37/117, is not monotone; Newton from it converges 2.6e-5 above the
        # equispaced starts, which would invert the 1/sqrt(10) bracket.  It
        # runs in one array with the straight rows, whose lower beta is kept.
        arrays = self.count_arrays(monkeypatch)
        sys = make_system(squeezed_disk(0.1, 0.3), "outer")
        res = beta_irrational_result(sys, 1 / math.sqrt(10), 1e-6)
        assert res.converged
        assert res.lower <= res.upper + twist.TOL * (1.0 + abs(res.upper))
        assert [a[:3] for a in arrays] == [(3, twist.STARTS, True), (19, twist.STARTS, False),
                                           (117, 2 * twist.STARTS, True)]
        assert res.evaluations[-1] == (37, 117, minimize_periodic(sys, 37, 117).beta)

    @pytest.mark.parametrize("name, tag, omega, arrays", [
        # every seed ordered and kept: only the first convergent runs the straight rows
        ("random-4-3-0", "symplectic", 1 / math.sqrt(10), [(3, 8, True), (19, 8, False), (117, 8, False)]),
        # the unordered outer 37/117 and Birkhoff 12/29 seeds share one array with the straight rows
        ("squeezed", "outer", 1 / math.sqrt(10), [(3, 8, True), (19, 8, False), (117, 16, True)]),
        ("random-8-5-1", "birkhoff", math.sqrt(2) - 1, [(2, 8, True), (5, 8, False), (12, 8, False), (29, 16, True)]),
    ], ids=["ordered", "squeezed-outer", "random-birkhoff"])
    def test_one_newton_array_per_convergent(self, monkeypatch, name, tag, omega, arrays):
        dom = {"random-4-3-0": lambda: rigidity.sample_random_domains(4, 3)[0],
               "squeezed": lambda: squeezed_disk(0.1, 0.3),
               "random-8-5-1": lambda: rigidity.sample_random_domains(8, 5)[1]}[name]()
        made = self.count_arrays(monkeypatch)
        res = beta_irrational_result(make_system(dom, tag), omega, 1e-6)
        assert res.converged
        assert [q for _, q, _ in res.evaluations] == [a[0] for a in arrays]
        assert [a[:3] for a in made] == arrays

    def test_ordered_rows(self):
        # Row i, point 0 sits at phase i of the q * STARTS phases; moving row
        # 1 past row 2 leaves each row ordered but the hull non-monotone.
        rows = _hull_rows(Configuration([0.0], 1, 1.0), 2, 5)
        assert twist._ordered(rows, 2, 1.0)
        rows[1, 0] = rows[2, 0] + 1e-9
        assert twist._ordered(rows[1:2], 2, 1.0) and twist._ordered(rows[2:3], 2, 1.0)
        assert not twist._ordered(rows, 2, 1.0)


class TestEquispacedAverage:
    def test_disk_any_start(self):
        sys = make_system(disk(1.0), "birkhoff")
        for x0 in (0.0, 0.9, 4.2):
            assert equispaced_average_action(sys, 1 / 3, x0) == pytest.approx(-SQ3, abs=1e-12)

    def test_toy_irrational_forgets_potential(self):
        sys = toy_system(0.05)
        omega = 1 / math.sqrt(7)
        assert equispaced_average_action(sys, omega, 0.3) == pytest.approx(omega**2 / 2, abs=1e-10)

    def test_lemma_average_dominates_beta(self):
        rng = np.random.default_rng(23)
        doms = [disk(1.0), ellipse(2, 1)] + [rigidity.random_domain(rng) for _ in range(4)]
        checked = 0
        while checked < 200:
            dom = doms[rng.integers(len(doms))]
            tag = MODEL_TAGS[rng.integers(4)]
            q = int(rng.integers(2, 13))
            p = int(rng.integers(1, q))
            if math.gcd(p, q) != 1 or p / q > 0.49:
                continue
            sys = make_system(dom, tag)
            x0 = float(rng.uniform(0, 2 * math.pi))
            avg = equispaced_average_action(sys, p / q, x0)
            beta = beta_rational(sys, p, q)
            assert avg >= beta - 1e-8
            checked += 1


class TestConvexity:
    def scan(self, sys, include_half):
        grid = farey_fractions(12, include_half=include_half)
        return [(p / q, beta_rational(sys, p, q)) for p, q in grid]

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_disk_beta_convex(self, tag):
        sys = make_system(disk(1.0), tag)
        pts = self.scan(sys, include_half=(tag == "birkhoff"))
        for (r1, b1), (r2, b2), (r3, b3) in zip(pts, pts[1:], pts[2:]):
            chord = b1 + (b3 - b1) * (r2 - r1) / (r3 - r1)
            assert b2 <= chord + 1e-8

    def test_random_domain_beta_convex(self):
        dom = rigidity.sample_random_domains(1, seed=77)[0]
        sys = make_system(dom, "birkhoff")
        pts = self.scan(sys, include_half=True)
        for (r1, b1), (r2, b2), (r3, b3) in zip(pts, pts[1:], pts[2:]):
            chord = b1 + (b3 - b1) * (r2 - r1) / (r3 - r1)
            assert b2 <= chord + 1e-8


class TestToyModel:
    def test_free_beta_is_kinetic(self):
        sys = toy_system()
        for p, q in [(1, 3), (2, 5)]:
            assert beta_rational(sys, p, q) == pytest.approx((p / q) ** 2 / 2, abs=1e-12)

    def test_perturbed_below_free(self):
        sys = toy_system(0.05 / (2 * math.pi))
        assert beta_rational(sys, 1, 3) < 1 / 18

    def test_gap_vanishes_with_potential(self):
        grid = farey_fractions(6)
        max_gaps = []
        for kappa in (0.05, 0.01, 0.002):
            sys = toy_system(kappa)
            max_gaps.append(max((p / q) ** 2 / 2 - beta_rational(sys, p, q) for p, q in grid))
        assert max_gaps[0] > max_gaps[1] > max_gaps[2] > 0

    def test_potential_always_lowers_beta(self):
        rng = np.random.default_rng(9)
        grid = farey_fractions(8)
        potentials = []
        for _ in range(4):
            coeffs = rng.uniform(-0.02, 0.02, 2)
            if np.abs(coeffs).max() < 1e-3:
                coeffs[0] = 0.01
            potentials.append(make_toy_system(coeffs))
        potentials.append(make_toy_system([], [0.01, -0.005]))  # sine terms only
        for sys in potentials:
            gaps = []
            for p, q in grid:
                gap = (p / q) ** 2 / 2 - beta_rational(sys, p, q)
                assert gap >= -1e-10
                gaps.append(gap)
            assert max(gaps) > 1e-6


class TestRotationNumber:
    def test_parse_fraction_reduces(self):
        rho = RotationNumber.parse("4/12")
        assert (rho.p, rho.q) == (1, 3)

    def test_parse_decimal_exact(self):
        rho = RotationNumber.parse("0.25")
        assert rho.is_rational and (rho.p, rho.q) == (1, 4)

    def test_parse_irrational(self):
        rho = RotationNumber.parse(repr(1 / math.sqrt(8)))
        assert not rho.is_rational

    @pytest.mark.parametrize(
        "p, q, reduced", [(1, -3, (-1, 3)), (-1, -3, (1, 3)), (2, -6, (-1, 3)), (0, -4, (0, 1))]
    )
    def test_negative_denominator_moves_to_numerator(self, p, q, reduced):
        rho = RotationNumber.rational(p, q)
        assert (rho.p, rho.q) == reduced
        assert str(rho) == f"{reduced[0]}/{reduced[1]}"

    @pytest.mark.parametrize("p, q", [(1, 3), (617, 1999), (1, 2000), (617, 5000), (700, 2001), (1001, 3000)])
    def test_parse_and_bracket_share_the_fraction_rule(self, monkeypatch, p, q):
        # A float is a rational exactly when it is p/q with q <= Q_MAX, both
        # for the CLI's parser and for the bracket's rational dispatch.
        class Solved(Exception):
            pass

        def solver(kind):
            def solve(sys, p, q, *rest):
                raise Solved(kind, p, q)
            return solve

        monkeypatch.setattr(twist, "minimize_periodic", solver("rational"))
        monkeypatch.setattr(twist, "_minimize_seeded", solver("convergent"))
        rho = RotationNumber.parse(repr(p / q))
        with pytest.raises(Solved) as solved:
            beta_irrational_result(make_system(disk(1.0), "birkhoff"), p / q)
        kind, *pq = solved.value.args
        assert rho.is_rational == (kind == "rational") == (q <= twist.Q_MAX)
        if rho.is_rational:
            assert (rho.p, rho.q) == tuple(pq) == (p, q)
        else:
            assert rho.omega == p / q

    def test_zero_denominator_fails_fast(self):
        with pytest.raises(ValueError, match=r"rotation number 1/0 has a zero denominator"):
            RotationNumber.rational(1, 0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve", [beta_irrational_result, equispaced_average_action])
    def test_non_finite_fails_fast(self, solve, omega):
        with pytest.raises(ValueError, match=rf"rotation number {omega} is not finite"):
            solve(make_system(disk(1.0), "birkhoff"), omega)

    def test_fraction_helpers(self):
        assert RotationNumber.rational(2, 6).value == pytest.approx(float(Fraction(1, 3)))
        assert farey_fractions(5) == [(1, 5), (1, 4), (1, 3), (2, 5), (1, 2)]
