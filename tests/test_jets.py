"""The fused support jet and model jets against term-wise references."""

import math

import numpy as np
import pytest

from billiard_beta import rigidity
from billiard_beta.geometry import SupportDomain, disk, ellipse, eval_support, support_jet
from billiard_beta.models import MODEL_TAGS, make_system
from billiard_beta.twist import _closed, beta_irrational_result, make_toy_system, quadratic_kinetic, trig_potential

TWO_PI = 2 * math.pi
VIEWS = ("S", "S1", "S2", "S11", "S12", "S22")


def reference_jet(dom, phi, order):
    """h ... h^(order) summed mode by mode with cos/sin, unreduced phi."""
    phi = np.asarray(phi, dtype=float)
    rows = []
    for k in range(order + 1):
        h = np.full(phi.shape, dom.a0 if k == 0 else 0.0)
        for n, (a, b) in enumerate(zip(dom.an, dom.bn), start=1):
            c, s = np.cos(n * phi), np.sin(n * phi)
            # k-th derivatives of cos and sin, without the n^k factor
            dc, ds = ((c, s), (-s, c), (-c, -s), (s, -c))[k % 4]
            h = h + n**k * (a * dc + b * ds)
        rows.append(h)
    return np.array(rows)


def random_modes(rng, n_modes):
    """Convex domain with decaying random modes 1..n_modes."""
    n = np.arange(1, n_modes + 1)
    scale = 0.3 / n**3
    return SupportDomain(1.0, rng.uniform(-1, 1, n_modes) * scale, rng.uniform(-1, 1, n_modes) * scale)


def support_domains():
    rng = np.random.default_rng(12)
    return [
        disk(1.3),
        SupportDomain(1.0, [0.2], [-0.1]),
        rigidity.random_domain(rng),
        random_modes(rng, 8),
        ellipse(1.5, 0.8),
        random_modes(rng, 64),
    ]


def assert_close(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want)))


class TestSupportJet:
    @pytest.mark.parametrize("dom", support_domains(), ids=lambda d: f"N{d.n_modes}")
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_termwise_reference(self, dom, order):
        rng = np.random.default_rng(order)
        phi = rng.uniform(-3 * TWO_PI, 3 * TWO_PI, (5, 7))
        jet = support_jet(dom, phi, order)
        assert jet.shape == (order + 1, 5, 7)
        assert_close(jet, reference_jet(dom, phi, order), 1e-12)
        for scalar in (0.0, -2.5, 17.0):
            jet = support_jet(dom, scalar, order)
            assert jet.shape == (order + 1,)
            assert_close(jet, reference_jet(dom, scalar, order), 1e-12)

    @pytest.mark.parametrize("dom", support_domains(), ids=lambda d: f"N{d.n_modes}")
    def test_eval_support_is_one_row(self, dom):
        phi = np.linspace(-TWO_PI, 2 * TWO_PI, 50)
        jet = support_jet(dom, phi, 3)
        for k in range(4):
            assert_close(eval_support(dom, phi, k), jet[k], 1e-13)
            assert isinstance(eval_support(dom, 0.4, k), float)

    def test_default_order_is_three(self):
        assert support_jet(ellipse(2, 1), np.zeros(3)).shape == (4, 3)

    def test_orders_above_three_rejected(self):
        with pytest.raises(ValueError, match="order"):
            eval_support(ellipse(2, 1), 0.1, 4)
        with pytest.raises(ValueError, match="order"):
            support_jet(ellipse(2, 1), 0.1, 4)


def model_systems():
    rng = np.random.default_rng(21)
    doms = [ellipse(1.5, 0.8)] + [rigidity.random_domain(rng) for _ in range(3)]
    return [make_system(dom, tag) for dom in doms for tag in MODEL_TAGS]


def toy():
    ell, ell_d, ell_dd = quadratic_kinetic()
    return make_toy_system(ell, ell_d, ell_dd, *trig_potential([0.02, -0.01], [0.015]))


def edges(rng, system, shape):
    x0 = rng.uniform(-3 * system.period, 3 * system.period, shape)
    gap = min(system.max_gap, system.period)
    return x0, x0 + rng.uniform(0.1 * gap, 0.9 * gap, shape)


class TestModelJet:
    @pytest.mark.parametrize("system", model_systems() + [toy()], ids=lambda s: s.name)
    def test_views_are_jet_components(self, system):
        x0, x1 = edges(np.random.default_rng(3), system, (4, 6))
        for order, size in ((0, 1), (1, 3), (2, 6)):
            jet = system.jet(x0, x1, order)
            assert len(jet) == size
            for key, value in zip(VIEWS, jet):
                assert_close(value, getattr(system, key)(x0, x1), 1e-12)

    @pytest.mark.parametrize("system", model_systems(), ids=lambda s: s.name)
    def test_scalar_edges(self, system):
        values = system.jet(0.3, 0.3 + 0.5 * system.max_gap, 2)
        assert all(np.ndim(v) == 0 for v in values)

    @pytest.mark.parametrize("system", model_systems() + [toy()], ids=lambda s: s.name)
    def test_partials_match_central_differences(self, system):
        x0, x1 = edges(np.random.default_rng(5), system, 40)
        step = 1e-6
        S, S1, S2, S11, S12, S22 = system.jet(x0, x1, 2)

        def diff(index, d0, d1):
            plus = system.jet(x0 + d0, x1 + d1, 1)[index]
            minus = system.jet(x0 - d0, x1 - d1, 1)[index]
            return (plus - minus) / (2 * step)

        assert_close(S1, diff(0, step, 0.0), 1e-6)
        assert_close(S2, diff(0, 0.0, step), 1e-6)
        assert_close(S11, diff(1, step, 0.0), 1e-6)
        assert_close(S12, diff(1, 0.0, step), 1e-6)
        assert_close(S12, diff(2, step, 0.0), 1e-6)
        assert_close(S22, diff(2, 0.0, step), 1e-6)


class TestCyclicJet:
    """cyclic_jet on a closed configuration equals the pairwise jet on its edges."""

    @pytest.mark.parametrize("system", model_systems() + [toy()], ids=lambda s: s.name)
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_pairwise_jet(self, system, p):
        q = 7  # p / q < 1/2 keeps every gap admissible for each model
        rng = np.random.default_rng(p)
        base = np.arange(q) * (p * system.period / q)
        for shape in ((4, q), (q,)):
            x0 = rng.uniform(-3 * system.period, 3 * system.period, shape[:-1] + (1,))
            x = x0 + base + rng.uniform(-0.05, 0.05, shape) * (system.period / q)
            for order in (0, 1, 2):
                got = system.cyclic_jet(x, p, order)
                want = system.jet(x, _closed(x, p, system.period), order)
                assert len(got) == len(want) == (1, 3, 6)[order]
                for g, w in zip(got, want):
                    assert_close(g, w, 1e-12)


# Brackets of beta(1/sqrt(10)) on ellipse(1.5, 0.8), tol 1e-6, recorded with
# the per-order support evaluation that preceded the fused jets.
LADDER_BRACKETS = {
    "outer": (1.8422717465638685, 1.8422717548955931),
    "fourth": (3.4972067056516534, 3.4972067211014393),
}


@pytest.mark.parametrize("tag", sorted(LADDER_BRACKETS))
def test_irrational_ladder_regression(tag):
    res = beta_irrational_result(make_system(ellipse(1.5, 0.8), tag), 1 / math.sqrt(10), 1e-6)
    ref_lower, ref_upper = LADDER_BRACKETS[tag]
    assert res.converged
    assert res.upper - res.lower < 1e-6
    assert res.lower <= ref_upper and res.upper >= ref_lower
    assert [(p, q) for p, q, _ in res.evaluations] == [(1, 3), (6, 19), (37, 117), (228, 721)]
