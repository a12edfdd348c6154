"""The fused support jet and model jets against term-wise references."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from billiard_beta import rigidity
from billiard_beta.geometry import (
    AffineMap,
    SupportDomain,
    affine_image,
    disk,
    ellipse,
    eval_support,
    support_jet,
)
from billiard_beta.models import MODEL_TAGS, make_system
from billiard_beta.twist import _closed, beta_irrational_result, make_toy_system

TWO_PI = 2 * math.pi


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

    def test_table_memory_is_bounded(self):
        # The ladder's stacked call: 8 rows of q = 721 angles on a rotated
        # 64-mode ellipse.  A table over all 5768 angles alone takes 5.9 MB.
        dom = affine_image(ellipse(1.5, 0.8), AffineMap.rotation(1.1))
        assert dom.n_modes == 64
        phi = np.random.default_rng(3).uniform(0.0, TWO_PI, (8, 721))
        tracemalloc.start()
        try:
            jet = support_jet(dom, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        for row, want in zip(np.moveaxis(jet, 1, 0), phi):
            assert_close(row, support_jet(dom, want), 1e-13)

    @pytest.mark.parametrize("dom", support_domains(), ids=lambda d: f"N{d.n_modes}")
    def test_angle_rounds_alike_in_any_call(self, dom):
        # BLAS rounds a matmul's last partial group of columns another way;
        # the padded table keeps every angle's values independent of the call.
        phi = np.random.default_rng(8).uniform(0.0, TWO_PI, 41)
        full = support_jet(dom, phi)
        for m in range(1, phi.size):
            assert np.array_equal(support_jet(dom, phi[:m]), full[:, :m])
            assert np.array_equal(support_jet(dom, phi[m:]), full[:, m:])
        for k, angle in enumerate(phi):
            assert np.array_equal(support_jet(dom, angle), full[:, k])

    def test_orders_above_three_rejected(self):
        for order in (4, -1):
            with pytest.raises(ValueError, match="order"):
                eval_support(ellipse(2, 1), 0.1, order)
            with pytest.raises(ValueError, match="order"):
                support_jet(ellipse(2, 1), 0.1, order)


def model_systems():
    rng = np.random.default_rng(21)
    doms = [ellipse(1.5, 0.8)] + [rigidity.random_domain(rng) for _ in range(3)]
    return [make_system(dom, tag) for dom in doms for tag in MODEL_TAGS]


def systems():
    """The model systems and three toys (cos and sin terms, sin only, V = 0),
    as pytest params named by system."""
    toys = {
        "toy": make_toy_system([0.02, -0.01], [0.015]),
        "toy-sin": make_toy_system([], [0.01, -0.005]),
        "toy-free": make_toy_system(),
    }
    params = [pytest.param(s, id=s.name) for s in model_systems()]
    return params + [pytest.param(s, id=name) for name, s in toys.items()]


def edges(rng, system, shape):
    x0 = rng.uniform(-3 * system.period, 3 * system.period, shape)
    gap = min(system.max_gap, system.period)
    return x0, x0 + rng.uniform(0.1 * gap, 0.9 * gap, shape)


class TestModelJet:
    @pytest.mark.parametrize("system", systems())
    def test_views_are_jet_components(self, system):
        # the jet returns S and its five partials, each shaped like the edges
        x0, x1 = edges(np.random.default_rng(3), system, (4, 6))
        values = system.jet(x0, x1)
        assert len(values) == 6
        assert all(np.shape(v) == (4, 6) for v in values)

    @pytest.mark.parametrize("system", model_systems(), ids=lambda s: s.name)
    def test_scalar_edges(self, system):
        values = system.jet(0.3, 0.3 + 0.5 * system.max_gap)
        assert all(np.ndim(v) == 0 for v in values)

    @pytest.mark.parametrize("system", systems())
    def test_partials_match_central_differences(self, system):
        x0, x1 = edges(np.random.default_rng(5), system, 40)
        step = 1e-6
        S, S1, S2, S11, S12, S22 = system.jet(x0, x1)

        def diff(index, d0, d1):
            plus = system.jet(x0 + d0, x1 + d1)[index]
            minus = system.jet(x0 - d0, x1 - d1)[index]
            return (plus - minus) / (2 * step)

        assert_close(S1, diff(0, step, 0.0), 1e-6)
        assert_close(S2, diff(0, 0.0, step), 1e-6)
        assert_close(S11, diff(1, step, 0.0), 1e-6)
        assert_close(S12, diff(1, 0.0, step), 1e-6)
        assert_close(S12, diff(2, step, 0.0), 1e-6)
        assert_close(S22, diff(2, 0.0, step), 1e-6)


class TestCyclicJet:
    """cyclic_jet on a closed configuration equals the pairwise jet on its edges."""

    @pytest.mark.parametrize("system", systems())
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_pairwise_jet(self, system, p):
        q = 7  # p / q < 1/2 keeps every gap admissible for each model
        rng = np.random.default_rng(p)
        base = np.arange(q) * (p * system.period / q)
        for shape in ((4, q), (q,)):
            x0 = rng.uniform(-3 * system.period, 3 * system.period, shape[:-1] + (1,))
            x = x0 + base + rng.uniform(-0.05, 0.05, shape) * (system.period / q)
            got = system.cyclic_jet(x, p)
            want = system.jet(x, _closed(x, p, system.period))
            assert len(got) == len(want) == 6
            for g, w in zip(got, want):
                assert_close(g, w, 1e-12)


def oracle_edge(dom, t):
    """h(t), the boundary point gamma(t) = h n + h' tau and the normal n, in mpmath."""
    h, dh = mpmath.mpf(dom.a0), mpmath.mpf(0)
    for n, (a, b) in enumerate(zip(dom.an, dom.bn), start=1):
        c, s = mpmath.cos(n * t), mpmath.sin(n * t)
        h += a * c + b * s
        dh += n * (b * c - a * s)
    c, s = mpmath.cos(t), mpmath.sin(t)
    return h, (h * c - dh * s, h * s + dh * c), (c, s)


def mp_cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def oracle_action(dom, tag, t0, t1):
    """S from its geometric definition; M is the intersection of the tangent lines."""
    h0, g0, (c0, s0) = oracle_edge(dom, t0)
    h1, g1, (c1, s1) = oracle_edge(dom, t1)
    if tag == "symplectic":
        return -mp_cross(g0, g1) / 2
    det = c0 * s1 - s0 * c1
    m = ((h0 * s1 - h1 * s0) / det, (c0 * h1 - c1 * h0) / det)
    if tag == "outer":  # shoelace area of O, gamma0, M, gamma1
        return (mp_cross(g0, m) + mp_cross(m, g1)) / 2
    return mpmath.hypot(m[0] - g0[0], m[1] - g0[1]) + mpmath.hypot(g1[0] - m[0], g1[1] - m[1])


ORACLE_PARTIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))  # S, S1, S2, S11, S12, S22


@pytest.mark.parametrize("tag", ["symplectic", "outer", "fourth"])
@pytest.mark.parametrize("gap", [1e-3, 1e-2, 0.1, 1.0, 3.0])
def test_jet_matches_geometric_oracle(tag, gap):
    """Every component against 40-digit partials of the geometric definition of S."""
    rng = np.random.default_rng(8)
    for dom in rigidity.sample_random_domains(2, seed=8):
        x0 = float(rng.uniform(0.0, TWO_PI))
        x1 = x0 + gap
        got = make_system(dom, tag).jet(x0, x1)
        with mpmath.workdps(40):
            t0, t1 = mpmath.mpf(x0), mpmath.mpf(x1)
            for value, orders in zip(got, ORACLE_PARTIALS):
                ref = float(mpmath.diff(lambda u, v: oracle_action(dom, tag, u, v), (t0, t1), orders))
                assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref)), (orders, value, ref)


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
