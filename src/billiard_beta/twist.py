"""Generic Aubry-Mather engine for twist-map generating functions.

Given a generating function S(x0, x1) with partial derivatives, the minimal
average action at a rational rotation number p/q is found by minimizing the
periodic action

    A(x) = sum_{k=0}^{q-1} S(x_k, x_{k+1}),   x_q = x_0 + p * period,

over cyclically ordered configurations.  Irrational rotation numbers are
bracketed through continued-fraction convergents using convexity of the
minimal average action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np


# TwistSystem view -> (jet order, index of the component in the jet)
_JET_VIEWS = {"S": (0, 0), "S1": (1, 1), "S2": (1, 2), "S11": (2, 3), "S12": (2, 4), "S22": (2, 5)}


def _jet_view(jet: Callable, order: int, index: int) -> Callable:
    return lambda x0, x1: jet(x0, x1, order)[index]


def _pairwise_cyclic_jet(jet: Callable, period: float) -> Callable:
    return lambda x, p, order: jet(x, _closed(x, p, period), order)


@dataclass(frozen=True)
class TwistSystem:
    """Generating-function system on a periodic parameter line.

    jet(x0, x1, order) evaluates the generating function and its partials on
    numpy arrays of edge ends: [S] for order 0, [S, S1, S2] for order 1 and
    [S, S1, S2, S11, S12, S22] for order 2.  S must satisfy
    S(x0 + period, x1 + period) = S(x0, x1) and have negative mixed second
    derivative (positive twist) on the admissible strip 0 < x1 - x0 < max_gap.

    cyclic_jet(x, p, order), the only jet the engine calls, equals
    jet(x, _closed(x, p, period), order) on configurations x (last axis), and
    is that by default.  A model may compute it from one evaluation on x.

    The fields S ... S22 are single-component views of jet, filled in when
    not given.
    """

    period: float
    max_gap: float
    jet: Callable
    name: str = ""
    cyclic_jet: Callable = None
    S: Callable = None
    S1: Callable = None
    S2: Callable = None
    S11: Callable = None
    S12: Callable = None
    S22: Callable = None

    def __post_init__(self):
        if self.cyclic_jet is None:
            object.__setattr__(self, "cyclic_jet", _pairwise_cyclic_jet(self.jet, self.period))
        for key, (order, index) in _JET_VIEWS.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, _jet_view(self.jet, order, index))


@dataclass(frozen=True)
class RotationNumber:
    """Rational p/q in lowest terms, or an irrational target with tolerance."""

    p: int = 0
    q: int = 0
    omega: float = math.nan
    tol: float = 1e-6

    def __post_init__(self):
        if self.q:
            g = math.gcd(self.p, self.q)
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)

    @property
    def is_rational(self) -> bool:
        return self.q != 0

    @property
    def value(self) -> float:
        return self.p / self.q if self.is_rational else self.omega

    @classmethod
    def rational(cls, p: int, q: int) -> "RotationNumber":
        return cls(p=p, q=q)

    @classmethod
    def irrational(cls, omega: float, tol: float = 1e-6) -> "RotationNumber":
        return cls(omega=float(omega), tol=tol)

    @classmethod
    def parse(cls, text: str, tol: float = 1e-6) -> "RotationNumber":
        text = text.strip()
        if "/" in text:
            p_str, q_str = text.split("/", 1)
            return cls.rational(int(p_str), int(q_str))
        value = float(text)
        frac = Fraction(value).limit_denominator(10**6)
        if float(frac) == value:
            return cls.rational(frac.numerator, frac.denominator)
        return cls.irrational(value, tol)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.is_rational else repr(self.omega)


@dataclass(frozen=True)
class Configuration:
    """Cyclically ordered q-point configuration with winding number."""

    points: np.ndarray
    winding: int
    period: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float).reshape(-1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def q(self) -> int:
        return int(self.points.size)

    def closed(self) -> np.ndarray:
        """Successor points x_1 ... x_q, closed by x_q = x_0 + winding * period."""
        return _closed(self.points, self.winding, self.period)

    def gaps(self) -> np.ndarray:
        return self.closed() - self.points

    def translated(self, shift: float) -> "Configuration":
        return Configuration(self.points + shift, self.winding, self.period)


@dataclass(frozen=True)
class BetaResult:
    beta: float
    config: Configuration
    grad_residual: float
    starts_tried: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "beta": float(self.beta),
            "points": [float(v) for v in self.config.points],
            "winding": self.config.winding,
            "grad_residual": float(self.grad_residual),
            "converged": bool(self.converged),
        }


# Solver constants.  TOL is the Newton residual target relative to
# 1 + |A|/q; hull-function seeds are used only below a residual of SWITCH_TOL.
TOL = 1e-10
SWITCH_TOL = 1e-4
MAX_NEWTON_ITER = 80
JITTER = 1e-3  # start jitter, as a fraction of the equispaced gap
GAP_MIN_FRAC = 1e-9  # smallest gap kept by the solvers, as a fraction of the period
Q_MAX = 2000  # largest denominator solved or used in a bracket


@dataclass(frozen=True)
class MinimizeOptions:
    starts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")


def _closed(x: np.ndarray, p: int, period: float) -> np.ndarray:
    """Successors x_{k+1} along the last axis, closed by x_q = x_0 + p * period."""
    return np.concatenate([x[..., 1:], x[..., :1] + p * period], axis=-1)


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=-1) for |shift| = 1; concatenation is cheaper on short arrays."""
    return np.concatenate([a[..., -shift:], a[..., :-shift]], axis=-1)


def _inadmissible(sys: TwistSystem, p: int, q: int) -> str:
    """Why the rational rotation number p/q cannot be solved on sys; '' if it can."""
    if q > Q_MAX:
        return f"rotation number {p}/{q} has q = {q} > q_max = {Q_MAX}"
    if not 0.0 < p * sys.period / q < sys.max_gap:
        return (
            f"gap violation: rho = {p}/{q} is outside the admissible range "
            f"0 < rho < {sys.max_gap / sys.period:g} of the {sys.name or 'twist'} model"
        )
    return ""


def _require_gaps(sys: TwistSystem, cfg: Configuration) -> None:
    if cfg.q == 1 and cfg.winding == 0:
        return
    gaps = cfg.gaps()
    if gaps.min() <= 0.0 or gaps.max() >= sys.max_gap:
        raise ValueError("gap violation")


def action(sys: TwistSystem, cfg: Configuration) -> float:
    _require_gaps(sys, cfg)
    return float(_evaluate(sys, cfg.points, cfg.winding, 0)[0])


def action_gradient(sys: TwistSystem, cfg: Configuration) -> np.ndarray:
    _require_gaps(sys, cfg)
    return _evaluate(sys, cfg.points, cfg.winding, 1)[1]


def _evaluate(sys: TwistSystem, x: np.ndarray, p: int, order: int) -> list:
    """Periodic action of the configurations x (last axis) from one cyclic jet.

    Returns [A] for order 0, [A, grad] for order 1 and [A, grad, diag, e] for
    order 2, where diag and e are the diagonal and the cyclic off-diagonal
    (e[k] couples x_k and x_{k+1}) of the action Hessian.  For q = 1 the
    single edge couples x to itself, so diag + 2 e[0] is the whole Hessian.
    """
    jet = sys.cyclic_jet(x, p, order)
    out = [np.sum(jet[0], axis=-1)]
    if order >= 1:
        out.append(jet[1] + _roll(jet[2], 1))
    if order >= 2:
        out += [jet[3] + _roll(jet[5], 1), jet[4]]
    return out


def _feasible_fraction(sys, x, step, p):
    """Largest t <= 1 keeping every gap of x + t * step in the solvers' strip,
    times 0.999 when below 1."""
    lo = GAP_MIN_FRAC * sys.period
    hi = sys.max_gap - lo
    g = _closed(x, p, sys.period) - x
    dg = _closed(step, 0, sys.period) - step
    up, dn = dg > 0, dg < 0
    t = min(((hi - g[up]) / dg[up]).min(initial=1.0), ((lo - g[dn]) / dg[dn]).min(initial=1.0))
    t = max(t, 0.0)
    return 0.999 * t if t < 1.0 else t


def _solve_cyclic(diag, e, rhs):
    """Solve the symmetric cyclic tridiagonal system in O(q) by a bordered LDL^T.

    Off-diagonal couplings e[k] join unknowns k and k+1; e[-1] is the corner
    coupling (q-1, 0).  For q = 2 both couplings join the same pair, and for
    q = 1 the one coupling joins unknown 0 to itself on both sides.  The
    leading (q-1)x(q-1) tridiagonal block T is factored by the pivots
    d_k = a_k - e_{k-1}^2 / d_{k-1}; its border column v holds the corner
    coupling at row 0 and e[q-2] at row q-2.  The last pivot is the Schur
    complement s = a_{q-1} - v^T T^{-1} v.

    Returns x, or None unless every pivot is positive and x is finite.  By
    Sylvester's law of inertia the pivots are all positive exactly when the
    matrix is positive definite.
    """
    a, c, b = diag.tolist(), e.tolist(), rhs.tolist()
    n = len(a) - 1
    if n == 0:
        s = a[0] + 2.0 * c[0]
        if not s > 0.0:
            return None
        x = np.array([b[0] / s])
        return x if np.isfinite(x).all() else None
    # forward pass over T: pivots d, g = L^{-1} b and w = L^{-1} v
    dk, gk, wk = a[0], b[0], c[-1]
    d, g, w = [dk], [gk], [wk]
    try:
        for ck, ak, bk in zip(c, a[1:n], b[1:n]):
            mk = ck / dk
            dk = ak - ck * mk
            gk = bk - mk * gk
            wk = -mk * wk
            d.append(dk)
            g.append(gk)
            w.append(wk)
    except ZeroDivisionError:  # a zero pivot
        return None
    if not min(d) > 0.0:
        return None
    w[-1] += c[n - 1]
    # last pivot: s = a_{q-1} - w^T D^{-1} w, the Schur complement
    s, gn = a[n], b[n]
    for dk, gk, wk in zip(d, g, w):
        r = wk / dk
        s -= wk * r
        gn -= gk * r
    if not s > 0.0:
        return None
    xn = gn / s
    # back substitution through D L^T, whose superdiagonal is e
    x = [0.0] * n + [xn]
    x[n - 1] = (g[-1] - w[-1] * xn) / d[-1]
    for k in range(n - 2, -1, -1):
        x[k] = (g[k] - w[k] * xn - c[k] * x[k + 1]) / d[k]
    x = np.array(x)
    return x if np.isfinite(x).all() else None


# perfbench/tracing.py times the cyclic solve by wrapping this name; drop the
# alias once the tracer wraps _solve_cyclic itself.
solve_banded = _solve_cyclic


def _tol_effective(act, q):
    return TOL * (1.0 + abs(act / q))


def _newton_phase(sys, x, p, free=1.0):
    """Newton on the periodic action with an inertia-controlled shift.

    Each step solves (H + mu) delta = -grad.  While H + mu is not positive
    definite or delta is not finite (_solve_cyclic returns None), mu rises
    to max(10 mu, 1e-6 (1 + max|diag|)); so every step is a descent
    direction of the action.  mu falls by 4 after each step.  The step
    length t starts at the feasible fraction and halves until the trial point
    meets the Armijo test A(x + t delta) <= A + 1e-4 t grad.delta or lowers
    the max-norm residual; once halving no longer moves x, the solve stops
    unconverged.  One order-2 evaluation per trial point gives the action,
    gradient and Hessian.  free is 0 at pinned coordinates: their gradient is
    masked and their rows of the Hessian are replaced by the identity, so
    they never move.  Returns (x, action, residual, converged).
    """
    q = x.size
    pinned = free == 0
    coupled = free * np.roll(free, -1)
    act, grad, diag, e = _evaluate(sys, x, p, 2)
    grad = grad * free
    res = float(np.abs(grad).max())
    mu = 0.0
    for _ in range(MAX_NEWTON_ITER):
        if res < _tol_effective(act, q):
            return x, act, res, True
        diag[pinned] = 1.0
        e = e * coupled
        while (delta := _solve_cyclic(diag + mu, e, -grad)) is None:
            mu = max(1e-6 * (1.0 + float(np.abs(diag).max())), 10.0 * mu)
            if not mu < math.inf:  # no shift makes a NaN Hessian definite
                return x, act, res, False
        delta = delta * free
        slope = float(grad @ delta)
        t = _feasible_fraction(sys, x, delta, p)
        while True:
            trial = x + t * delta
            if np.array_equal(trial, x):
                return x, act, res, False
            act_t, grad_t, diag_t, e_t = _evaluate(sys, trial, p, 2)
            grad_t = grad_t * free
            res_t = float(np.abs(grad_t).max())
            if act_t <= act + 1e-4 * t * slope or res_t < res:
                break
            t *= 0.5
        x, act, grad, res, diag, e = trial, act_t, grad_t, res_t, diag_t, e_t
        mu *= 0.25
    return x, act, res, res < _tol_effective(act, q)


def _select(sys, p, q, candidates):
    """BetaResult of the lowest-index converged candidate (x, A, residual, ok)
    whose action lies within TOL * (q + |A|) of the lowest converged action A.

    The members of a degenerate minimizer family (every phase minimal) have
    actions equal up to rounding, so rounding does not decide which one is
    reported.  With no converged candidate, the lowest residual wins.  The
    configuration is reported with x_0 in [0, period).
    """
    converged = [c for c in candidates if c[3]]
    if converged:
        best = min(c[1] for c in converged)
        margin = q * _tol_effective(best, q)
        x, act, res, ok = next(c for c in converged if c[1] <= best + margin)
    else:
        x, act, res, ok = min(candidates, key=lambda c: c[2])
    cfg = Configuration(x - math.floor(x[0] / sys.period) * sys.period, p, sys.period)
    return BetaResult(float(act) / q, cfg, float(res), len(candidates), bool(ok))


def _solve(sys, p, q, rows, free=1.0):
    """Run Newton from each start row and _select; free is 0 where pinned."""
    return _select(sys, p, q, [_newton_phase(sys, row, p, free) for row in rows])


def _minimize_fixed_point(sys):
    """q = 1, winding 0: minimize S(x, x) over one period from a grid seed."""
    grid = np.linspace(0.0, sys.period, 512, endpoint=False)
    x0 = grid[np.argmin(sys.jet(grid, grid, 0)[0])]
    return _solve(sys, 0, 1, np.array([[x0]]))


def minimize_periodic(sys: TwistSystem, p: int, q: int, opts: MinimizeOptions | None = None) -> BetaResult:
    """Minimize the periodic action at rotation number p/q.

    Multi-start: `starts` equispaced configurations, phase-shifted by
    j*period/(q*starts), each with one small random jitter (deterministic
    seed).  Newton with an inertia-controlled shift runs from each start
    (_newton_phase), and _select chooses among the results.
    """
    opts = opts or MinimizeOptions()
    if q < 1 or p < 0:
        raise ValueError("rotation number must have q >= 1, p >= 0")
    if p == 0:
        if q != 1:
            raise ValueError("winding 0 requires q = 1")
        return _minimize_fixed_point(sys)
    if why := _inadmissible(sys, p, q):
        raise ValueError(why)
    gap = p * sys.period / q
    rng = np.random.default_rng(opts.seed)
    base = np.arange(q) * gap
    shifts = np.arange(opts.starts) * (sys.period / (q * opts.starts))
    rows = shifts[:, None] + base[None, :]
    rows = rows + rng.standard_normal(rows.shape) * (JITTER * gap)
    return _solve(sys, p, q, rows)


def minimize_with_fixed_start(sys: TwistSystem, p: int, q: int, x0: float) -> BetaResult:
    """Minimize the periodic action over configurations pinned at x_0 = x0.

    Used to certify invariant curves of periodic orbits: if the pinned minimal
    action is independent of x0, every phase carries a minimal orbit.  Like
    every solve, the result is reported with x_0 in [0, period).
    """
    if q < 2:
        raise ValueError("fixed-start minimization needs q >= 2")
    if why := _inadmissible(sys, p, q):
        raise ValueError(why)
    free = np.ones(q)
    free[0] = 0.0
    start = x0 + np.arange(q) * (p * sys.period / q)
    return _solve(sys, p, q, start[None, :], free)


def beta_rational(sys: TwistSystem, p: int, q: int, opts: MinimizeOptions | None = None) -> float:
    g = math.gcd(p, q) or 1
    return minimize_periodic(sys, p // g, q // g, opts).beta


def convergents(omega: float, q_max: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of omega with q <= q_max."""
    out = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(omega)), 1
    if q_cur <= q_max and p_cur > 0:
        out.append((p_cur, q_cur))
    x = omega - math.floor(omega)
    for _ in range(64):
        if x < 1e-13:
            break
        x = 1.0 / x
        a = int(math.floor(x))
        x -= a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next > q_max:
            break
        out.append((p_next, q_next))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
    return out


def _hull_rows(cfg: Configuration, p: int, q: int, starts: int) -> np.ndarray:
    """Starts at p/q resampled from the hull function of the configuration cfg.

    An ordered p'/q' configuration is x_k = u(k p'/q') with u(t + 1) = u(t) +
    period.  The periodic part w(t) = u(t) - t * period, known at t = j/q'
    (j = k p' mod q', lift k p' div q'), is interpolated trigonometrically
    onto the m = q * starts phases l/m; an even q' splits its Nyquist term
    between +-q'/2.  Row i, point k sits at phase i/m + k p/q: the start i of
    minimize_periodic without jitter, plus w.
    """
    q0, period = cfg.q, cfg.period
    lift, j = np.divmod(np.arange(q0) * cfg.winding, q0)
    w = np.empty(q0)
    w[j] = cfg.points - (lift + j / q0) * period
    m = q * starts
    spec = np.fft.rfft(w)
    if q0 % 2 == 0 and m > q0:
        spec[-1] *= 0.5
    fine = np.fft.irfft(spec, m) * (m / q0)
    i, k = np.arange(starts)[:, None], np.arange(q)[None, :]
    return fine[(i + k * p * starts) % m] + i * (period / m) + k * (p * period / q)


def _minimize_seeded(sys, p, q, opts, prev):
    """minimize_periodic(sys, p, q, opts), seeded from the minimizer prev (a
    Configuration or None) at a nearby rotation number.

    The hull-function starts of prev replace the equispaced ones when every
    gap lies inside the solvers' strip and every start has a residual below
    SWITCH_TOL.  Otherwise, or when no seeded start converges, the solve runs
    from scratch.
    """
    opts = opts or MinimizeOptions()
    if prev is not None:
        rows = _hull_rows(prev, p, q, opts.starts)
        gap_min = GAP_MIN_FRAC * sys.period
        gaps = _closed(rows, p, sys.period) - rows
        if gaps.min() > gap_min and gaps.max() < sys.max_gap - gap_min:
            res = np.abs(_evaluate(sys, rows, p, 1)[1]).max(axis=1)
            if res.max() < SWITCH_TOL:
                sol = _solve(sys, p, q, rows)
                if sol.converged:
                    return sol
    return minimize_periodic(sys, p, q, opts)


@dataclass(frozen=True)
class IrrationalBetaResult:
    value: float
    lower: float
    upper: float
    converged: bool
    evaluations: tuple


def beta_irrational_result(
    sys: TwistSystem,
    omega: float,
    tol: float = 1e-6,
    opts: MinimizeOptions | None = None,
) -> IrrationalBetaResult:
    """Bracket beta(omega) between convexity bounds built on convergents.

    The chord through the two evaluated convergents straddling omega is an
    upper bound; the chord through the two nearest convergents on one side,
    extrapolated to omega, is a lower bound.  Convergents whose equispaced
    gap is inadmissible for the system are skipped.  Each convergent after
    the first is seeded from the previous one's minimizer (_minimize_seeded).
    The bracket is converged when it is narrower than tol, every convergent
    converged and lower <= upper up to TOL * (1 + |upper|).  An omega that is
    an exact fraction is solved as that rational and keeps its converged flag.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    frac = Fraction(omega).limit_denominator(Q_MAX)
    if float(frac) == float(omega):
        sol = minimize_periodic(sys, frac.numerator, frac.denominator, opts)
        val = sol.beta
        return IrrationalBetaResult(val, val, val, sol.converged, ((frac.numerator, frac.denominator, val),))

    # Convergents approach omega from alternate sides, each nearer than the
    # earlier ones on its side: (rho, beta) per side, nearest last.
    evals = []
    below, above = [], []
    best = (math.nan, math.nan)
    prev, all_converged = None, True
    for p, q in convergents(omega, Q_MAX):
        if _inadmissible(sys, p, q):
            continue
        sol = _minimize_seeded(sys, p, q, opts, prev)
        prev, b = sol.config, sol.beta
        all_converged = all_converged and sol.converged
        evals.append((p, q, b))
        if p / q < omega:
            below.append((p / q, b))
        elif p / q > omega:
            above.append((p / q, b))
        if not below or not above:
            continue
        (rl, bl), (rr, br) = below[-1], above[-1]
        upper = bl + (br - bl) * (omega - rl) / (rr - rl)
        lower = -math.inf
        for side in (below, above):
            if len(side) >= 2:
                (r1, b1), (r2, b2) = side[-1], side[-2]
                lower = max(lower, b1 + (b2 - b1) * (omega - r1) / (r2 - r1))
        best = (lower, upper)
        if upper - lower < tol:
            ok = all_converged and lower <= upper + TOL * (1.0 + abs(upper))
            return IrrationalBetaResult(0.5 * (lower + upper), lower, upper, ok, tuple(evals))
    lower, upper = best
    value = upper if math.isinf(lower) or math.isnan(lower) else 0.5 * (lower + upper)
    return IrrationalBetaResult(value, lower, upper, False, tuple(evals))


def beta_irrational(
    sys: TwistSystem, omega: float, tol: float = 1e-6, opts: MinimizeOptions | None = None
) -> float:
    return beta_irrational_result(sys, omega, tol, opts).value


def equispaced_average_action(sys: TwistSystem, omega: float, x0: float = 0.0) -> float:
    """Average action of the equispaced configuration x_k = x0 + k*omega*period.

    Exact cyclic average for rational omega; Birkhoff (= phase-space) average
    via periodic trapezoid quadrature for irrational omega.
    """
    frac = Fraction(omega).limit_denominator(4096)
    gap = omega * sys.period
    if float(frac) == float(omega) and frac.denominator <= 4096:
        q = frac.denominator
        x = x0 + np.arange(q) * gap
        return float(np.mean(sys.jet(x, x + gap, 0)[0]))
    t = np.linspace(0.0, sys.period, 4096, endpoint=False)
    return float(np.mean(sys.jet(t + x0, t + x0 + gap, 0)[0]))


def make_toy_system(cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()) -> TwistSystem:
    """Frenkel-Kontorova toy: S(x0, x1) = v^2 / 2 + V(x0) with v = x1 - x0 and
    the zero-mean potential V(x) = sum_k c_k cos(2 pi k x) + s_k sin(2 pi k x).

    The shorter coefficient list is padded with zeros; no coefficients give
    V = 0 and beta = rho^2 / 2.  The jet builds one cos/sin table of x0.
    """
    n = max(len(cos_coeffs), len(sin_coeffs))
    cos_c, sin_c = np.zeros(n), np.zeros(n)
    cos_c[: len(cos_coeffs)] = cos_coeffs
    sin_c[: len(sin_coeffs)] = sin_coeffs
    k = 2.0 * math.pi * np.arange(1, n + 1)

    def jet(x0, x1, order):
        v = x1 - x0
        ang = np.multiply.outer(np.asarray(x0, dtype=float), k)
        cos, sin = np.cos(ang), np.sin(ang)
        out = [0.5 * v * v + (cos @ cos_c + sin @ sin_c)]
        if order >= 1:
            out += [-v + (-sin @ (k * cos_c) + cos @ (k * sin_c)), v]
        if order >= 2:
            one = np.ones_like(v)
            out += [one + (-cos @ (k * k * cos_c) - sin @ (k * k * sin_c)), -one, one]
        return out

    return TwistSystem(1.0, math.inf, jet, name="toy")


def farey_fractions(max_den: int, include_half: bool = True) -> list[tuple[int, int]]:
    """Coprime p/q in (0, 1/2] (or (0, 1/2)) with q <= max_den, ascending."""
    out = set()
    for q in range(2, max_den + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1 and (include_half or 2 * p < q):
                out.add((p, q))
    return sorted(out, key=lambda t: t[0] / t[1])
