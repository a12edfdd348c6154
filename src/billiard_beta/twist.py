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


@dataclass(frozen=True)
class TwistSystem:
    """Generating-function system on a periodic parameter line.

    jet(x0, x1) evaluates the generating function and its partials on numpy
    arrays of edge ends: [S, S1, S2, S11, S12, S22].  S must satisfy
    S(x0 + period, x1 + period) = S(x0, x1) and have negative mixed second
    derivative (positive twist) on the admissible strip 0 < x1 - x0 < max_gap.

    cyclic_jet(x, p), the only jet the engine calls, equals
    jet(x, _closed(x, p, period)) on configurations x (last axis), and is
    that by default.  A model may compute it from one evaluation on x.
    """

    period: float
    max_gap: float
    jet: Callable
    name: str = ""
    cyclic_jet: Callable = None

    # Not fields: perfbench/tracing.py (MODEL_FIELDS) reads these names and
    # wraps those that are not None.  They go when the tracer stops reading them.
    S = S1 = S2 = S11 = S12 = S22 = None

    def __post_init__(self):
        if self.cyclic_jet is None:
            jet, period = self.jet, self.period
            object.__setattr__(self, "cyclic_jet", lambda x, p: jet(x, _closed(x, p, period)))


@dataclass(frozen=True)
class RotationNumber:
    """Rational p/q in lowest terms, or an irrational target with tolerance."""

    p: int = 0
    q: int = 0
    omega: float = math.nan
    tol: float = 1e-6

    def __post_init__(self):
        if self.q:
            g = math.gcd(self.p, self.q) * (1 if self.q > 0 else -1)  # keeps q > 0
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
            p, q = (int(part) for part in text.split("/", 1))
            if q == 0:
                raise ValueError(f"rotation number {text!r} has a zero denominator")
            return cls.rational(p, q)
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"rotation number {text!r} is not finite")
        frac = Fraction(value).limit_denominator(10**6)
        if float(frac) == value:
            return cls.rational(frac.numerator, frac.denominator)
        return cls.irrational(value, tol)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.is_rational else repr(self.omega)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class BetaResult:
    beta: float
    config: Configuration
    grad_residual: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "beta": float(self.beta),
            "points": [float(v) for v in self.config.points],
            "winding": self.config.winding,
            "grad_residual": float(self.grad_residual),
            "converged": bool(self.converged),
        }


# Solver constants.  TOL is the Newton residual target relative to 1 + |A|/q.
TOL = 1e-10
MAX_NEWTON_ITER = 80
STARTS = 8  # start rows of a multi-start solve
GAP_MIN_FRAC = 1e-9  # smallest gap kept by the solvers, as a fraction of the period
Q_MAX = 2000  # largest denominator solved or used in a bracket


def _closed(x: np.ndarray, p: int, period: float) -> np.ndarray:
    """Successors x_{k+1} along the last axis, closed by x_q = x_0 + p * period."""
    return np.concatenate([x[..., 1:], x[..., :1] + p * period], axis=-1)


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=-1) for |shift| = 1; concatenation is cheaper on short arrays."""
    return np.concatenate([a[..., -shift:], a[..., :-shift]], axis=-1)


def _inadmissible(sys: TwistSystem, p: int, q: int) -> str:
    """Why the rational rotation number p/q cannot be solved on sys; '' if it can."""
    if q < 2 or p < 1:
        return f"rotation number {p}/{q} needs q >= 2 and p >= 1"
    if q > Q_MAX:
        return f"rotation number {p}/{q} has q = {q} > q_max = {Q_MAX}"
    if not 0.0 < p * sys.period / q < sys.max_gap:
        return (
            f"gap violation: rho = {p}/{q} is outside the admissible range "
            f"0 < rho < {sys.max_gap / sys.period:g} of the {sys.name or 'twist'} model"
        )
    return ""


def _require_gaps(sys: TwistSystem, cfg: Configuration) -> None:
    gaps = cfg.gaps()
    if gaps.min() <= 0.0 or gaps.max() >= sys.max_gap:
        raise ValueError("gap violation")


def action(sys: TwistSystem, cfg: Configuration) -> float:
    _require_gaps(sys, cfg)
    return float(_evaluate(sys, cfg.points, cfg.winding)[0])


def action_gradient(sys: TwistSystem, cfg: Configuration) -> np.ndarray:
    _require_gaps(sys, cfg)
    return _evaluate(sys, cfg.points, cfg.winding)[1]


def _evaluate(sys: TwistSystem, x: np.ndarray, p: int) -> list:
    """Periodic action of the configurations x (last axis) from one cyclic jet.

    Returns [A, grad, diag, e], where diag and e are the diagonal and the
    cyclic off-diagonal (e[k] couples x_k and x_{k+1}) of the action Hessian.
    """
    S, S1, S2, S11, S12, S22 = sys.cyclic_jet(x, p)
    return [np.sum(S, axis=-1), S1 + _roll(S2, 1), S11 + _roll(S22, 1), S12]


def _strip(sys):
    """Bounds (lo, hi) of the solvers' strip lo < gap < hi."""
    lo = GAP_MIN_FRAC * sys.period
    return lo, sys.max_gap - lo


def _feasible_fraction(sys, x, step, p):
    """Per row of x, the largest t <= 1 keeping every gap of x + t * step in
    the solvers' strip, times 0.999 when below 1."""
    lo, hi = _strip(sys)
    g = _closed(x, p, sys.period) - x
    dg = _closed(step, 0, sys.period) - step
    room = np.divide(np.where(dg > 0, hi, lo) - g, dg, out=np.ones_like(g), where=dg != 0)
    t = np.maximum(room.min(axis=-1, initial=1.0), 0.0)
    return np.where(t < 1.0, 0.999 * t, t)


def _solve_cyclic(diag, e, rhs):
    """Solve symmetric cyclic tridiagonal systems in O(q) by a bordered LDL^T.

    Each index of the leading axes is one system along the last axis, and
    the recurrences over k run once for all of them, on columns.  Off-diagonal
    couplings e[k] join unknowns k and k+1; e[-1] is the corner coupling
    (q-1, 0); q >= 2, and for q = 2 both couplings join the same pair.  The
    leading (q-1)x(q-1) tridiagonal block T is factored by the pivots
    d_k = a_k - e_{k-1}^2 / d_{k-1}; its border column v holds the corner
    coupling at row 0 and e[q-2] at row q-2.  The last pivot is the Schur
    complement s = a_{q-1} - v^T T^{-1} v, accumulated term by term.

    Returns (x, ok), where ok is False for a system unless every pivot is
    positive and its x is finite.  By Sylvester's law of inertia the pivots
    are all positive exactly when the matrix is positive definite.
    """
    shape = np.shape(rhs)
    q = shape[-1]
    a, c, b = (v.reshape(-1, q).T for v in (diag, e, rhs))
    n = q - 1
    # a zero or negative pivot makes ok False; the arithmetic past it may overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # forward pass over T: pivots d, g = L^{-1} b, and w = L^{-1} v as the
        # products of its first entry (the corner coupling) and the factors -m_k
        dk, gk = a[0], b[0]
        d, g, w = [dk], [gk], [c[-1]]
        for ck, ak, bk in zip(c, a[1:n], b[1:n]):
            mk = ck / dk
            dk = ak - ck * mk
            gk = bk - mk * gk
            d.append(dk)
            g.append(gk)
            w.append(-mk)
        d, g, w = np.array(d), np.array(g), np.multiply.accumulate(w)
        w[n - 1] += c[n - 1]
        # last pivot: s = a_{q-1} - w^T D^{-1} w, the Schur complement
        r = w / d
        s = np.subtract.reduce(np.concatenate([a[n:], w * r]))
        xn = np.subtract.reduce(np.concatenate([b[n:], g * r])) / s
        # back substitution through D L^T, whose superdiagonal is e
        h = g - w * xn
        x = [xn, h[n - 1] / d[n - 1]]  # x_{q-1}, x_{q-2}, ..., x_0
        for k in range(n - 2, -1, -1):
            x.append((h[k] - c[k] * x[-1]) / d[k])
        x = np.array(x[::-1])
    ok = (d > 0.0).all(axis=0) & (s > 0.0) & np.isfinite(x).all(axis=0)
    return x.T.reshape(shape), ok.reshape(shape[:-1])


# perfbench/tracing.py times the cyclic solve by wrapping this name; drop the
# alias once the tracer wraps _solve_cyclic itself.
solve_banded = _solve_cyclic


def _tol_effective(act, q):
    return TOL * (1.0 + abs(act / q))


def _shifted_step(diag, e, grad, mu):
    """Per row, the step delta of (H + mu) delta = -grad for the first mu of
    the sequence mu_0 = mu, mu_{j+1} = max(10 mu_j, 1e-6 (1 + max|diag|)) for
    which H + mu is positive definite and delta finite (ok in _solve_cyclic).
    Only the rejected rows are solved again.

    Returns (delta, mu, found); a row whose mu overflows (no shift makes a NaN
    Hessian definite) is not found, and its delta is 0.
    """
    delta, found = _solve_cyclic(diag + mu[:, None], e, -grad)
    todo = np.flatnonzero(~found)
    while todo.size:
        mu[todo] = np.maximum(1e-6 * (1.0 + np.abs(diag[todo]).max(axis=-1)), 10.0 * mu[todo])
        todo = todo[mu[todo] < math.inf]
        delta[todo], found[todo] = _solve_cyclic(diag[todo] + mu[todo, None], e[todo], -grad[todo])
        todo = todo[~found[todo]]
    delta[~found] = 0.0
    return delta, mu, found


def _newton_phase(sys, x, p, pin=False):
    """Newton on the periodic action from each start row of x (R x q), with
    an inertia-controlled shift.

    Each row runs its own Newton.  A step solves (H + mu) delta = -grad,
    with mu raised until H + mu is positive definite (_shifted_step); so
    every step is a descent direction of the action.  mu falls by 4 after
    each step.  The step length t starts at the feasible fraction and halves
    until the trial point meets the Armijo test A(x + t delta) <= A + 1e-4 t
    grad.delta or lowers the max-norm residual.  A row stops unconverged once
    halving no longer moves it, when no finite mu makes H + mu definite, or
    after MAX_NEWTON_ITER steps.  With pin, x_0 never moves: its gradient and
    both its couplings are 0 and its Hessian row is the identity, so its step
    is 0.  p is one winding number for every row or an R x 1 column of them,
    so the solves of several p at one q can share the array.

    The rows share the work: each round makes one evaluation (action,
    gradient and Hessian) of every live row's trial point, and the rows that
    moved get their next steps from one _shifted_step call.  Returns one
    (x, action, residual, converged) per row.
    """
    x = np.array(x, dtype=float)
    n, q = x.shape
    column = np.ndim(p) > 0  # a winding per row, dropped with the row
    out = [None] * n

    def evaluate(x):
        act, grad, diag, e = _evaluate(sys, x, p)
        if pin:
            grad[:, 0], diag[:, 0], e[:, 0], e[:, -1] = 0.0, 1.0, 0.0, 0.0
        return act, grad, diag, e, np.abs(grad).max(axis=-1)

    act, grad, diag, e, res = evaluate(x)
    # per live row: its start row, shift, steps taken, direction, grad.delta and step length
    rows, mu, steps = np.arange(n), np.zeros(n), np.zeros(n, dtype=int)
    delta, slope, t = np.zeros((n, q)), np.zeros(n), np.zeros(n)
    moved = np.ones(n, dtype=bool)  # rows at a new point, which need a new step
    while True:
        ok = moved & (res < _tol_effective(act, q))
        stop = ok | (moved & (steps == MAX_NEWTON_ITER))
        new = moved & ~stop
        if new.any():
            sel = np.flatnonzero(new)
            delta[sel], mu[sel], found = _shifted_step(diag[sel], e[sel], grad[sel], mu[sel])
            # a stacked (1 x q)(q x 1) product per row rounds like one row's grad @ delta
            slope[sel] = (grad[sel, None, :] @ delta[sel, :, None])[:, 0, 0]
            t[sel] = _feasible_fraction(sys, x[sel], delta[sel], p[sel] if column else p)
            stop[sel] |= ~found
        t[stop] = 0.0
        trial = x + t[:, None] * delta
        stop |= (trial == x).all(axis=-1)  # halving no longer moves the row
        if stop.any():
            for k in np.flatnonzero(stop):
                out[rows[k]] = (x[k], act[k], res[k], bool(ok[k]))
            if stop.all():
                return out
            keep = ~stop
            if column:
                p = p[keep]
            rows, x, act, grad, diag, e, res, mu, steps, delta, slope, t, trial = (
                v[keep] for v in (rows, x, act, grad, diag, e, res, mu, steps, delta, slope, t, trial))
        act_t, grad_t, diag_t, e_t, res_t = evaluate(trial)
        moved = (act_t <= act + 1e-4 * t * slope) | (res_t < res)
        x, grad, diag, e = (np.where(moved[:, None], now, before)
                            for now, before in zip((trial, grad_t, diag_t, e_t), (x, grad, diag, e)))
        act, res = np.where(moved, act_t, act), np.where(moved, res_t, res)
        mu[moved] *= 0.25
        steps += moved
        t[~moved] *= 0.5


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
    return BetaResult(float(act) / q, cfg, float(res), bool(ok))


def _solve(sys, p, q, rows, pin=False):
    """Run Newton from the start rows, x_0 fixed with pin, and _select."""
    return _select(sys, p, q, _newton_phase(sys, rows, p, pin))


def minimize_rationals(sys: TwistSystem, rationals) -> list[BetaResult]:
    """minimize_periodic(sys, p, q) for each (p, q) of rationals, in input order.

    Every rational is checked before any solve.  The rationals of one
    denominator q run as one Newton array: the STARTS hull rows of each
    distinct p stacked, with a winding column, in one _newton_phase call;
    _select chooses each p's result from its own block of rows.
    """
    rationals = list(rationals)
    for p, q in rationals:
        if why := _inadmissible(sys, p, q):
            raise ValueError(why)
    groups = {}  # q -> its distinct p, in first-seen order
    for p, q in rationals:
        groups.setdefault(q, {})[p] = None
    straight = Configuration([0.0], 1, sys.period)
    solved = {}
    for q, ps in groups.items():
        ps = list(ps)
        rows = np.concatenate([_hull_rows(straight, p, q) for p in ps])
        # a lone p keeps the scalar winding: a column adds numpy ops to every
        # Newton round, a few percent of a small-q solve
        winding = ps[0] if len(ps) == 1 else np.repeat(ps, STARTS)[:, None]
        found = _newton_phase(sys, rows, winding)
        for i, p in enumerate(ps):
            solved[p, q] = _select(sys, p, q, found[i * STARTS : (i + 1) * STARTS])
    return [solved[pq] for pq in rationals]


def minimize_periodic(sys: TwistSystem, p: int, q: int) -> BetaResult:
    """Minimize the periodic action at rotation number p/q.

    Multi-start: the STARTS hull rows of the straight hull function
    u(t) = t * period (_hull_rows), i.e. equispaced configurations
    phase-shifted by j * period / (q * STARTS).  Newton with an
    inertia-controlled shift runs from each start (_newton_phase), and
    _select chooses among the results.
    """
    return minimize_rationals(sys, [(p, q)])[0]


def minimize_pinned(sys: TwistSystem, p: int, q: int, x0s) -> list[BetaResult]:
    """minimize_with_fixed_start(sys, p, q, x0) for each x0 of x0s, as one
    pinned Newton array with one equispaced start row per x0."""
    if why := _inadmissible(sys, p, q):
        raise ValueError(why)
    rows = np.asarray(x0s, dtype=float)[:, None] + np.arange(q) * (p * sys.period / q)
    return [_select(sys, p, q, [row]) for row in _newton_phase(sys, rows, p, pin=True)]


def minimize_with_fixed_start(sys: TwistSystem, p: int, q: int, x0: float) -> BetaResult:
    """Minimize the periodic action over configurations pinned at x_0 = x0.

    Used to certify invariant curves of periodic orbits: if the pinned minimal
    action is independent of x0, every phase carries a minimal orbit.  Like
    every solve, the result is reported with x_0 in [0, period).
    """
    return minimize_pinned(sys, p, q, [x0])[0]


def beta_rational(sys: TwistSystem, p: int, q: int) -> float:
    if g := math.gcd(p, q):
        p, q = p // g, q // g
    return minimize_periodic(sys, p, q).beta


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


def _hull_rows(cfg: Configuration, p: int, q: int) -> np.ndarray:
    """The STARTS start rows at p/q resampled from the hull function of cfg.

    An ordered p'/q' configuration is x_k = u(k p'/q') with u(t + 1) = u(t) +
    period.  The periodic part w(t) = u(t) - t * period, known at t = j/q'
    (j = k p' mod q', lift k p' div q'), is interpolated trigonometrically
    onto the m = q * STARTS phases l/m; an even q' splits its Nyquist term
    between +-q'/2.  Row i, point k sits at phase i/m + k p/q, plus w.  The
    straight hull function (cfg = [0] at 1/1, w = 0) gives the equispaced
    starts of minimize_periodic.
    """
    q0, period = cfg.q, cfg.period
    lift, j = np.divmod(np.arange(q0) * cfg.winding, q0)
    w = np.empty(q0)
    w[j] = cfg.points - (lift + j / q0) * period
    m = q * STARTS
    spec = np.fft.rfft(w)
    if q0 % 2 == 0 and m > q0:
        spec[-1] *= 0.5
    fine = np.fft.irfft(spec, m) * (m / q0)
    i, k = np.arange(STARTS)[:, None], np.arange(q)[None, :]
    return fine[(i + k * p * STARTS) % m] + i * (period / m) + k * (p * period / q)


def _ordered(rows, p, period):
    """Whether the n start rows at p/q from _hull_rows sample a strictly
    increasing hull function: row i, point k sits at phase i + k p n of the
    m = q n phases, and its lift is k p div q."""
    q = rows.shape[1]
    lift, j = np.divmod(np.arange(q) * p, q)
    u = (rows - lift * period).T[np.argsort(j)].ravel()
    return bool((np.diff(u, append=u[0] + period) > 0).all())


def _minimize_seeded(sys, p, q, prev):
    """minimize_periodic(sys, p, q), seeded from the minimizer prev (a
    Configuration or None) at a nearby rotation number.

    Newton runs from the hull-function rows of prev when all their gaps lie
    inside the solvers' strip.  A converged seed whose hull is increasing (an
    ordered guess, as Aubry-Mather minimizers are) is kept.  Newton from a
    non-monotone hull may end in a lower or a higher basin than the
    equispaced starts, so the solve also runs from scratch and the lower
    converged beta is kept.
    """
    seeded = None
    if prev is not None:
        rows = _hull_rows(prev, p, q)
        lo, hi = _strip(sys)
        gaps = _closed(rows, p, sys.period) - rows
        if lo < gaps.min() and gaps.max() < hi:
            seeded = _solve(sys, p, q, rows)
            if seeded.converged and _ordered(rows, p, sys.period):
                return seeded
    sol = minimize_periodic(sys, p, q)
    if seeded is not None and seeded.converged and not (sol.converged and sol.beta <= seeded.beta):
        return seeded
    return sol


@dataclass(frozen=True)
class IrrationalBetaResult:
    value: float
    lower: float
    upper: float
    converged: bool
    evaluations: tuple


def beta_irrational_result(sys: TwistSystem, omega: float, tol: float = 1e-6) -> IrrationalBetaResult:
    """Bracket beta(omega) between convexity bounds built on convergents.

    The chord through the two evaluated convergents straddling omega is an
    upper bound; the chord through the two nearest convergents on one side,
    extrapolated to omega, is a lower bound.  Convergents whose equispaced
    gap is inadmissible for the system are skipped; unless the admissible
    ones with q <= Q_MAX lie on both sides of omega, ValueError is raised
    before any solve.  Each convergent after the first is solved by Newton
    from the previous one's minimizer, and also from scratch when that seed
    is not ordered or does not converge (_minimize_seeded).  The bracket is
    converged when it is narrower than tol, every convergent converged and
    lower <= upper up to TOL * (1 + |upper|).  An omega that is an exact
    fraction is solved as that rational and keeps its converged flag.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    frac = Fraction(omega).limit_denominator(Q_MAX)
    if float(frac) == float(omega):
        sol = minimize_periodic(sys, frac.numerator, frac.denominator)
        val = sol.beta
        return IrrationalBetaResult(val, val, val, sol.converged, ((frac.numerator, frac.denominator, val),))

    admissible = [(p, q) for p, q in convergents(omega, Q_MAX) if not _inadmissible(sys, p, q)]
    if not (any(p / q < omega for p, q in admissible) and any(p / q > omega for p, q in admissible)):
        raise ValueError(f"no admissible convergents with q <= q_max = {Q_MAX} bracket {omega!r}")
    # Convergents approach omega from alternate sides, each nearer than the
    # earlier ones on its side: (rho, beta) per side, nearest last.
    evals = []
    below, above = [], []
    prev, all_converged = None, True
    for p, q in admissible:
        sol = _minimize_seeded(sys, p, q, prev)
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
        if upper - lower < tol:
            ok = all_converged and lower <= upper + TOL * (1.0 + abs(upper))
            return IrrationalBetaResult(0.5 * (lower + upper), lower, upper, ok, tuple(evals))
    value = upper if math.isinf(lower) else 0.5 * (lower + upper)
    return IrrationalBetaResult(value, lower, upper, False, tuple(evals))


def beta_at(sys: TwistSystem, rho: RotationNumber) -> tuple:
    """(beta, residual, converged, config) at rho: minimize_periodic's gradient
    residual and configuration, or beta_irrational_result's bracket width and None."""
    if rho.is_rational:
        res = minimize_periodic(sys, rho.p, rho.q)
        return res.beta, res.grad_residual, res.converged, res.config
    ir = beta_irrational_result(sys, rho.omega, rho.tol)
    return ir.value, ir.upper - ir.lower, ir.converged, None


def beta_irrational(sys: TwistSystem, omega: float, tol: float = 1e-6) -> float:
    return beta_irrational_result(sys, omega, tol).value


def equispaced_average_action(sys: TwistSystem, omega: float, x0: float = 0.0) -> float:
    """Average action of the equispaced configuration x_k = x0 + k*omega*period.

    Exact cyclic average for rational omega; Birkhoff (= phase-space) average
    via periodic trapezoid quadrature for irrational omega.
    """
    frac = Fraction(omega).limit_denominator(4096)
    gap = omega * sys.period
    if float(frac) == float(omega):
        q = frac.denominator
        x = x0 + np.arange(q) * gap
        return float(np.mean(sys.jet(x, x + gap)[0]))
    t = np.linspace(0.0, sys.period, 4096, endpoint=False)
    return float(np.mean(sys.jet(t + x0, t + x0 + gap)[0]))


def make_toy_system(cos_coeffs: Sequence[float] = (), sin_coeffs: Sequence[float] = ()) -> TwistSystem:
    """Frenkel-Kontorova toy: S(x0, x1) = v^2 / 2 + V(x0) with v = x1 - x0 and
    the zero-mean potential V(x) = sum_k c_k cos(2 pi k x) + s_k sin(2 pi k x).

    The shorter coefficient list is padded with zeros; no coefficients give
    V = 0 and beta = rho^2 / 2.  The jet builds one cos/sin table of x0.
    """
    if not np.isfinite([*cos_coeffs, *sin_coeffs]).all():
        raise ValueError("toy potential coefficients must be finite")
    n = max(len(cos_coeffs), len(sin_coeffs))
    cos_c, sin_c = np.zeros(n), np.zeros(n)
    cos_c[: len(cos_coeffs)] = cos_coeffs
    sin_c[: len(sin_coeffs)] = sin_coeffs
    k = 2.0 * math.pi * np.arange(1, n + 1)

    def jet(x0, x1):
        v = x1 - x0
        ang = np.multiply.outer(np.asarray(x0, dtype=float), k)
        cos, sin = np.cos(ang), np.sin(ang)
        one = np.ones_like(v)
        return [
            0.5 * v * v + (cos @ cos_c + sin @ sin_c),
            -v + (-sin @ (k * cos_c) + cos @ (k * sin_c)),
            v,
            one + (-cos @ (k * k * cos_c) - sin @ (k * k * sin_c)),
            -one,
            one,
        ]

    return TwistSystem(1.0, math.inf, jet, name="toy")


def farey_fractions(max_den: int, include_half: bool = True) -> list[tuple[int, int]]:
    """Coprime p/q in (0, 1/2] (or (0, 1/2)) with q <= max_den, ascending."""
    out = set()
    for q in range(2, max_den + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1 and (include_half or 2 * p < q):
                out.add((p, q))
    return sorted(out, key=lambda t: t[0] / t[1])
