"""Characteristic flows and path integrals for periodized velocity fields.

The velocity c lives on [0, L] and is extended periodically to the line.
Characteristics are resolved in travel-time coordinates: tau(x), the
integral of 1/c from 0 to x, is strictly increasing, one period always
takes the same time tau_L, and the characteristic through x after time t
sits at tau^{-1}(tau(x) +- t).  A cached one-period table of tau makes both
directions vectorized lookups: a panel search plus a Gauss-Legendre partial
panel for tau, and a few Newton steps seeded from the table for its
inverse, on whole node arrays at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "VelocityField",
    "FlowResult",
    "NumericError",
    "flow",
    "flow_forward",
    "flow_backward",
    "invert_travel_time",
    "log_speed_integral",
    "path_integral",
    "travel_time",
]

# accuracy reported for numeric flows
_FLOW_TOL = 1e-10
# Newton on tau(x) = s stops once every step is below this relative size;
# the table seed is within one panel, so a handful of steps suffice
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 8

# 16-point Gauss-Legendre rule, reused for all panel quadratures
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class NumericError(RuntimeError):
    """A quadrature or root solve failed to reach its tolerance."""


@dataclass(frozen=True)
class VelocityField:
    """Positive wave speed with certified bounds 0 < c_min <= c <= c_max.

    Use the ``constant`` / ``variable`` constructors.  ``evaluator`` is
    numpy-style: it takes an ndarray of positions in [0, L) and returns the
    speeds in an array of the same shape (a scalar result is broadcast, so
    ``lambda w: 2.0`` is a valid field); periodization is handled by the
    flow and integral routines.  Each array of positions is one call: the
    Gauss-Legendre nodes of all panels of a one-period table (built once
    per field and period, and kept on the field in ``_tables``), or all
    points an array routine resolves at once.  ``derivative`` follows the
    same contract; it is optional and only needed by consumers that
    differentiate the speed (e.g. the continuity equation's c'/c table).
    """

    evaluator: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    c_min: float
    c_max: float
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )
    is_constant: bool = False
    # tables keyed by (kind, L); equality ignores the evaluator, so a cache
    # keyed on field equality would hand one field's table to another
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.c_min <= self.c_max):
            raise ValueError(
                f"need 0 < c_min <= c_max, got [{self.c_min}, {self.c_max}]"
            )

    @staticmethod
    def constant(c: float) -> "VelocityField":
        if not (np.isfinite(c) and c > 0):
            raise ValueError(f"constant speed must be positive, got {c}")
        c = float(c)
        return VelocityField(
            evaluator=lambda w, _c=c: _c,
            c_min=c,
            c_max=c,
            derivative=lambda w: 0.0,
            is_constant=True,
        )

    @staticmethod
    def variable(
        evaluator: Callable[[np.ndarray], np.ndarray],
        c_min: float,
        c_max: float,
        derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        check_span: Optional[float] = None,
    ) -> "VelocityField":
        """Wrap a speed profile, optionally spot-checking the stated bounds.

        When ``check_span`` is given, the evaluator is sampled on a fine grid
        over [0, check_span] and construction fails if any sample escapes
        [c_min, c_max] by more than a small slack.
        """
        vel = VelocityField(
            evaluator=evaluator,
            c_min=float(c_min),
            c_max=float(c_max),
            derivative=derivative,
        )
        if check_span is not None:
            slack = 1e-9 * (1.0 + vel.c_max)
            w = np.linspace(0.0, check_span, 2048)
            v = vel.eval(w)
            bad = ~((vel.c_min - slack <= v) & (v <= vel.c_max + slack))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"speed {v[i]} at w={w[i]} escapes [{c_min}, {c_max}]"
                )
        return vel

    def eval(self, w):
        """The speed at w: a float for a float, an array of w's shape for an array."""
        return _sample(self.evaluator, w)

    def derivative_at(self, w):
        """The speed's derivative at w, shaped like ``eval``."""
        if self.derivative is None:
            raise ValueError("velocity field has no derivative evaluator")
        return _sample(self.derivative, w)


@dataclass(frozen=True)
class FlowResult:
    """Endpoint of a characteristic plus the 1/c integral along the path.

    ``travel_time_integral`` recomputes the elapsed time from the resolved
    path, which doubles as a consistency check on the inversion.
    ``exactness`` is "analytic" for closed-form (constant speed) results and
    "numeric" otherwise, with ``tol`` the root-solve tolerance used.
    """

    position: float
    travel_time_integral: float
    exactness: str
    tol: float = 0.0


# --------------------------------------------------------------------------
# one-period cumulative tables, cached on the velocity field


class _Table(NamedTuple):
    """Cumulative integral of ``f`` over [0, L], panel by panel.

    ``cum[i]`` is the integral from 0 to ``edges[i]``; ``total`` the
    integral over one period.
    """

    f: Callable[[np.ndarray], np.ndarray]
    edges: np.ndarray
    cum: np.ndarray
    total: float


def _sample(f: Callable[[np.ndarray], np.ndarray], pts):
    """f at every entry of pts in one call; a scalar result is broadcast.
    A float for a float, else an array of pts' shape."""
    pts = np.asarray(pts, dtype=float)
    vals = np.broadcast_to(np.asarray(f(pts), dtype=float), pts.shape)
    return float(vals) if vals.ndim == 0 else vals


def _gl(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integral of f over each panel [lo, hi]; lo and
    hi are arrays of one shape, e.g. (levels, N)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = _sample(f, mid[..., None] + half[..., None] * _GL_NODES)
    return half * (vals @ _GL_WEIGHTS)


def _table(vel: VelocityField, L: float, kind: str) -> _Table:
    """The ``kind`` table of this field on [0, L], built once per field.

    ``"time"`` integrates 1/c (travel time), ``"log_speed"`` integrates
    c'/c, on 256 equal panels.
    """
    key = (kind, float(L))
    tab = vel._tables.get(key)
    if tab is not None:
        return tab
    ev = vel.evaluator
    if kind == "time":
        f = lambda y: 1.0 / ev(y)
    else:
        dv = vel.derivative
        f = lambda y: dv(y) / ev(y)
    edges = np.linspace(0.0, L, 257)
    cum = np.concatenate([[0.0], np.cumsum(_gl(f, edges[:-1], edges[1:]))])
    tab = vel._tables[key] = _Table(f, edges, cum, float(cum[-1]))
    return tab


def _wrap(y: np.ndarray, period: float):
    """(j, r) with y = j * period + r and 0 <= r < period."""
    j = np.floor(y / period)
    r = y - j * period
    seam = r >= period  # floating guard at the seam
    j[seam] += 1
    r[seam] = 0.0
    return j, r


def _periodic_cumulative(x: np.ndarray, tab: _Table, L: float) -> np.ndarray:
    """Integral of the L-periodized table integrand from 0 to each x."""
    j, r = _wrap(x, L)
    idx = np.searchsorted(tab.edges, r, side="right") - 1
    idx = np.clip(idx, 0, len(tab.edges) - 2)
    return j * tab.total + (tab.cum[idx] + _gl(tab.f, tab.edges[idx], r))


def travel_time(x, vel: VelocityField, L: float) -> np.ndarray:
    """tau(x): the integral of 1/c_periodized from 0 to each x (any reals)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _periodic_cumulative(x, _table(vel, L, "time"), L)


def log_speed_integral(x, vel: VelocityField, L: float) -> np.ndarray:
    """The integral of c'/c, both periodized, from 0 to each x."""
    if vel.derivative is None:
        raise ValueError("velocity field has no derivative evaluator")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _periodic_cumulative(x, _table(vel, L, "log_speed"), L)


def invert_travel_time(s, vel: VelocityField, L: float) -> np.ndarray:
    """The positions x with tau(x) = s, for an array of travel times s.

    The table brackets each root between two panel edges and interpolates
    a seed there; Newton steps (tau' = 1/c) kept inside the bracket then
    converge on all entries at once.  Each row (the last axis, e.g. one
    time level of a (levels, N) block) stops after the first step that
    leaves all its entries converged, so a row of a block gets the same
    bits as a call on that row alone.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    tab = _table(vel, L, "time")
    j, rem = _wrap(s, tab.total)
    i = np.clip(np.searchsorted(tab.cum, rem, side="right") - 1, 0, len(tab.cum) - 2)
    lo, hi = j * L + tab.edges[i], j * L + tab.edges[i + 1]
    x = lo + (rem - tab.cum[i]) / (tab.cum[i + 1] - tab.cum[i]) * (hi - lo)
    s, lo, hi, x = (a.reshape(-1, a.shape[-1]) for a in (s, lo, hi, x))
    live = np.arange(len(x))
    for _ in range(_NEWTON_STEPS):
        xl = x[live]
        step = (travel_time(xl, vel, L) - s[live]) * vel.eval(np.mod(xl, L))
        xl = np.clip(xl - step, lo[live], hi[live])
        x[live] = xl
        live = live[~np.all(np.abs(step) <= _NEWTON_TOL * (1.0 + np.abs(xl)), axis=1)]
        if live.size == 0:
            return x.reshape(j.shape)
    raise NumericError("travel-time inversion did not converge")


def flow(x, t: float, vel: VelocityField, L: float, direction: int) -> np.ndarray:
    """Positions reached after time t by the characteristics through x:
    forward (direction +1) or backward (-1), unwrapped (not reduced mod L).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if vel.is_constant:
        return x + direction * vel.c_min * t
    if t == 0.0:
        return x.copy()
    return invert_travel_time(travel_time(x, vel, L) + direction * t, vel, L)


def _check_flow_args(p0: float, t: float, L: float):
    if not (L > 0):
        raise ValueError(f"period must be positive, got {L}")
    if not (0.0 <= p0 <= L):
        raise ValueError(f"start position {p0} outside [0, {L}]")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")


def _flow_one(x0: float, t: float, vel: VelocityField, L: float, direction: int) -> FlowResult:
    _check_flow_args(x0, t, L)
    x = float(flow(x0, t, vel, L, direction)[0])
    if vel.is_constant:
        return FlowResult(x, t, "analytic")
    tau = travel_time([x0, x], vel, L)
    return FlowResult(x, float(direction * (tau[1] - tau[0])), "numeric", _FLOW_TOL)


def flow_forward(p0: float, t: float, vel: VelocityField, L: float) -> FlowResult:
    """Position reached at time t by the characteristic starting at p0."""
    return _flow_one(p0, t, vel, L, +1)


def flow_backward(q0: float, t: float, vel: VelocityField, L: float) -> FlowResult:
    """Position at time 0 of the characteristic that reaches q0 at time t."""
    return _flow_one(q0, t, vel, L, -1)


# --------------------------------------------------------------------------
# path integrals along characteristics


def path_integral(
    f: Callable[[float], float],
    frm: float,
    to: float,
    vel: VelocityField,
    L: float,
    f_breakpoints: tuple = (),
) -> float:
    """Integral of f_periodized / c_periodized over [frm, to].

    ``f`` is evaluated on [0, L) and extended periodically.  Pass the
    discontinuities of f (positions in [0, L)) via ``f_breakpoints`` so the
    quadrature panels are split there; piecewise-constant integrands are
    then integrated exactly.  Windows spanning many periods are reduced to
    one full-period integral plus end corrections.
    """
    if not (L > 0):
        raise ValueError(f"period must be positive, got {L}")
    if to < frm:
        raise ValueError(f"reversed window [{frm}, {to}]")
    if to == frm:
        return 0.0

    base = sorted({0.0, L} | {b % L for b in f_breakpoints})

    def integrand(r: np.ndarray) -> np.ndarray:
        # f is a scalar function: one call per point, c one call per array
        fr = np.fromiter(map(f, r.ravel().tolist()), dtype=float, count=r.size)
        return fr.reshape(r.shape) / vel.eval(r)

    def over_cell(lo: float, hi: float) -> float:
        """Integral over [lo, hi] contained in a single period copy."""
        j = math.floor(lo / L)
        if lo - j * L >= L:
            j += 1
        a, b = lo - j * L, hi - j * L
        acc = 0.0
        for p, q in zip(base[:-1], base[1:]):
            s, e = max(a, p), min(b, q)
            if e <= s:
                continue
            n = max(1, int(math.ceil((e - s) / (L / 64.0))))
            sub = np.linspace(s, e, n + 1)
            acc += float(np.sum(_gl(integrand, sub[:-1], sub[1:])))
        return acc

    j_lo = math.floor(frm / L)
    j_hi = math.floor(to / L)
    if to - j_hi * L == 0.0:
        j_hi -= 1
    if j_lo == j_hi:
        total = over_cell(frm, to)
    else:
        total = over_cell(frm, (j_lo + 1) * L)
        full = j_hi - j_lo - 1
        if full > 0:
            total += full * over_cell(0.0, L)
        total += over_cell(j_hi * L, to)
    if not np.isfinite(total):
        raise NumericError("path integral did not evaluate to a finite value")
    return float(total)
