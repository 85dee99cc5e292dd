"""Grids, interval unions, periodization and exponential weights.

Shared substrate for every other module: uniform periodic grids on [0, L],
control/observation domains as sorted disjoint closed intervals (with an
optional periodic tail generator), cell-averaged indicator sampling and the
exponential localization weights e^{mu*|P - w|}.

periodized_measure, the weighted measure of periodized segments inside a
window, serves the indicator, the window measures of domains and the
propagators.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "TimeGrid",
    "IntervalUnion",
    "GridFunction",
    "ExpWeight",
    "periodize_eval",
    "periodize_points",
    "restrict_domain",
    "measure_intersection",
    "indicator_on_grid",
    "exp_weight_on_grid",
    "parse_domain",
    "format_domain",
    "domain_from_config",
    "domain_to_config",
]

Interval = tuple[float, float]


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [0, L]: nodes w_i = i*h, i = 0..N-1.

    Node N is identified with node 0; functions are stored on N nodes.
    """

    L: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"domain length must be positive, got {self.L}")
        if self.N < 4:
            raise ValueError(f"need at least 4 cells, got {self.N}")
        nodes = np.arange(self.N) * (self.L / self.N)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return self.L / self.N


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with M steps and M+1 stored levels."""

    T: float
    M: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.M < 1:
            raise ValueError(f"need at least one time step, got {self.M}")
        times = np.arange(self.M + 1) * (self.T / self.M)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def dt(self) -> float:
        return self.T / self.M


def _as_interval_tuple(ivs) -> tuple[Interval, ...]:
    out = []
    for pair in ivs:
        a, b = pair
        out.append((float(a), float(b)))
    return tuple(out)


def _integral(v, key: str) -> int:
    """v as an int when it is an integral JSON number; json's booleans, strings
    and fractions are rejected, not coerced."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{key} must be an integral number, got {v!r}")
    return int(v)


def _real(v, key: str) -> float:
    """v as a float when it is a JSON number; json's booleans and strings are
    rejected, not coerced."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key} must be a number, got {v!r}")
    return float(v)


def _reject_unknown(obj: dict, allowed, what: str) -> None:
    """Raise ValueError naming the keys of obj that are not in allowed."""
    unknown = obj.keys() - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _config_intervals(ivs, key: str) -> tuple[Interval, ...]:
    """The [a, b] pairs of a config list, each bound a JSON number."""
    return tuple((_real(a, key), _real(b, key)) for a, b in ivs)


@dataclass(frozen=True)
class IntervalUnion:
    """Union of disjoint closed intervals [a_j, b_j], optionally with an
    eventually-periodic tail.

    prefix: finitely many intervals, sorted, pairwise disjoint.
    tail:   optional (period L0, pattern) where pattern is a list of
            intervals inside [0, L0]; the tail contributes the intervals
            start + j*L0 + pattern for j = 0, 1, 2, ...
    start:  offset of the tail; must not be smaller than the last prefix end.
    """

    prefix: tuple[Interval, ...] = ()
    tail: tuple[float, tuple[Interval, ...]] | None = None
    start: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "prefix", _as_interval_tuple(self.prefix))
        prev_end = None
        for a, b in self.prefix:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"interval [{a}, {b}] must have positive length")
            if a < 0:
                raise ValueError(f"intervals live on the half line, got a = {a}")
            if prev_end is not None and a < prev_end:
                raise ValueError(f"intervals overlap near {a}")
            prev_end = b
        if self.tail is not None:
            period, pattern = self.tail
            period = float(period)
            pattern = _as_interval_tuple(pattern)
            if not (period > 0 and math.isfinite(period)):
                raise ValueError(f"period must be positive, got {period}")
            if not pattern:
                raise ValueError("periodic tail needs a nonempty pattern")
            p_end = None
            for a, b in pattern:
                if not (0.0 <= a < b <= period):
                    raise ValueError(
                        f"pattern interval [{a}, {b}] escapes [0, {period}]"
                    )
                if p_end is not None and a < p_end:
                    raise ValueError(f"pattern intervals overlap near {a}")
                p_end = b
            object.__setattr__(self, "tail", (period, pattern))
            object.__setattr__(self, "start", float(self.start))
            if prev_end is not None and self.start < prev_end - 1e-15:
                raise ValueError(
                    f"tail start {self.start} lies before prefix end {prev_end}"
                )
        else:
            object.__setattr__(self, "tail", None)
            object.__setattr__(self, "start", 0.0)

    # -- queries ------------------------------------------------------------

    def first_start(self) -> float:
        if self.prefix:
            return self.prefix[0][0]
        if self.tail is not None:
            return self.start + self.tail[1][0][0]
        return math.inf

    def pattern_measure(self) -> float:
        if self.tail is None:
            return 0.0
        return sum(b - a for a, b in self.tail[1])

    def total_measure(self) -> float:
        m = sum(b - a for a, b in self.prefix)
        if self.tail is not None and self.pattern_measure() > 0:
            return math.inf
        return m

    def max_interval_length(self) -> float:
        lengths = [b - a for a, b in self.prefix]
        if self.tail is not None:
            lengths += [b - a for a, b in self.tail[1]]
        return max(lengths, default=0.0)

    def intervals_until(self, x: float) -> list[Interval]:
        """All intervals whose start lies strictly below x, in order."""
        out = [iv for iv in self.prefix if iv[0] < x]
        if self.tail is not None:
            period, pattern = self.tail
            j = 0
            while self.start + j * period + pattern[0][0] < x:
                for a, b in pattern:
                    lo = self.start + j * period + a
                    if lo < x:
                        out.append((lo, self.start + j * period + b))
                j += 1
        return out


@dataclass(frozen=True)
class GridFunction:
    """Values of a spatial function on the N nodes of a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.N,):
            raise ValueError(f"expected {self.grid.N} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def l2_norm(self) -> float:
        """Midpoint-quadrature L2 norm sqrt(h * sum v_i^2)."""
        return math.sqrt(self.grid.h * float(np.dot(self.values, self.values)))


@dataclass(frozen=True)
class ExpWeight:
    """Weight w(x) = e^{mu * |center - x|}; mu = 0 gives the constant 1."""

    center: float
    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"rate must be nonnegative, got {self.mu}")

    def eval(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.mu * np.abs(self.center - np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def periodize_points(w, L: float):
    """Representative of w modulo L inside [0, L). Works on arrays."""
    r = w - L * np.floor(np.asarray(w, dtype=float) / L)
    # guard against r == L from rounding when w is a tiny negative number
    return np.where(r >= L, r - L, r)


def periodize_eval(f, w: float, L: float) -> float:
    """Evaluate the L-periodic extension of f: returns f(w mod L).

    f is any callable defined on [0, L); the representative is taken
    in [0, L), so w inside the window is passed through unchanged.
    """
    if not math.isfinite(w):
        raise ValueError(f"cannot periodize non-finite point {w}")
    if L <= 0:
        raise ValueError(f"period must be positive, got {L}")
    if 0.0 <= w < L:
        return f(w)
    return f(float(periodize_points(w, L)))


def restrict_domain(dom: IntervalUnion, L: float) -> IntervalUnion:
    """Finite union equal to dom intersected with [0, L]."""
    if L <= 0:
        raise ValueError(f"domain length must be positive, got {L}")
    clipped = []
    for a, b in dom.intervals_until(L):
        lo, hi = max(a, 0.0), min(b, L)
        if clipped and lo < clipped[-1][1]:  # pattern copies overlapping by rounding
            lo, hi = clipped[-1][0], max(hi, clipped.pop()[1])
        if hi > lo:
            clipped.append((lo, hi))
    return IntervalUnion(prefix=tuple(clipped))


def periodized_measure(segs, period: float, p, q):
    """Sum of weight * |copies ∩ [p, q]| over the period-periodized (a, b,
    weight) segments; p and q broadcast against each other (e.g. (levels, N)
    against (N,)).  No segments measure exactly 0.0."""

    def periods(y):
        j = np.floor(y / period)
        return j, y - j * period

    (jp, rp), (jq, rq) = periods(p), periods(q)

    def upto(j, r, a, b):
        return j * (b - a) + np.minimum(np.maximum(r - a, 0.0), b - a)

    total = np.zeros(np.broadcast_shapes(np.shape(p), np.shape(q)))
    for a, b, g in segs:
        total += g * (upto(jq, rq, a, b) - upto(jp, rp, a, b))
    return total


def _measure_windows(dom: IntervalUnion, p, q) -> np.ndarray:
    """Lebesgue measure of dom intersected with each closed window [p, q];
    p and q broadcast against each other.

    Exact closed-form summation: the prefix overlaps are one array
    expression per interval, and the periodic tail is the pattern
    periodized from the tail start, measured by one periodized_measure call
    on the windows clamped there, never by enumerating periods.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    total = np.zeros(np.broadcast_shapes(p.shape, q.shape))
    for a, b in dom.prefix:
        total += np.maximum(0.0, np.minimum(b, q) - np.maximum(a, p))
    if dom.tail is not None:
        (period, pattern), s = dom.tail, dom.start
        segs = [(a, b, 1.0) for a, b in pattern]
        total += periodized_measure(segs, period, np.maximum(p, s) - s, np.maximum(q, s) - s)
    return total


def measure_intersection(dom: IntervalUnion, I: Interval) -> float:
    """Lebesgue measure of dom intersected with the closed interval I."""
    p, q = float(I[0]), float(I[1])
    if q < p:
        raise ValueError(f"probe interval reversed: [{p}, {q}]")
    return float(_measure_windows(dom, p, q))


def indicator_on_grid(dom: IntervalUnion, grid: Grid1D) -> GridFunction:
    """Cell-averaged indicator of dom ∩ [0, L] on the grid.

    Node i carries the fraction of [w_i - h/2, w_i + h/2] covered by the
    domain, periodized with period L (so cell 0 wraps), and h * sum(values)
    reproduces the measure of dom ∩ [0, L] exactly.
    """
    segs = [(a, b, 1.0) for a, b in restrict_domain(dom, grid.L).prefix]
    h = grid.h
    m = periodized_measure(segs, grid.L, grid.nodes - 0.5 * h, grid.nodes + 0.5 * h)
    return GridFunction(grid, np.clip(m / h, 0.0, 1.0))


def exp_weight_on_grid(w: ExpWeight, grid: Grid1D) -> GridFunction:
    """Sample e^{mu|P - w_i|} on the grid nodes, guarding against overflow."""
    reach = w.mu * float(np.max(np.abs(w.center - grid.nodes)))
    if reach > 700.0:
        raise ValueError(
            f"weight exponent {reach:.1f} exceeds the floating range (limit 700)"
        )
    return GridFunction(grid, w.eval(grid.nodes))


def smooth_bump(w: float, center: float, width: float, L: float | None = None) -> float:
    """Compactly supported bump: exp(1 - 1/(1 - s^2)) with s = 2(w-center)/width.

    Equals 1 at the center, vanishes with all derivatives at the support
    edges center +- width/2.  Pass L to measure the offset on the circle of
    circumference L instead of the line.
    """
    if width <= 0:
        raise ValueError(f"bump width must be positive, got {width}")
    d = abs(w - center)
    if L is not None:
        d = d % L
        d = min(d, L - d)
    s = 2.0 * d / width
    if s >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - s * s))


# ---------------------------------------------------------------------------
# text form: `finite: [[a,b],...]` or
#            `periodic: {prefix: [...], period: L0, pattern: [[a,b],...]}`
# ---------------------------------------------------------------------------


def parse_domain(text: str) -> IntervalUnion:
    """Parse the structured text form of an interval union."""
    s = text.strip()
    if s.startswith("finite:"):
        try:
            return domain_from_config({"finite": json.loads(s[len("finite:"):])})
        except (json.JSONDecodeError, TypeError) as exc:
            raise ValueError(f"bad finite interval list: {exc}") from exc
    if s.startswith("periodic:"):
        payload = s[len("periodic:"):].strip()
        # quote the bare keys so the payload becomes JSON
        jsonish = re.sub(r"([A-Za-z_]\w*)\s*:", r'"\1":', payload)
        try:
            obj = json.loads(jsonish)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad periodic domain payload: {exc}") from exc
        return domain_from_config({"periodic": obj})
    raise ValueError("domain text must start with 'finite:' or 'periodic:'")


def format_domain(dom: IntervalUnion) -> str:
    """Inverse of parse_domain (round-trips exactly)."""
    if dom.tail is None:
        return f"finite: {json.dumps([list(iv) for iv in dom.prefix])}"
    period, pattern = dom.tail
    return (
        "periodic: {"
        f"prefix: {json.dumps([list(iv) for iv in dom.prefix])}, "
        f"period: {json.dumps(period)}, "
        f"pattern: {json.dumps([list(iv) for iv in pattern])}, "
        f"start: {json.dumps(dom.start)}"
        "}"
    )


def domain_from_config(obj) -> IntervalUnion:
    """Build an IntervalUnion from the JSON config shape.

    Accepts {"finite": [[a,b],...]} or
    {"periodic": {"prefix": [...], "period": L0, "pattern": [...], "start": s0}}.
    """
    if isinstance(obj, IntervalUnion):
        return obj
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"expected a one-key domain object, got {obj!r}")
    if "finite" in obj:
        return IntervalUnion(prefix=_config_intervals(obj["finite"], "finite"))
    if "periodic" in obj:
        spec = obj["periodic"]
        if not isinstance(spec, dict):
            raise ValueError(f"periodic domain must be an object, got {spec!r}")
        _reject_unknown(spec, {"prefix", "period", "pattern", "start"}, "periodic domain")
        try:
            prefix = _config_intervals(spec.get("prefix", []), "prefix")
            period = _real(spec["period"], "period")
            pattern = _config_intervals(spec["pattern"], "pattern")
            default_start = prefix[-1][1] if prefix else 0.0
            start = _real(spec.get("start", default_start), "start")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad periodic domain: {exc}") from exc
        return IntervalUnion(prefix=prefix, tail=(period, pattern), start=start)
    raise ValueError(f"unknown domain kind {set(obj)}")


def domain_to_config(dom: IntervalUnion):
    if dom.tail is None:
        return {"finite": [list(iv) for iv in dom.prefix]}
    period, pattern = dom.tail
    return {
        "periodic": {
            "prefix": [list(iv) for iv in dom.prefix],
            "period": period,
            "pattern": [list(iv) for iv in pattern],
            "start": dom.start,
        }
    }
