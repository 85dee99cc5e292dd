"""Algebraic stabilizability certificates for control-interval layouts.

A layout Omega_c = union of [a_j, b_j] admits a domain-uniform exponential
stabilizer exactly when there are constants K > k > 0 with

    k*(a_n - b_m) - K * sum_{m < j < n} (b_j - a_j) <= 1   for all n >= m,

together with two necessary conditions: the first interval starts at 0 and
the total measure is infinite.  The equivalent density form reads
|Omega_c ∩ I| >= c1*|I| - c0 for every interval I.  This module verifies
both forms, computes certificate constants in closed form and converts a
certificate into an explicit decay-rate bound for the damped transport
semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import NumericError
from .geometry import Interval, IntervalUnion, _measure_windows

__all__ = [
    "RateCertificate",
    "Verdict",
    "check_condition_ii",
    "check_condition_iii",
    "certify_rates",
    "guaranteed_decay",
    "make_equidistant",
    "worst_pair_value",
]

_TOL = 1e-12
# Periods of a tail layout enumerated to cross-check the closed form.
HORIZON_PERIODS = 64


@dataclass(frozen=True)
class RateCertificate:
    """Constants witnessing the interval condition.

    k is the demanded exponential rate, K the feedback strength, M the
    overshoot constant and verified_horizon the number of interval pairs
    (n, m) covered by the explicit enumeration cross-check (the periodic
    closed form makes the statement hold for all pairs).
    """

    k: float
    K: float
    M: float
    verified_horizon: int

    def __post_init__(self):
        if not (0 < self.k < self.K):
            raise ValueError(f"need 0 < k < K, got k={self.k}, K={self.K}")
        if self.M <= 0:
            raise ValueError(f"overshoot constant must be positive, got {self.M}")


@dataclass(frozen=True)
class Verdict:
    stabilizable: bool
    certificate: RateCertificate | None
    reason: str | None

    def __post_init__(self):
        if self.stabilizable != (self.certificate is not None):
            raise ValueError("verdict inconsistent: certificate iff stabilizable")


def make_equidistant(a: float, b: float, L0: float) -> IntervalUnion:
    """Periodic layout [a + j*L0, b + j*L0], j = 0, 1, 2, ..."""
    if not (0.0 <= a < b <= L0):
        raise ValueError(f"need 0 <= a < b <= L0, got a={a}, b={b}, L0={L0}")
    return IntervalUnion(prefix=(), tail=(float(L0), ((float(a), float(b)),)), start=0.0)


# ---------------------------------------------------------------------------
# pair inequality, closed form + enumeration
# ---------------------------------------------------------------------------


def _max_pair(dom: IntervalUnion, k: float, K: float, periods: int):
    """(value, (n, m), pairs checked) of the largest pair value over the
    prefix and `periods` tail periods, with 1-based interval indices.

    The pair value for n > m is phi(a_n) - phi(b_m), so a running maximum
    of -phi(b_m) gives the max in O(n).  Tail potentials are in-period
    offsets, the same numbers in every period; the running maximum moves by
    the tail's base potential on entering the tail and by the drift D at
    each later period start.  No absolute position enters, and with D <= 0
    no pair value of a later period exceeds the same pair's one period
    earlier, in floating point too.
    """

    def offsets(ivs):
        cum, at_a, at_b = 0.0, [], []
        for a, b in ivs:
            at_a.append(k * a - K * cum)
            cum += b - a
            at_b.append(k * b - K * cum)
        return list(zip(at_a, at_b)), cum

    prefix, prefix_measure = offsets(dom.prefix)
    period, pattern = dom.tail
    tail, pattern_measure = offsets(pattern)
    drift = k * period - K * pattern_measure
    # (phi(a), phi(b), move of the reference before the interval)
    seq = [(a, b, 0.0) for a, b in prefix]
    for j in range(periods):
        move = drift if j else k * dom.start - K * prefix_measure
        seq += [(a, b, move if r == 0 else 0.0) for r, (a, b) in enumerate(tail)]
    best, best_pair = -math.inf, (0, 0)
    run, run_idx = -math.inf, 0
    for n, (a, b, move) in enumerate(seq):
        run += move
        if n and a + run > best:
            best, best_pair = a + run, (n + 1, run_idx + 1)
        if -b > run:
            run, run_idx = -b, n
    return best, best_pair, len(seq) * (len(seq) - 1) // 2


def worst_pair_value(dom: IntervalUnion, k: float, K: float):
    """Supremum of the pair inequality left side over all n > m.

    Returns (value, (n, m), pairs_checked) with 1-based interval indices.

    Reduction for eventually periodic layouts: write G(n, m) =
    phi(a_n) - phi(b_m) with the potential phi(x) = k*x - K*|Omega ∩ [0,x]|.
    Over one tail period of R pattern intervals both phi(a) and phi(b) shift
    by the constant drift D = k*L0 - K*(pattern measure).  With D <= 0,
    max_{n > m} phi(a_n) is reached within one period past m (adding more
    periods only subtracts |D|), and for tail m the quantity
    G*(m) = max_{n > m} G(n, m) satisfies G*(m + R) = G*(m) because both the
    b-potential and the shifted a-window move by the same D.  Hence the
    supremum over all pairs equals the maximum over the prefix plus two tail
    periods.  D > 0 makes the supremum infinite (density deficit) and is
    handled before calling this function.  The closed form is cross-checked
    here against explicit enumeration over HORIZON_PERIODS periods.
    """
    if dom.tail is None:
        raise ValueError("worst_pair_value needs an eventually periodic layout")
    if k * dom.tail[0] - K * dom.pattern_measure() > 0:
        raise ValueError("positive per-period drift: the supremum is infinite")
    closed, _, _ = _max_pair(dom, k, K, 2)
    value, pair, n_pairs = _max_pair(dom, k, K, HORIZON_PERIODS)
    scale = max(1.0, abs(value))
    if abs(closed - value) > 1e-12 * scale:
        raise NumericError(
            f"closed-form reduction ({closed}) disagrees with enumeration "
            f"({value}); this is a bug"
        )
    return value, pair, n_pairs


def _exp(x: float, name: str) -> float:
    """e**x, or NumericError naming the constant when it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        raise NumericError(f"{name} = exp({x:.6g}) overflows a float") from None


def check_condition_ii(dom: IntervalUnion, k: float, K: float) -> Verdict:
    """Verify the pair inequality for all n >= m with given constants."""
    if not (0 < k < K < math.inf):
        raise ValueError(f"need 0 < k < K < inf, got k={k}, K={K}")
    if abs(dom.first_start()) > _TOL:
        return Verdict(False, None, "first-interval-offset")
    if not math.isinf(dom.total_measure()):
        return Verdict(False, None, "finite-measure")
    period, _ = dom.tail
    drift = k * period - K * dom.pattern_measure()
    if drift > 0:
        return Verdict(False, None, "density-deficit")
    value, (n, m), n_pairs = worst_pair_value(dom, k, K)
    if value > 1.0 + _TOL:
        return Verdict(False, None, f"pair-violation({n},{m})")
    over = _exp(max(1.0, K * dom.max_interval_length()), "overshoot constant M")
    return Verdict(True, RateCertificate(k, K, over, n_pairs), None)


def certify_rates(dom: IntervalUnion) -> RateCertificate | None:
    """Certificate constants in closed form; None when the first interval
    is offset or the measure is finite.

    At the fixed ratio k/K = 0.75*rho, rho the per-period density, the drift
    is negative and every pair value is proportional to K.  Starting from
    K = 1/8, dividing both constants by the worst pair value when it
    exceeds 1 gives the largest K that passes, keeping the overshoot
    constant small.
    """
    if dom.tail is None or abs(dom.first_start()) > _TOL:
        return None
    rho = dom.pattern_measure() / dom.tail[0]
    K = 2.0**-3
    k = 0.75 * K * rho
    value, _, _ = worst_pair_value(dom, k, K)
    if value > 1.0 + _TOL:
        k, K = k / value, K / value
    return check_condition_ii(dom, k, K).certificate


def check_condition_iii(
    dom: IntervalUnion,
    c1: float,
    c0: float,
    probes: list[Interval] | None = None,
) -> bool:
    """Density form: |dom ∩ I| >= c1*|I| - c0 for every probe interval.

    Default probes are the gap-to-gap intervals [b_m, a_n] (the family on
    which the inequality is tight) up to the enumeration horizon.
    """
    if not (c1 > 0 and c0 > 0):
        raise ValueError(f"need positive constants, got c1={c1}, c0={c0}")
    if probes is None:
        horizon = math.inf if dom.tail is None else dom.start + HORIZON_PERIODS * dom.tail[0]
        ivs = dom.intervals_until(horizon)
        probes = [
            (ivs[m][1], ivs[n][0])
            for m in range(len(ivs))
            for n in range(m + 1, len(ivs))
            if ivs[n][0] > ivs[m][1]
        ]
    if not probes:
        raise ValueError("probe list is empty")
    p, q = np.array(probes, dtype=float).reshape(-1, 2).T
    if np.any(q < p):
        k = int(np.argmax(q < p))
        raise ValueError(f"probe interval reversed: [{p[k]}, {q[k]}]")
    return not np.any(_measure_windows(dom, p, q) < c1 * (q - p) - c0 - _TOL)


# ---------------------------------------------------------------------------
# decay-rate bound
# ---------------------------------------------------------------------------


def _covers_half_line(dom: IntervalUnion) -> bool:
    if dom.tail is None:
        return False
    period, _ = dom.tail
    if abs(dom.pattern_measure() - period) > _TOL:
        return False
    # pattern measure equals the period, so the pattern tiles [0, L0] and
    # consecutive periods join seamlessly; it remains to cover [0, start]
    cursor = 0.0
    for a, b in dom.prefix:
        if a > cursor + _TOL:
            return False
        cursor = max(cursor, b)
    return cursor >= dom.start - _TOL


def guaranteed_decay(dom: IntervalUnion, feedback_gain: float, c: float):
    """Constants (M, rate) bounding the damped transport semigroup by
    M * e^{-rate * t}.

    The attenuation exponent over a window of length c*t collects the gain
    on at least floor(c*t/L0) - start/L0 full periods, each contributing
    gain*(pattern measure); absorbing the floor and the tail offset into
    the constant gives rate = gain*pm/L0 and M = e^{(gain*pm/c)(1 + s0/L0)}.
    Gap-free layouts damp everywhere, so M = 1 with the full rate.
    """
    if feedback_gain == 0.0:
        return (1.0, 0.0)
    if feedback_gain < 0 or c <= 0:
        raise ValueError(f"need gain >= 0 and c > 0, got {feedback_gain}, {c}")
    if _covers_half_line(dom):
        return (1.0, feedback_gain)
    if certify_rates(dom) is None:
        raise ValueError("layout is not domain-uniformly stabilizable")
    period, _ = dom.tail
    pm = dom.pattern_measure()
    rate = feedback_gain * pm / period
    M = _exp((feedback_gain * pm / c) * (1.0 + dom.start / period), "decay overshoot M")
    return (M, rate)
