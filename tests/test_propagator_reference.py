"""The vectorized variable-speed propagators against a slow per-node route:
adaptive quadrature for every integral along the characteristic and a
bracketed root solve for every characteristic foot."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hyplq.characteristics import VelocityField
from hyplq.geometry import Grid1D, GridFunction, IntervalUnion
from hyplq.semigroup import FeedbackProfile, continuity_damped, sample_periodic, transport_variable

MEAN = 2.0
N = 16
DOMAIN = IntervalUnion(prefix=((0.0, 0.15), (0.4, 0.55), (0.85, 1.0)))
TIMES = (0.0, 0.37, 5.0, 40.0)


@lru_cache(maxsize=None)
def _field(amp: float, L: float) -> VelocityField:
    k = 2.0 * math.pi / L
    return VelocityField.variable(
        lambda w: MEAN + amp * math.sin(k * w),
        c_min=MEAN - abs(amp),
        c_max=MEAN + abs(amp),
        derivative=lambda w: amp * k * math.cos(k * w),
    )


def _x0(L: float) -> GridFunction:
    grid = Grid1D(L, N)
    s = 2.0 * math.pi * grid.nodes / L
    return GridFunction(grid, 1.5 + np.sin(s) + 0.3 * np.cos(2.0 * s))


def _periodic_integral(f, L: float, breaks):
    """x -> the integral of the L-periodized f from 0 to x."""

    def over(r: float) -> float:
        pts = [b for b in breaks if 0.0 < b < r] or None
        return quad(f, 0.0, r, points=pts, epsabs=1e-13, epsrel=1e-12, limit=200)[0] if r > 0 else 0.0

    period = over(L)

    def F(x: float) -> float:
        j = math.floor(x / L)
        return j * period + over(x - j * L)

    return F


@lru_cache(maxsize=None)
def _integrals(amp: float, L: float, gain: float):
    vel = _field(amp, L)
    c, dc = vel.eval, vel.derivative_at
    segs = FeedbackProfile.uniform(DOMAIN, gain).segments(L)
    breaks = sorted({e for a, b, _ in segs for e in (a, b)})

    def g(y: float) -> float:
        return sum(gv for a, b, gv in segs if a <= y < b)

    tau = _periodic_integral(lambda y: 1.0 / c(y), L, breaks)
    damp = _periodic_integral(lambda y: g(y) / c(y), L, breaks)
    comp = _periodic_integral(lambda y: (dc(y) - g(y)) / c(y), L, breaks)
    return vel, tau, damp, comp


def _foot(tau, vel: VelocityField, w: float, t: float, direction: int) -> float:
    """The root x of tau(x) = tau(w) + direction * t inside the speed bracket."""
    if t == 0.0:
        return w
    target = tau(w) + direction * t
    near, far = w + direction * vel.c_min * t, w + direction * vel.c_max * t
    lo, hi = min(near, far) - 1e-9, max(near, far) + 1e-9
    return brentq(lambda x: tau(x) - target, lo, hi, xtol=1e-14, rtol=8.9e-16)


def _close(got: np.ndarray, want: np.ndarray):
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want)), np.max(np.abs(got / want - 1.0))


CASES = [
    (amp, gain, t, L)
    for L in (1.0, 2.0)
    for amp in (0.5, -0.5)
    for gain in (0.0, 1.0, 5.0)
    for t in TIMES
]


@pytest.mark.parametrize("amp, gain, t, L", CASES)
def test_transport_variable_matches_reference(amp, gain, t, L):
    vel, tau, damp, _ = _integrals(amp, L, gain)
    x0 = _x0(L)
    got = transport_variable(x0, t, vel, L, FeedbackProfile.uniform(DOMAIN, gain))
    want = np.empty(N)
    for i, w in enumerate(x0.grid.nodes):
        q = _foot(tau, vel, float(w), t, -1)
        want[i] = math.exp(-(damp(w) - damp(q))) * sample_periodic(x0, [q])[0]
    _close(got.values, want)


@pytest.mark.parametrize("amp, gain, t, L", CASES)
def test_continuity_damped_matches_reference(amp, gain, t, L):
    vel, tau, _, comp = _integrals(amp, L, gain)
    x0 = _x0(L)
    got = continuity_damped(x0, t, vel, FeedbackProfile.uniform(DOMAIN, gain), L)
    seam = vel.eval(0.0) / vel.eval(L)
    want = np.empty(N)
    for i, w in enumerate(x0.grid.nodes):
        p = _foot(tau, vel, float(w), t, +1)
        boundary = seam ** math.floor(p / L)
        want[i] = boundary * math.exp(comp(p) - comp(w)) * sample_periodic(x0, [p % L])[0]
    _close(got.values, want)
