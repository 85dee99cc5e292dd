import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from hyplq.characteristics import (
    FlowResult,
    NumericError,
    VelocityField,
    flow,
    flow_backward,
    flow_forward,
    invert_travel_time,
    path_integral,
    travel_time,
)

L = 1.0
SIN_VEL = VelocityField.variable(
    lambda w: 2.0 + 0.5 * np.sin(2.0 * math.pi * w),
    c_min=1.5,
    c_max=2.5,
    derivative=lambda w: math.pi * np.cos(2.0 * math.pi * w),
)

# frozen independent oracle: RK4 with dt = 1e-6 on p' = c(p), p(0) = 0,
# evaluated at t = 0.25 (converged to 1.3e-14 against dt = 5e-7)
RK4_ORACLE_POSITION = 0.5633422315989035
# analytic one-period travel time for c = 2 + 0.5 sin(2 pi w):
# integral of 1/c over a period = 1/sqrt(2^2 - 0.5^2)
PERIOD_TRAVEL_TIME = 1.0 / math.sqrt(4.0 - 0.25)


# ------------------------------------------------------------------- forward


def test_constant_flow_exact():
    r = flow_forward(0.3, 0.1, VelocityField.constant(2.0), L)
    assert r.position == pytest.approx(0.5, abs=1e-15)
    assert r.exactness == "analytic"
    assert r.travel_time_integral == pytest.approx(0.1, abs=1e-15)


def test_zero_time_is_identity():
    for vel in [VelocityField.constant(1.3), SIN_VEL]:
        assert flow_forward(0.7, 0.0, vel, L).position == 0.7
        assert flow_backward(0.7, 0.0, vel, L).position == 0.7


def test_variable_flow_matches_rk4_oracle():
    r = flow_forward(0.0, 0.25, SIN_VEL, L)
    assert r.position == pytest.approx(RK4_ORACLE_POSITION, abs=1e-8)
    assert r.exactness == "numeric"
    assert r.travel_time_integral == pytest.approx(0.25, abs=1e-9)


def test_backward_constant():
    r = flow_backward(0.3, 0.4, VelocityField.constant(2.0), L)
    assert r.position == pytest.approx(-0.5, abs=1e-15)


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p0 = float(rng.uniform(0, L))
        t = float(rng.uniform(0, 3))
        fwd = flow_forward(p0, t, SIN_VEL, L).position
        back = flow_backward(fwd % L, t, SIN_VEL, L).position
        # the wrap drops whole periods; compare on the circle
        assert (back - p0) % L == pytest.approx(0.0, abs=1e-8) or (
            back - p0
        ) % L == pytest.approx(L, abs=1e-8)


def test_roundtrip_unwrapped():
    for p0, t in [(0.1, 0.5), (0.9, 2.3), (0.5, 0.0)]:
        fwd = flow_forward(p0, t, SIN_VEL, L).position
        back = flow_backward(fwd - math.floor(fwd / L) * L, t, SIN_VEL, L).position
        shift = fwd - (fwd - math.floor(fwd / L) * L)
        assert back + shift == pytest.approx(p0, abs=1e-8)


def test_backward_derivative_identity():
    # d q(t, q0) / d q0 = c(q(t, q0)) / c(q0), by central differences
    t, d = 0.37, 1e-5
    c = SIN_VEL.eval
    for q0 in [0.15, 0.4, 0.62, 0.85]:
        hi = flow_backward(q0 + d, t, SIN_VEL, L).position
        lo = flow_backward(q0 - d, t, SIN_VEL, L).position
        fd = (hi - lo) / (2 * d)
        q = flow_backward(q0, t, SIN_VEL, L).position
        assert fd == pytest.approx(c(q % L) / c(q0), rel=1e-6)


def test_period_consistency():
    # traveling for the exact one-period time advances by exactly L
    r = flow_forward(0.3, PERIOD_TRAVEL_TIME, SIN_VEL, L)
    assert r.position == pytest.approx(0.3 + L, abs=1e-10)
    # q(t, L) - L = q(t, 0)
    t = 0.8
    a = flow_backward(1.0, t, SIN_VEL, L).position - L
    b = flow_backward(0.0, t, SIN_VEL, L).position
    assert a == pytest.approx(b, abs=1e-10)


def test_speed_bounds():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p0, t = float(rng.uniform(0, L)), float(rng.uniform(0.01, 2.0))
        pos = flow_forward(p0, t, SIN_VEL, L).position
        assert SIN_VEL.c_min - 1e-9 <= (pos - p0) / t <= SIN_VEL.c_max + 1e-9


def test_monotone_in_time():
    ts = np.linspace(0.0, 1.5, 40)
    xs = [flow_forward(0.2, float(t), SIN_VEL, L).position for t in ts]
    assert np.all(np.diff(xs) > 0)


def test_flow_validates_inputs():
    with pytest.raises(ValueError):
        flow_forward(-0.5, 1.0, SIN_VEL, L)
    with pytest.raises(ValueError):
        flow_forward(0.2, -1.0, SIN_VEL, L)


def _sinusoid(mean: float, amp: float, L: float) -> VelocityField:
    k = 2.0 * math.pi / L
    return VelocityField.variable(
        lambda w: mean + amp * np.sin(k * w),
        c_min=mean - abs(amp),
        c_max=mean + abs(amp),
        derivative=lambda w: amp * k * np.cos(k * w),
    )


def test_fields_with_equal_bounds_keep_their_own_tables():
    # +-amplitude fields compare equal (the evaluator is not compared), so a
    # table cache keyed on field equality would serve one the other's table
    L, p0, t = 2.0, 0.3, 0.4
    plus, minus = _sinusoid(2.0, 0.5, L), _sinusoid(2.0, -0.5, L)
    assert plus == minus

    def reference(vel):
        tau = lambda x: quad(lambda y: 1.0 / vel.eval(y), p0, x, epsabs=1e-14)[0]
        return brentq(lambda x: tau(x) - t, p0 + 1.5 * t, p0 + 2.5 * t, xtol=1e-14)

    for vel in (plus, minus, plus):
        assert flow_forward(p0, t, vel, L).position == pytest.approx(reference(vel), abs=1e-12)
    assert flow_forward(p0, t, minus, L).position == pytest.approx(0.9408, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    amp=st.floats(-0.9, 0.9),
    L=st.sampled_from([0.5, 1.0, 2.0]),
    t=st.floats(0.0, 50.0),
    xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_array_flows_round_trip(amp, L, t, xs):
    vel = _sinusoid(1.0, amp, L)
    x = np.array(xs) * L
    fwd = flow(x, t, vel, L, +1)
    back = flow(fwd, t, vel, L, -1)
    assert np.allclose(back, x, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(fwd))))
    # the elapsed travel time is t for every start
    assert np.allclose(travel_time(fwd, vel, L) - travel_time(x, vel, L), t, rtol=0.0, atol=1e-12 * (1.0 + t))
    # each entry agrees with its one-element call
    assert fwd[-1] == pytest.approx(flow_forward(float(x[-1]), t, vel, L).position, rel=1e-14, abs=1e-14)


def test_travel_time_inverse_is_exact_on_table_edges():
    s = np.arange(-3, 4) * PERIOD_TRAVEL_TIME
    assert np.allclose(invert_travel_time(s, SIN_VEL, L), np.arange(-3, 4) * L, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------- path integral


def test_path_integral_constant_everything():
    vel = VelocityField.constant(2.0)
    got = path_integral(lambda w: 0.7, 1.3, 2.8, vel, L)
    assert got == pytest.approx(0.7 * 1.5 / 2.0, rel=1e-12)


def test_path_integral_zero():
    assert path_integral(lambda w: 0.0, 0.0, 5.0, SIN_VEL, L) == pytest.approx(
        0.0, abs=1e-14
    )


def test_path_integral_periodized_indicator():
    # f = k * chi_[0, 0.5] periodized, c = 1: any unit window collects 0.5k
    k = 1.7
    f = lambda w: k if w <= 0.5 else 0.0
    vel = VelocityField.constant(1.0)
    for w in [0.0, 0.3, 0.77, 1.9, 4.25]:
        got = path_integral(f, w - 1.0, w, vel, L, f_breakpoints=(0.5,))
        assert got == pytest.approx(0.5 * k, abs=1e-12)


def test_path_integral_against_reference_quadrature():
    f = lambda w: math.cos(3.0 * w) + 1.2
    lo, hi = 0.2, 2.9

    def integrand(y):
        return f(y % L) / SIN_VEL.eval(y % L)

    ref, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-13)
    got = path_integral(f, lo, hi, SIN_VEL, L)
    assert got == pytest.approx(ref, abs=1e-10)


def test_path_integral_rejects_reversed_window():
    with pytest.raises(ValueError):
        path_integral(lambda w: 1.0, 2.0, 1.0, SIN_VEL, L)


# ---------------------------------------------------------------- velocities


def test_velocity_constant_fields():
    vel = VelocityField.constant(2.0)
    assert vel.is_constant
    assert vel.c_min == vel.c_max == 2.0
    assert vel.eval(0.37) == 2.0
    assert vel.derivative_at(0.37) == 0.0


def test_velocity_validation():
    with pytest.raises(ValueError):
        VelocityField.constant(-1.0)
    with pytest.raises(ValueError):
        VelocityField.variable(lambda w: 1.0, c_min=0.0, c_max=1.0)
    with pytest.raises(ValueError):
        # bounds violated on the sampled window
        VelocityField.variable(
            lambda w: 1.0 + w, c_min=0.9, c_max=1.5, check_span=1.0
        )


def test_velocity_without_derivative():
    vel = VelocityField.variable(lambda w: 2.0 + 0.1 * w, c_min=1.9, c_max=2.2)
    assert vel.derivative is None
    with pytest.raises(ValueError):
        vel.derivative_at(0.5)
