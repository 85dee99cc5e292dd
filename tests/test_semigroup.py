import math

import numpy as np
import pytest

from hyplq.characteristics import VelocityField, flow_backward, flow_forward
from hyplq.domain_check import check_condition_ii, guaranteed_decay, make_equidistant
from hyplq.geometry import Grid1D, GridFunction, IntervalUnion
from hyplq.semigroup import (
    FeedbackProfile,
    WaveState,
    continuity_damped,
    continuity_stabilizing_gain,
    estimate_operator_norm,
    sample_periodic,
    transport_damped,
    transport_free,
    transport_variable,
    wave_dalembert,
    wave_damped,
    wave_energy,
)

SIN_VEL = VelocityField.variable(
    lambda w: 2.0 + 0.5 * np.sin(2.0 * math.pi * w),
    c_min=1.5,
    c_max=2.5,
    derivative=lambda w: math.pi * np.cos(2.0 * math.pi * w),
)


def sine(grid, freq=1):
    return GridFunction(grid, np.sin(2 * np.pi * freq * grid.nodes / grid.L))


def smooth_blob(grid, center, width):
    d = np.abs(grid.nodes - center)
    d = np.minimum(d, grid.L - d)
    s = 2 * d / width
    vals = np.where(s < 1, np.exp(1 - 1 / np.maximum(1e-300, 1 - s * s)), 0.0)
    return GridFunction(grid, vals)


# ------------------------------------------------------------ free transport


def test_free_identity_and_half_period():
    grid = Grid1D(1.0, 128)
    x0 = sine(grid)
    assert np.array_equal(transport_free(x0, 0.0, 2.0, 1.0).values, x0.values)
    # c t = 0.5: half-period shift flips the sign of sin(2 pi w)
    out = transport_free(x0, 0.25, 2.0, 1.0)
    assert np.allclose(out.values, -x0.values, atol=1e-13)


def test_free_norm_preserved_integer_shift():
    grid = Grid1D(1.0, 128)
    rng = np.random.default_rng(0)
    x0 = GridFunction(grid, rng.standard_normal(128))
    out = transport_free(x0, 13 * grid.h / 2.0, 2.0, 1.0)
    assert out.l2_norm() == pytest.approx(x0.l2_norm(), abs=1e-14)


def test_free_semigroup_law_integer_shifts():
    grid = Grid1D(1.0, 128)
    x0 = sine(grid, 3)
    h = grid.h
    t1, t2 = 5 * h / 2.0, 11 * h / 2.0
    once = transport_free(x0, t1 + t2, 2.0, 1.0)
    twice = transport_free(transport_free(x0, t1, 2.0, 1.0), t2, 2.0, 1.0)
    assert np.array_equal(once.values, twice.values)


# ---------------------------------------------------------- damped transport


def test_damped_zero_gain_is_free():
    grid = Grid1D(1.0, 64)
    x0 = sine(grid)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.3),)), 0.0)
    a = transport_damped(x0, 0.37, 1.0, fb, 1.0)
    b = transport_free(x0, 0.37, 1.0, 1.0)
    assert np.allclose(a.values, b.values, atol=1e-15)


def test_damped_full_domain_rate():
    grid = Grid1D(1.0, 64)
    x0 = sine(grid)
    k, t, c = 0.8, 0.5, 2.0
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 1.0),)), k)
    out = transport_damped(x0, t, c, fb, 1.0)
    free = transport_free(x0, t, c, 1.0)
    assert np.allclose(out.values, math.exp(-k * t) * free.values, rtol=1e-13)


def test_damped_half_interval_uniform_factor():
    # one full revolution at c = 1 collects the gain on exactly half the period
    grid = Grid1D(1.0, 64)
    x0 = sine(grid)
    k = 1.3
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.5),)), k)
    out = transport_damped(x0, 1.0, 1.0, fb, 1.0)
    assert np.allclose(out.values, math.exp(-0.5 * k) * x0.values, rtol=1e-12)


def test_damped_finite_propagation():
    # for t <= (L - b)/c the damped and free solutions agree outside [a, b + ct]
    L, c = 4.0, 2.0
    grid = Grid1D(L, 256)
    rng = np.random.default_rng(5)
    x0 = GridFunction(grid, rng.standard_normal(grid.N))
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.2),)), 2.0)
    t = 32 * grid.h / c  # integer shift, t = 0.25 <= (4 - 0.2)/2
    damped = transport_damped(x0, t, c, fb, L)
    free = transport_free(x0, t, c, L)
    outside = (grid.nodes > 0.2 + c * t + grid.h) | (grid.nodes < -grid.h)
    assert np.array_equal(damped.values[outside], free.values[outside])
    inside = (grid.nodes > 0.0) & (grid.nodes < 0.2 + c * t)
    assert not np.allclose(damped.values[inside], free.values[inside])


def test_damped_semigroup_law():
    grid = Grid1D(1.0, 128)
    x0 = sine(grid, 2)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.1, 0.4),)), 1.1)
    h = grid.h
    t1, t2 = 10 * h, 17 * h
    once = transport_damped(x0, t1 + t2, 1.0, fb, 1.0)
    twice = transport_damped(transport_damped(x0, t1, 1.0, fb, 1.0), t2, 1.0, fb, 1.0)
    assert np.allclose(once.values, twice.values, atol=1e-13)


# -------------------------------------------------------- variable transport


def test_variable_matches_constant_routes():
    grid = Grid1D(1.0, 128)
    x0 = sine(grid)
    vel = VelocityField.constant(2.0)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.2, 0.55),)), 0.9)
    t = 0.31
    a = transport_variable(x0, t, vel, 1.0, fb)
    b = transport_damped(x0, t, 2.0, fb, 1.0)
    assert np.allclose(a.values, b.values, atol=1e-10)
    c = transport_variable(x0, t, vel, 1.0, None)
    d = transport_free(x0, t, 2.0, 1.0)
    assert np.allclose(c.values, d.values, atol=1e-10)


def test_variable_identity_at_zero_time():
    grid = Grid1D(1.0, 64)
    x0 = sine(grid)
    out = transport_variable(x0, 0.0, SIN_VEL, 1.0, None)
    assert np.allclose(out.values, x0.values, atol=1e-12)


def test_variable_jacobian_weighted_norm_conserved():
    # change of variables: int x(w,t)^2 c(q(w))/c(w) dw = int x0^2 dw
    grid = Grid1D(1.0, 1024)
    x0 = sine(grid)
    t = 0.217
    out = transport_variable(x0, t, SIN_VEL, 1.0, None)
    q = np.array(
        [flow_backward(w, t, SIN_VEL, 1.0).position for w in grid.nodes]
    )
    cq = np.array([SIN_VEL.eval(p % 1.0) for p in q])
    cw = np.array([SIN_VEL.eval(w) for w in grid.nodes])
    weighted = grid.h * float(np.sum(out.values**2 * cq / cw))
    assert weighted == pytest.approx(x0.l2_norm() ** 2, rel=1e-4)


# -------------------------------------------------------- continuity equation


def test_continuity_constant_undamped_is_forward_shift():
    grid = Grid1D(1.0, 128)
    x0 = sine(grid)
    vel = VelocityField.constant(2.0)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.2),)), 0.0)
    out = continuity_damped(x0, 0.25, vel, fb, 1.0)
    expected = sample_periodic(x0, grid.nodes + 0.5)
    assert np.allclose(out.values, expected, atol=1e-10)


def test_continuity_period_return_identity():
    # after one full period-return time the undamped solution reproduces x0
    tau = 1.0 / math.sqrt(4.0 - 0.25)
    grid = Grid1D(1.0, 128)
    x0 = smooth_blob(grid, 0.45, 0.5)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.2),)), 0.0)
    out = continuity_damped(x0, tau, SIN_VEL, fb, 1.0)
    assert np.allclose(out.values, x0.values, atol=1e-7)


def test_continuity_mass_conserved_mid_time():
    grid = Grid1D(1.0, 512)
    x0 = smooth_blob(grid, 0.5, 0.6)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.2),)), 0.0)
    out = continuity_damped(x0, 0.13, SIN_VEL, fb, 1.0)
    mass0 = grid.h * float(np.sum(x0.values))
    mass1 = grid.h * float(np.sum(out.values))
    assert mass1 == pytest.approx(mass0, rel=1e-3)


def test_continuity_matches_simplified_closed_form():
    # independent route: c(p mod L)/c(w) * exp(-int gain*chi/c) * x0(p mod L)
    from hyplq.characteristics import path_integral

    grid = Grid1D(1.0, 96)
    x0 = smooth_blob(grid, 0.4, 0.5)
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    gain = 1.7
    fb = FeedbackProfile(dom, gain)
    t = 0.29
    got = continuity_damped(x0, t, SIN_VEL, fb, 1.0)
    chi = lambda r: gain if 0.0 <= r < 0.2 else 0.0
    expected = np.empty(grid.N)
    for i, w in enumerate(grid.nodes):
        p = flow_forward(w, t, SIN_VEL, 1.0).position
        att = math.exp(-path_integral(chi, w, p, SIN_VEL, 1.0, f_breakpoints=(0.0, 0.2)))
        ratio = SIN_VEL.eval(p % 1.0) / SIN_VEL.eval(w)
        expected[i] = ratio * att * sample_periodic(x0, np.array([p % 1.0]))[0]
    assert np.allclose(got.values, expected, atol=1e-9)


def test_continuity_requires_derivative():
    grid = Grid1D(1.0, 64)
    x0 = sine(grid)
    vel = VelocityField.variable(lambda w: 2.0, c_min=1.9, c_max=2.1)
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 0.2),)), 0.0)
    with pytest.raises(ValueError):
        continuity_damped(x0, 0.1, vel, fb, 1.0)


def test_continuity_stabilizing_gain_decays():
    dom = make_equidistant(0.0, 0.2, 1.0)
    cert = check_condition_ii(dom, 1.0, 5.0).certificate
    target = 0.25
    gain = continuity_stabilizing_gain(target, SIN_VEL, cert, c_prime_sup=math.pi)
    assert gain > 0
    grid = Grid1D(1.0, 96)
    x0 = smooth_blob(grid, 0.5, 0.5)
    fb = FeedbackProfile(dom, gain)
    times = [0.1, 0.2, 0.3]
    norms = [continuity_damped(x0, t, SIN_VEL, fb, 1.0).l2_norm() for t in times]
    slope = np.polyfit(times, np.log(norms), 1)[0]
    assert -slope >= target


# ------------------------------------------------------------- wave equation


def test_dalembert_identity_at_zero_time():
    grid = Grid1D(1.0, 256)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / grid.L))
    x1 = GridFunction(grid, np.sin(np.pi * grid.nodes / grid.L) ** 2 * 0.3)
    st = wave_dalembert(x0, x1, 0.0, 1.0, 1.0)
    assert np.allclose(st.displacement.values, x0.values, atol=1e-14)
    # the velocity readout smooths x1 at second order
    assert np.max(np.abs(st.velocity.values - x1.values)) < 5.0 / grid.N


def test_dalembert_standing_mode():
    L, c, N = 1.0, 1.3, 512
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(grid, np.zeros(N))
    t = 0.37
    st = wave_dalembert(x0, x1, t, c, L)
    exact = math.cos(math.pi * c * t / L) * np.sin(np.pi * grid.nodes / L)
    assert np.max(np.abs(st.displacement.values - exact)) < 1e-4


def test_dalembert_rejects_nonzero_boundary():
    grid = Grid1D(1.0, 64)
    bad = GridFunction(grid, np.cos(np.pi * grid.nodes))
    zero = GridFunction(grid, np.zeros(64))
    with pytest.raises(ValueError):
        wave_dalembert(bad, zero, 0.1, 1.0, 1.0)


def test_dalembert_energy_constant_integer_shifts():
    L, c, N = 1.0, 1.0, 256
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(
        grid, np.sin(2 * np.pi * grid.nodes / L) * np.sin(np.pi * grid.nodes / L)
    )
    e0 = wave_energy(wave_dalembert(x0, x1, 0.0, c, L))
    for m in (8, 64, 200, 512):
        e = wave_energy(wave_dalembert(x0, x1, m * grid.h / c, c, L))
        assert e == pytest.approx(e0, rel=1e-12)


def test_wave_damped_zero_gain_matches_dalembert():
    L, c, N = 1.0, 1.0, 512
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(grid, 0.4 * np.sin(3 * np.pi * grid.nodes / L))
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    for t in (0.1, 0.3, 0.7):
        a = wave_damped(x0, x1, t, c, FeedbackProfile(dom, 0.0), L)
        b = wave_dalembert(x0, x1, t, c, L)
        num = np.linalg.norm(a.displacement.values - b.displacement.values)
        den = np.linalg.norm(b.displacement.values)
        assert num / den < 1e-8
        numv = np.linalg.norm(a.velocity.values - b.velocity.values)
        denv = max(1.0, np.linalg.norm(b.velocity.values))
        assert numv / denv < 1e-8


def test_wave_damped_full_domain_energy_rate():
    L, c, N, k = 1.0, 1.0, 256, 0.9
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(grid, np.zeros(N))
    dom = IntervalUnion(prefix=((0.0, L),))
    e0 = wave_energy(wave_damped(x0, x1, 0.0, c, FeedbackProfile(dom, k), L))
    for m in (32, 128, 256):
        t = m * grid.h / c
        e = wave_energy(wave_damped(x0, x1, t, c, FeedbackProfile(dom, k), L))
        assert e == pytest.approx(math.exp(-2 * k * t) * e0, rel=1e-11)


def test_wave_damped_boundary_always_zero():
    L, c, N = 1.0, 1.3, 128
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(grid, 0.2 * np.sin(2 * np.pi * grid.nodes / L))
    dom = IntervalUnion(prefix=((0.3, 0.6),))
    for t in (0.0, 0.21, 0.77, 1.4):
        st = wave_damped(x0, x1, t, c, FeedbackProfile(dom, 1.5), L)
        assert abs(st.displacement.values[0]) < 1e-12


def test_wave_state_riemann_pair_consistency():
    # zeta1 - zeta2 = c * displacement on the first half of the fold
    L, c, N = 1.0, 1.0, 128
    grid = Grid1D(L, N)
    x0 = GridFunction(grid, np.sin(np.pi * grid.nodes / L))
    x1 = GridFunction(grid, np.zeros(N))
    st = wave_damped(x0, x1, 0.4, c, FeedbackProfile(IntervalUnion(prefix=((0.0, 0.5),)), 0.7), L)
    z1 = st.zeta1().values[:N]
    z2 = st.zeta2().values[:N]
    assert np.allclose((z1 - z2) / c, st.displacement.values, atol=1e-12)


# ------------------------------------------------------- operator norm probe


def test_norm_estimate_free_transport():
    grid = Grid1D(1.0, 128)
    prop = lambda x0, t: transport_free(x0, t, 2.0, 1.0)
    got = estimate_operator_norm(prop, 0.25, grid, 8)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_norm_estimate_full_damping():
    grid = Grid1D(1.0, 128)
    k, t = 1.0, 0.25
    fb = FeedbackProfile(IntervalUnion(prefix=((0.0, 1.0),)), k)
    prop = lambda x0, tt: transport_damped(x0, tt, 2.0, fb, 1.0)
    got = estimate_operator_norm(prop, t, grid, 8)
    assert got == pytest.approx(math.exp(-k * t), abs=1e-8)
    assert got <= math.exp(-k * t) + 1e-12


def test_norm_estimate_single_interval_witness():
    # dom [0, 0.2], c = 2, L = 0.2 + 6: data fitting in the large gap survives
    L, c, t = 6.2, 2.0, 1.0
    grid = Grid1D(L, 620)
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    fb = FeedbackProfile(dom, 4.0)
    prop = lambda x0, tt: transport_damped(x0, tt, c, fb, L)
    got = estimate_operator_norm(prop, t, grid, 4, control_domain=dom)
    assert got >= 0.99


def test_norm_estimate_equidistant_uniform_over_L():
    dom = make_equidistant(0.0, 0.2, 1.0)
    gain, c, t = 1.0, 2.0, 2.5
    M, rate = guaranteed_decay(dom, gain, c)
    fb = FeedbackProfile(dom, gain)
    for L in (2.0, 4.0, 8.0, 16.0):
        grid = Grid1D(L, int(64 * L))
        prop = lambda x0, tt: transport_damped(x0, tt, c, fb, L)
        got = estimate_operator_norm(prop, t, grid, 6, control_domain=dom)
        assert got <= M * math.exp(-rate * t) + 1e-9


# ------------------------------------------------------------------ profiles


def test_profile_validation():
    dom = IntervalUnion(prefix=((0.0, 0.2), (0.5, 0.7)))
    for gain in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FeedbackProfile(dom, gain)
    fb = FeedbackProfile(dom, 2.5)
    assert fb.gain == 2.5


def test_profile_sampling_and_segments():
    dom = make_equidistant(0.0, 0.2, 1.0)
    fb = FeedbackProfile(dom, 3.0)
    segs = fb.segments(2.0)
    assert segs == ((0.0, 0.2, 3.0), (1.0, 1.2, 3.0))
    cases = [
        # prefix plus a tail whose copies start at an offset
        (
            IntervalUnion(prefix=((0.0, 0.25),), tail=(1.0, ((0.25, 0.5),)), start=0.5),
            3.0,
            ((0.0, 0.25), (0.75, 1.0), (1.75, 2.0), (2.75, 3.0)),
        ),
        # an interval crossing L is clipped there
        (IntervalUnion(prefix=((0.25, 0.5), (0.75, 1.5))), 1.0, ((0.25, 0.5), (0.75, 1.0))),
        # a tail that starts beyond L adds nothing
        (IntervalUnion(prefix=((0.0, 0.125),), tail=(0.5, ((0.0, 0.25),)), start=2.0), 1.5, ((0.0, 0.125),)),
        (IntervalUnion(), 2.0, ()),
    ]
    for dom, L, want in cases:
        assert FeedbackProfile(dom, 1.5).segments(L) == tuple((a, b, 1.5) for a, b in want)


def test_profile_empty_domain():
    fb = FeedbackProfile(IntervalUnion(), 0.0)
    assert fb.gain == 0.0
    grid = Grid1D(1.0, 64)
    x0 = GridFunction(grid, np.ones(64))
    out = transport_damped(x0, 0.5, 1.0, fb, 1.0)
    assert np.allclose(out.values, transport_free(x0, 0.5, 1.0, 1.0).values)
