"""Block-wise level routines against the one-level propagators and against
an in-test per-level reference that redoes the shift, the damping exponent
and the wave fold (or, at variable speed, the characteristic feet) one time
level at a time.  Every comparison is bit for bit (int64 views), since the
level routines do the same arithmetic.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplq.characteristics import VelocityField, invert_travel_time, log_speed_integral, travel_time
from hyplq.cli import main, plan_from_config, read_field_csv
from hyplq.geometry import Grid1D, GridFunction, IntervalUnion, TimeGrid, restrict_domain
from hyplq.semigroup import (
    FeedbackProfile,
    continuity_damped,
    continuity_levels,
    levels_per_block,
    sample_periodic,
    transport_damped,
    transport_free,
    transport_levels,
    transport_variable,
    transport_variable_levels,
    wave_damped,
    wave_levels,
)

# ----------------------------------------------------- per-level reference


def _upto(y, a, b, L):
    j = np.floor(y / L)
    r = y - j * L
    return j * (b - a) + np.clip(r - a, 0.0, b - a)


def ref_transport(x0: GridFunction, t: float, c: float, segs, L: float) -> np.ndarray:
    """One level: exact roll on integer shifts, else interpolation, times
    exp(-(1/c) * gain-weighted window overlap)."""
    grid = x0.grid
    cells = c * t / grid.h
    s = round(cells)
    if abs(cells - s) <= 1e-9 * max(1.0, abs(cells)):
        vals = np.roll(x0.values, int(s) % grid.N)
    else:
        vals = sample_periodic(x0, grid.nodes - c * t)
    if not segs or t == 0.0:
        return vals
    p, q = grid.nodes - c * t, grid.nodes
    expo = np.zeros_like(p)
    for a, b, g in segs:
        expo += g * (_upto(q, a, b, L) - _upto(p, a, b, L))
    return np.exp(-expo / c) * vals


def _odd(vals):
    n = len(vals)
    out = np.zeros(2 * n)
    out[1:n] = vals[1:]
    out[n + 1 :] = -vals[1:][::-1]
    return out


def ref_wave(x0, x1, t, c, gain, dom, L):
    """One level of the damped wave: fold, damped shift on [0, 2L], unfold."""
    grid = x0.grid
    n, h = grid.N, grid.h
    pieces = list(restrict_domain(dom, L).prefix)
    chi = np.zeros(n)
    for a, b in pieces:
        chi[(grid.nodes >= a) & (grid.nodes < b)] = 1.0
    ext = _odd(x0.values)
    g_ext = _odd(x1.values + gain * chi * x0.values)
    v_cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (g_ext[:-1] + g_ext[1:]))])
    fold0 = GridFunction(Grid1D(2.0 * L, 2 * n), 0.5 * (c * ext - v_cum))
    merged = []
    for a, b in pieces + [(2.0 * L - b, 2.0 * L - a) for a, b in reversed(pieces)]:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    segs = tuple((a, b, gain) for a, b in merged if b > a)
    w = ref_transport(fold0, t, c, segs, 2.0 * L)
    zeta2 = w[(2 * n - np.arange(2 * n)) % (2 * n)]
    disp = ((w - zeta2) / c)[:n]
    xi2 = w + zeta2
    dxi = (np.roll(xi2, -1) - np.roll(xi2, 1)) / (2.0 * h)
    return disp, -dxi[:n] - gain * chi * disp


def _tau_segments(fb, vel, L):
    segs = fb.segments(L)
    ends = travel_time([e for a, b, _ in segs for e in (a, b)] + [L], vel, L)
    return [(ends[2 * i], ends[2 * i + 1], g) for i, (_, _, g) in enumerate(segs)], float(ends[-1])


def ref_transport_variable(x0, t, vel, L, fb):
    """One level: feet q = tau^{-1}(tau(w) - t), exp(-tau-window overlap)."""
    tau_w = travel_time(x0.grid.nodes, vel, L)
    vals = sample_periodic(x0, invert_travel_time(tau_w - t, vel, L))
    if fb is None or fb.gain == 0.0 or t == 0.0:
        return vals
    segs, tau_L = _tau_segments(fb, vel, L)
    expo = np.zeros_like(tau_w)
    for a, b, g in segs:
        expo += g * (_upto(tau_w, a, b, tau_L) - _upto(tau_w - t, a, b, tau_L))
    return vals * np.exp(-expo)


def ref_continuity(x0, t, vel, fb, L):
    """One level: heads p = tau^{-1}(tau(w) + t), seam factor, c'/c and gain."""
    nodes = x0.grid.nodes
    tau_w = travel_time(nodes, vel, L)
    p = invert_travel_time(tau_w + t, vel, L)
    boundary = (vel.eval(0.0) / vel.eval(L)) ** np.floor(p / L)
    expo = log_speed_integral(p, vel, L) - log_speed_integral(nodes, vel, L)
    segs, tau_L = _tau_segments(fb, vel, L)
    gain = np.zeros_like(tau_w)
    for a, b, g in segs:
        gain += g * (_upto(tau_w + t, a, b, tau_L) - _upto(tau_w, a, b, tau_L))
    expo -= gain
    return boundary * np.exp(expo) * sample_periodic(x0, p % L)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ------------------------------------------------------------------ cases

L1 = 1.0
LAYOUTS = {
    "empty": IntervalUnion(),
    "finite": IntervalUnion(prefix=((0.1, 0.3), (0.55, 0.6))),
    "periodic": IntervalUnion(tail=(0.25, ((0.0, 0.05), (0.1, 0.12)))),
    "full": IntervalUnion(prefix=((0.0, 1.0),)),
    "crossing": IntervalUnion(prefix=((0.8, 1.3),)),
}
# c = 2, N = 32 on [0, 1]: 32 steps over T = 0.5 give c*dt = h (whole-cell
# shifts); 23 steps give fractional shifts.
STEPS = {"cfl": 32, "fractional": 23}


def bump(grid, center=0.45, width=0.5):
    d = np.abs(grid.nodes - center)
    s = 2 * d / width
    vals = np.where(s < 1, np.exp(1 - 1 / np.maximum(1e-300, 1 - s * s)), 0.0)
    vals[0] = 0.0
    return GridFunction(grid, vals)


@pytest.mark.parametrize("steps", sorted(STEPS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("gain", [0.0, 0.7, 5.0])
def test_transport_levels_match_one_level_calls(gain, layout, steps):
    grid, c = Grid1D(L1, 32), 2.0
    times = TimeGrid(0.5, STEPS[steps]).times
    x0 = bump(grid)
    fb = FeedbackProfile(LAYOUTS[layout], gain)
    damped = transport_levels(x0, times, c, L1, fb)
    free = transport_levels(x0, times, c, L1)
    segs = fb.segments(L1)
    for m, t in enumerate(times):
        t = float(t)
        assert same_bits(damped[m], transport_damped(x0, t, c, fb, L1).values)
        assert same_bits(damped[m], ref_transport(x0, t, c, segs, L1))
        assert same_bits(free[m], transport_free(x0, t, c, L1).values)
        assert same_bits(free[m], ref_transport(x0, t, c, (), L1))
    assert same_bits(damped[0], x0.values)
    assert same_bits(free[0], x0.values)


@pytest.mark.parametrize("steps", sorted(STEPS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("gain", [0.0, 0.7, 5.0])
def test_wave_levels_match_one_level_calls(gain, layout, steps):
    grid, c = Grid1D(L1, 32), 2.0
    times = TimeGrid(0.5, STEPS[steps]).times
    x0 = bump(grid)
    x1 = GridFunction(grid, np.cos(2 * np.pi * grid.nodes))
    dom = LAYOUTS[layout]
    disp, veloc = wave_levels(x0, x1, times, c, FeedbackProfile(dom, gain), L1)
    for m, t in enumerate(times):
        t = float(t)
        state = wave_damped(x0, x1, t, c, FeedbackProfile(dom, gain), L1)
        want_d, want_v = ref_wave(x0, x1, t, c, gain, dom, L1)
        assert same_bits(disp[m], state.displacement.values)
        assert same_bits(veloc[m], state.velocity.values)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


# Levels per block at row width 64: N = 64 on [0, L] for transport,
# variable-speed transport and continuity, N = 32 for the wave, whose rows
# span the doubled circle (width 2N).
B = levels_per_block(64)
EDGE_GRID, EDGE_WAVE_GRID = Grid1D(L1, 64), Grid1D(L1, 32)


@pytest.mark.parametrize("levels", [1, B, B + 1, 2 * B + 3])
def test_level_counts_across_block_edges(levels):
    c, gain = 1.3, 0.7
    dom = LAYOUTS["finite"]
    fb = FeedbackProfile(dom, gain)
    times = np.arange(levels) * 0.0123  # fractional shifts, t = 0 first
    segs = fb.segments(L1)
    x0 = bump(EDGE_GRID)
    rows = transport_levels(x0, times, c, L1, fb)
    assert rows.shape == (levels, EDGE_GRID.N)
    vel = sinusoid(0.5)
    var = transport_variable_levels(x0, times, vel, L1, fb)
    cont = continuity_levels(x0, times, vel, fb, L1)
    for m, t in enumerate(times.tolist()):
        assert same_bits(rows[m], ref_transport(x0, t, c, segs, L1))
        assert same_bits(var[m], ref_transport_variable(x0, t, vel, L1, fb))
        assert same_bits(cont[m], ref_continuity(x0, t, vel, fb, L1))
    y0 = bump(EDGE_WAVE_GRID)
    y1 = GridFunction(EDGE_WAVE_GRID, np.zeros(EDGE_WAVE_GRID.N))
    disp, veloc = wave_levels(y0, y1, times, c, fb, L1)
    assert disp.shape == veloc.shape == (levels, EDGE_WAVE_GRID.N)
    for m, t in enumerate(times.tolist()):
        want_d, want_v = ref_wave(y0, y1, t, c, gain, dom, L1)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


_FIELDS = {}


def sinusoid(amp, L=L1):
    """2 + amp sin(2 pi w / L), one field per amplitude so its tables are
    built once for the module."""
    if amp not in _FIELDS:
        k = 2.0 * math.pi / L
        _FIELDS[amp] = VelocityField.variable(
            lambda w: 2.0 + amp * np.sin(k * w),
            2.0 - abs(amp),
            2.0 + abs(amp),
            derivative=lambda w: amp * k * np.cos(k * w),
        )
    return _FIELDS[amp]


@pytest.mark.parametrize("amp", [0.5, -0.5])
@pytest.mark.parametrize("layout", ["finite", "periodic"])
@pytest.mark.parametrize("gain", [0.0, 1.5])
@pytest.mark.parametrize("levels", [1, B, B + 1])
def test_variable_speed_levels_match_one_level_calls(levels, gain, layout, amp):
    grid, vel = EDGE_GRID, sinusoid(amp)
    fb = FeedbackProfile(LAYOUTS[layout], gain)
    times = np.arange(levels) * 0.0173  # t = 0 first, then past one period
    x0 = bump(grid)
    rows = transport_variable_levels(x0, times, vel, L1, fb)
    free = transport_variable_levels(x0, times, vel, L1)
    cont = continuity_levels(x0, times, vel, fb, L1)
    assert rows.shape == free.shape == cont.shape == (levels, grid.N)
    for m, t in enumerate(times):
        t = float(t)
        assert same_bits(rows[m], transport_variable(x0, t, vel, L1, fb).values)
        assert same_bits(rows[m], ref_transport_variable(x0, t, vel, L1, fb))
        assert same_bits(free[m], transport_variable(x0, t, vel, L1).values)
        assert same_bits(free[m], ref_transport_variable(x0, t, vel, L1, None))
        assert same_bits(cont[m], continuity_damped(x0, t, vel, fb, L1).values)
        assert same_bits(cont[m], ref_continuity(x0, t, vel, fb, L1))


@pytest.mark.parametrize("levels", [1, B + 1])
def test_no_damping_takes_the_damped_path_bit_for_bit(levels):
    # no profile, a zero gain and an empty control set all measure no
    # segments: the exponent is exactly 0.0 and exp(-0.0) multiplies each
    # row by exactly 1.0, so the three agree bit for bit, with each other
    # and with the undamped per-level references
    grid, c, vel = EDGE_GRID, 1.3, sinusoid(0.5)
    times = np.arange(levels) * 0.0173
    x0 = bump(grid)
    x1 = GridFunction(grid, np.cos(2 * np.pi * grid.nodes))
    undamped = [None, FeedbackProfile(LAYOUTS["finite"], 0.0), FeedbackProfile(IntervalUnion(), 1.5)]
    runs = {
        "transport": [transport_levels(x0, times, c, L1, fb) for fb in undamped],
        "variable": [transport_variable_levels(x0, times, vel, L1, fb) for fb in undamped],
        "continuity": [continuity_levels(x0, times, vel, fb, L1) for fb in undamped],
        "wave": [np.stack(wave_levels(x0, x1, times, c, fb, L1)) for fb in undamped],
    }
    for rows in runs.values():
        assert same_bits(rows[0], rows[1]) and same_bits(rows[0], rows[2])
    no_segments = FeedbackProfile(IntervalUnion(), 0.0)
    for m, t in enumerate(times.tolist()):
        assert same_bits(runs["transport"][0][m], ref_transport(x0, t, c, (), L1))
        assert same_bits(runs["variable"][0][m], ref_transport_variable(x0, t, vel, L1, None))
        assert same_bits(runs["continuity"][0][m], ref_continuity(x0, t, vel, no_segments, L1))
        assert same_bits(runs["wave"][0][:, m], np.stack(ref_wave(x0, x1, t, c, 0.0, IntervalUnion(), L1)))


# (amplitude, time step, levels) at which a level's Newton iteration on
# (levels, 16) arrays converges a step before the slowest one; one more step
# there moves last bits, so each level must stop on its own
NEWTON_CASES = [
    (0.9, 0.025450336163043732, 48),
    (0.5, 0.030373925815291424, 32),
    (0.5, 0.04186743516100267, 97),
    (-0.5, 0.009835862851486847, 132),
]


@pytest.mark.parametrize("amp, dt, levels", NEWTON_CASES)
def test_variable_speed_levels_stop_newton_per_level(amp, dt, levels):
    grid, vel = Grid1D(L1, 16), sinusoid(amp)
    fb = FeedbackProfile(LAYOUTS["finite"], 1.5)
    times = np.arange(levels) * dt
    x0 = GridFunction(grid, 1.5 + np.sin(2.0 * np.pi * grid.nodes))
    rows = transport_variable_levels(x0, times, vel, L1, fb)
    cont = continuity_levels(x0, times, vel, fb, L1)
    for m, t in enumerate(times):
        assert same_bits(rows[m], transport_variable(x0, float(t), vel, L1, fb).values)
        assert same_bits(cont[m], continuity_damped(x0, float(t), vel, fb, L1).values)


def test_level_routines_reject_negative_times():
    grid = Grid1D(L1, 16)
    x0 = bump(grid)
    vel = sinusoid(0.5)
    fb = FeedbackProfile(LAYOUTS["finite"], 1.0)
    with pytest.raises(ValueError, match="t >= 0"):
        transport_levels(x0, [0.0, 0.1, -0.1], 1.0, L1)
    with pytest.raises(ValueError, match="t >= 0"):
        wave_levels(x0, x0, [0.2, -1e-3], 1.0, FeedbackProfile(IntervalUnion(), 0.0), L1)
    with pytest.raises(ValueError, match="t >= 0"):
        transport_variable_levels(x0, [0.0, -0.1], vel, L1, fb)
    with pytest.raises(ValueError, match="t >= 0"):
        continuity_levels(x0, [0.3, -1e-3], vel, fb, L1)
    with pytest.raises(ValueError, match="t >= 0"):
        transport_variable(x0, -0.1, vel, L1)
    with pytest.raises(ValueError, match="t >= 0"):
        continuity_damped(x0, -0.1, vel, fb, L1)


def test_continuity_levels_keep_the_finite_check():
    # where c(p) > c(w) the c'/c factor exp(int_w^p c'/c) pushes 1e308 past
    # the largest float; the t = 0 row alone stays finite
    grid, vel = Grid1D(L1, 16), sinusoid(0.9)
    fb = FeedbackProfile(IntervalUnion(), 0.0)
    x0 = GridFunction(grid, np.full(grid.N, 1e308))
    # the overflow surfaces as the ValueError alone, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            continuity_levels(x0, [0.0, 0.25], vel, fb, L1)
        with pytest.raises(ValueError, match="must be finite"):
            continuity_damped(x0, 0.25, vel, fb, L1)
        continuity_damped(x0, 0.0, vel, fb, L1)


def test_variable_speed_tables_take_a_handful_of_evaluator_calls():
    # one call per array: the tau table is one call over all its panels and
    # tau at the nodes one more; a per-point evaluator would be called
    # (panels + N) * 16 times
    calls = []

    def ev(w):
        calls.append(np.shape(w))
        return 2.0 + 0.5 * np.sin(2.0 * math.pi * w)

    vel = VelocityField.variable(ev, 1.5, 2.5)
    grid = Grid1D(L1, 64)
    travel_time(grid.nodes, vel, L1)
    assert len(calls) == 2
    assert calls[0][-1] == calls[1][-1] == 16
    assert calls[1] == (grid.N, 16)
    calls.clear()
    transport_variable_levels(bump(grid), np.arange(levels_per_block(grid.N) + 1) * 0.01, vel, L1)
    # tau(nodes) once, then per block at most 8 Newton steps of two calls
    assert 0 < len(calls) <= 1 + 2 * 2 * 8


def test_wave_levels_keep_the_finite_check():
    # finite data and fold, but after one cell of travel the central
    # difference of 1e308 * (0, 1, 0, -1, ...) overflows in the velocity
    grid = Grid1D(L1, 32)
    x0 = GridFunction(grid, 1e308 * np.sin(0.5 * np.pi * np.arange(grid.N)))
    x1 = GridFunction(grid, np.zeros(grid.N))
    times = [0.0, grid.h]
    fb = FeedbackProfile(IntervalUnion(), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            wave_levels(x0, x1, times, 1.0, fb, L1)
        with pytest.raises(ValueError, match="must be finite"):
            wave_damped(x0, x1, grid.h, 1.0, fb, L1)
        wave_damped(x0, x1, 0.0, 1.0, fb, L1)


@st.composite
def layouts(draw):
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.4), min_size=0, max_size=6, unique=True)))
    pairs = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts) - 1, 2)]
    return IntervalUnion(prefix=tuple((a, b) for a, b in pairs if b > a))


@settings(max_examples=40, deadline=None)
@given(
    dom=layouts(),
    n=st.integers(4, 40),
    steps=st.integers(1, 300),
    T=st.floats(0.05, 4.0),
    c=st.floats(0.3, 3.0),
    gain=st.sampled_from([0.0, 0.7, 5.0]),
)
def test_levels_match_reference_on_random_layouts(dom, n, steps, T, c, gain):
    grid = Grid1D(L1, n)
    rng = np.random.default_rng(n * 1000 + steps)
    vals = rng.standard_normal(n)
    vals[0] = 0.0
    x0, x1 = GridFunction(grid, vals), GridFunction(grid, rng.standard_normal(n))
    times = TimeGrid(T, steps).times
    fb = FeedbackProfile(dom, gain)
    rows = transport_levels(x0, times, c, L1, fb)
    disp, veloc = wave_levels(x0, x1, times, c, fb, L1)
    segs = fb.segments(L1)
    for m in range(0, steps + 1, max(1, steps // 16)):
        t = float(times[m])
        assert same_bits(rows[m], ref_transport(x0, t, c, segs, L1))
        want_d, want_v = ref_wave(x0, x1, t, c, gain, dom, L1)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


# ---------------------------------------------------------------- simulate

SIM_DOMAIN = {"finite": [[0.1, 0.35], [0.7, 0.8]]}


def _simulate(tmp_path, cfg):
    """Run simulate on cfg; returns the output directory and the initial data."""
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    plan = {k: v for k, v in cfg.items() if k != "equation"}
    return out, plan_from_config(plan).realize().x0


@pytest.mark.parametrize("steps", [None, 37])  # CFL default; fractional shifts
def test_simulate_damped_transport_equals_per_level_reference(tmp_path, steps):
    time = {"T": 0.5} if steps is None else {"T": 0.5, "steps": steps}
    cfg = {
        "equation": "transport",
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": time,
        "velocity": {"type": "constant", "value": 2.0},
        "control_domain": SIM_DOMAIN,
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
        "feedback_gain": 1.5,
    }
    out, x0 = _simulate(tmp_path, cfg)
    grid, tgrid, field = read_field_csv(out / "field.csv")
    dom = IntervalUnion(prefix=tuple(tuple(iv) for iv in SIM_DOMAIN["finite"]))
    segs = FeedbackProfile(dom, 1.5).segments(1.0)
    for m, t in enumerate(tgrid.times):
        assert same_bits(field[m], ref_transport(x0, float(t), 2.0, segs, 1.0))


@pytest.mark.parametrize("equation", ["transport-var", "continuity"])
def test_simulate_variable_speed_equals_one_level_calls(tmp_path, equation):
    cfg = {
        "equation": equation,
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": {"T": 4.0},  # 321 levels at c_max dt = h
        "velocity": {"type": "sinusoidal", "mean": 2.0, "amplitude": -0.5},
        "control_domain": SIM_DOMAIN,
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
        "feedback_gain": 1.5,
    }
    out, x0 = _simulate(tmp_path, cfg)
    grid, tgrid, field = read_field_csv(out / "field.csv")
    assert tgrid.M + 1 > levels_per_block(grid.N)  # more than one block of levels
    vel = plan_from_config({k: v for k, v in cfg.items() if k != "equation"}).realize().velocity
    dom = IntervalUnion(prefix=tuple(tuple(iv) for iv in SIM_DOMAIN["finite"]))
    fb = FeedbackProfile(dom, 1.5)
    for m, t in enumerate(tgrid.times):
        if equation == "transport-var":
            want = transport_variable(x0, float(t), vel, 1.0, fb)
        else:
            want = continuity_damped(x0, float(t), vel, fb, 1.0)
        assert same_bits(field[m], want.values)


def test_simulate_wave_equals_per_level_reference(tmp_path):
    cfg = {
        "equation": "wave",
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": {"T": 3.0},
        "velocity": {"type": "constant", "value": 1.5},
        "control_domain": SIM_DOMAIN,
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
        "feedback_gain": 1.0,
    }
    out, x0 = _simulate(tmp_path, cfg)
    grid, tgrid, disp = read_field_csv(out / "displacement.csv")
    _, _, veloc = read_field_csv(out / "velocity.csv")
    assert tgrid.M + 1 > levels_per_block(2 * grid.N)  # more than one block of levels
    x1 = GridFunction(grid, np.zeros(grid.N))
    dom = IntervalUnion(prefix=tuple(tuple(iv) for iv in SIM_DOMAIN["finite"]))
    for m, t in enumerate(tgrid.times):
        want_d, want_v = ref_wave(x0, x1, float(t), 1.5, 1.0, dom, 1.0)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


def test_simulate_wave_non_finite_levels_exit_2(tmp_path, capsys):
    cfg = {
        "equation": "wave",
        "grid": {"L": 1.0, "nodes_per_unit": 16},
        "time": {"T": 0.25, "steps": 4},
        "velocity": {"type": "constant", "value": 1.0},
        "control_domain": {"finite": [[0.0, 0.5]]},
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
        "feedback_gain": 1e308,
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    # the overflow is reported once, as the finiteness check's error, not as a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert "grid function values must be finite" in capsys.readouterr().err
    assert not out.exists()
