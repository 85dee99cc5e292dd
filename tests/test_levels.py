"""Block-wise level routines against the one-level propagators and against
an in-test per-level reference that redoes the shift, the damping exponent
and the wave fold one time level at a time.  Every comparison is bit for
bit (int64 views), since the level routines do the same arithmetic.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplq.cli import main, plan_from_config, read_field_csv
from hyplq.geometry import Grid1D, GridFunction, IntervalUnion, TimeGrid, restrict_domain
from hyplq.semigroup import (
    LEVEL_BLOCK,
    FeedbackProfile,
    sample_periodic,
    transport_damped,
    transport_free,
    transport_levels,
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
    fb = FeedbackProfile.uniform(LAYOUTS[layout], gain)
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
    disp, veloc = wave_levels(x0, x1, times, c, gain, dom, L1)
    for m, t in enumerate(times):
        t = float(t)
        state = wave_damped(x0, x1, t, c, gain, dom, L1)
        want_d, want_v = ref_wave(x0, x1, t, c, gain, dom, L1)
        assert same_bits(disp[m], state.displacement.values)
        assert same_bits(veloc[m], state.velocity.values)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


@pytest.mark.parametrize("levels", [1, LEVEL_BLOCK, LEVEL_BLOCK + 1, 2 * LEVEL_BLOCK + 3])
def test_level_counts_across_block_edges(levels):
    grid, c, gain = Grid1D(L1, 16), 1.3, 0.7
    dom = LAYOUTS["finite"]
    fb = FeedbackProfile.uniform(dom, gain)
    times = np.arange(levels) * 0.0123  # fractional shifts, t = 0 first
    x0 = bump(grid)
    x1 = GridFunction(grid, np.zeros(grid.N))
    rows = transport_levels(x0, times, c, L1, fb)
    disp, veloc = wave_levels(x0, x1, times, c, gain, dom, L1)
    assert rows.shape == disp.shape == veloc.shape == (levels, grid.N)
    segs = fb.segments(L1)
    for m, t in enumerate(times):
        assert same_bits(rows[m], ref_transport(x0, float(t), c, segs, L1))
        want_d, want_v = ref_wave(x0, x1, float(t), c, gain, dom, L1)
        assert same_bits(disp[m], want_d)
        assert same_bits(veloc[m], want_v)


def test_level_routines_reject_negative_times():
    grid = Grid1D(L1, 16)
    x0 = bump(grid)
    with pytest.raises(ValueError, match="t >= 0"):
        transport_levels(x0, [0.0, 0.1, -0.1], 1.0, L1)
    with pytest.raises(ValueError, match="t >= 0"):
        wave_levels(x0, x0, [0.2, -1e-3], 1.0, 0.0, IntervalUnion(), L1)


def test_wave_levels_keep_the_finite_check():
    # finite data and fold, but after one cell of travel the central
    # difference of 1e308 * (0, 1, 0, -1, ...) overflows in the velocity
    grid = Grid1D(L1, 32)
    x0 = GridFunction(grid, 1e308 * np.sin(0.5 * np.pi * np.arange(grid.N)))
    x1 = GridFunction(grid, np.zeros(grid.N))
    times = [0.0, grid.h]
    with pytest.raises(ValueError, match="must be finite"):
        wave_levels(x0, x1, times, 1.0, 0.0, IntervalUnion(), L1)
    with pytest.raises(ValueError, match="must be finite"):
        wave_damped(x0, x1, grid.h, 1.0, 0.0, IntervalUnion(), L1)
    wave_damped(x0, x1, 0.0, 1.0, 0.0, IntervalUnion(), L1)


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
    fb = FeedbackProfile.uniform(dom, gain)
    rows = transport_levels(x0, times, c, L1, fb)
    disp, veloc = wave_levels(x0, x1, times, c, gain, dom, L1)
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
    segs = FeedbackProfile.uniform(dom, 1.5).segments(1.0)
    for m, t in enumerate(tgrid.times):
        assert same_bits(field[m], ref_transport(x0, float(t), 2.0, segs, 1.0))


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
    assert tgrid.M + 1 > LEVEL_BLOCK  # more than one block of levels
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
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert "grid function values must be finite" in capsys.readouterr().err
    assert out.is_dir()
    assert list(out.iterdir()) == []
