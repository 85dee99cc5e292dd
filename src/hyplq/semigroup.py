"""Closed-form propagators for the periodic transport, continuity, and wave
equations, damped by one feedback gain on the control set.

These are the analytic references the finite-difference optimal-control
solver is validated against.  Transport solutions are periodized shifts with
an exact exponential attenuation collected along characteristics; the damped
wave equation is reduced to one damped transport problem on the doubled
interval via its Riemann invariants and solved by the same machinery.

Every attenuation exponent is geometry.periodized_measure of the damping
segments; undamped runs take the same path, as no segments measure exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .characteristics import VelocityField, invert_travel_time, log_speed_integral, travel_time

# Unused here, but perfbench/spans.py wraps these names on this module.
from .characteristics import flow_backward, flow_forward, path_integral  # noqa: F401
from .domain_check import RateCertificate
from .geometry import (
    Grid1D,
    GridFunction,
    IntervalUnion,
    periodized_measure,
    restrict_domain,
    smooth_bump,
)

__all__ = [
    "FeedbackProfile",
    "WaveState",
    "sample_periodic",
    "transport_free",
    "transport_damped",
    "transport_levels",
    "transport_variable",
    "transport_variable_levels",
    "continuity_damped",
    "continuity_levels",
    "continuity_stabilizing_gain",
    "wave_dalembert",
    "wave_damped",
    "wave_levels",
    "wave_energy",
    "estimate_operator_norm",
]


def sample_periodic(f: GridFunction, positions) -> np.ndarray:
    """Linear periodic interpolation of grid-node values at arbitrary points."""
    g = f.grid
    pos = np.asarray(positions, dtype=float) % g.L
    s = pos / g.h
    base = np.floor(s)
    frac = s - base
    idx = base.astype(int) % g.N
    nxt = (idx + 1) % g.N
    return (1.0 - frac) * f.values[idx] + frac * f.values[nxt]


# ---------------------------------------------------------------------------
# feedback profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedbackProfile:
    """The stabilizing feedback: one damping gain >= 0 on the control set
    ``domain``, zero elsewhere.

    Every propagator takes this one value.  Transport and continuity damp
    with gain * chi_domain directly; the wave applies it through its
    Riemann fold.  A missing profile or a zero gain means no damping.
    """

    domain: IntervalUnion
    gain: float

    def __post_init__(self):
        gain = float(self.gain)
        object.__setattr__(self, "gain", gain)
        if not (math.isfinite(gain) and gain >= 0.0):
            raise ValueError(f"gains must be finite and nonnegative, got {gain}")

    def segments(self, L: float) -> tuple:
        """The control set clipped to [0, L] as (a, b, gain) triples."""
        return tuple((a, b, self.gain) for a, b in restrict_domain(self.domain, L).prefix)


def _damping(fb: Optional[FeedbackProfile], L: float) -> tuple:
    """fb's segments on [0, L], or () when fb does not damp."""
    return () if fb is None or fb.gain == 0.0 else fb.segments(L)


# ---------------------------------------------------------------------------
# transport propagators
# ---------------------------------------------------------------------------


def _require_grid(x0: GridFunction, L: float):
    if abs(x0.grid.L - L) > 1e-12 * max(1.0, L):
        raise ValueError(f"grid length {x0.grid.L} does not match domain {L}")


# Bytes of one (levels, width) float temporary of a level block.  Under
# malloc's 128 KiB mmap threshold a block's temporaries are reused from the
# heap; above it each one is mapped, page-faulted in and unmapped again.
LEVEL_BLOCK_BYTES = 64 * 1024


def levels_per_block(width: int) -> int:
    """Time levels resolved per block for rows of `width` floats: 16 on the
    wave's doubled circle at N = 256 (width 2N), 128 for width 64."""
    return max(1, LEVEL_BLOCK_BYTES // (8 * width))


def _level_blocks(n: int, width: int) -> list:
    step = levels_per_block(width)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _check_times(times, c: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    if not c > 0 or not np.all(times >= 0):
        raise ValueError(f"need c > 0 and t >= 0, got c={c}, t={times.min(initial=0.0)}")
    return times


def _require_finite(rows: np.ndarray) -> None:
    if not np.all(np.isfinite(rows)):
        raise ValueError("grid function values must be finite")


def _shift_rows(x0: GridFunction, times: np.ndarray, c: float, segs, L: float) -> np.ndarray:
    """One row per time: exp(-(1/c) * int_{w-ct}^{w} gain) * x0((w - ct) mod L).

    Integer shifts (ct/h in Z) gather the node values exactly; other times
    interpolate linearly.  The exponent is the exact measure of the
    periodized segments inside each window, weighted per segment.
    """
    grid = x0.grid
    cells = c * times / grid.h
    s = np.rint(cells)
    exact = np.abs(cells - s) <= 1e-9 * np.maximum(1.0, np.abs(cells))
    feet = grid.nodes - (c * times)[:, None]
    rows = np.empty_like(feet)
    if exact.any():
        shift = np.mod(s[exact], grid.N).astype(np.int64)
        rows[exact] = x0.values[(np.arange(grid.N) - shift[:, None]) % grid.N]
    if not exact.all():
        rows[~exact] = sample_periodic(x0, feet[~exact])
    rows *= np.exp(-periodized_measure(segs, L, feet, grid.nodes) / c)
    _require_finite(rows)
    return rows


def transport_levels(
    x0: GridFunction,
    times,
    c: float,
    L: float,
    fb: Optional[FeedbackProfile] = None,
) -> np.ndarray:
    """Rows x(., t) of the constant-speed transport for every t of times,
    damped by fb when given (see transport_damped), resolved
    levels_per_block(N) levels at a time."""
    times = _check_times(times, c)
    _require_grid(x0, L)
    segs = _damping(fb, L)
    out = np.empty((times.size, x0.grid.N))
    for block in _level_blocks(times.size, x0.grid.N):
        out[block] = _shift_rows(x0, times[block], c, segs, L)
    return out


def transport_free(x0: GridFunction, t: float, c: float, L: float) -> GridFunction:
    """Periodized shift x(w, t) = x0((w - ct) mod L).

    Integer shifts (ct/h in Z) permute the node values exactly; other
    times interpolate linearly.
    """
    return GridFunction(x0.grid, transport_levels(x0, [t], c, L)[0])


def transport_damped(
    x0: GridFunction, t: float, c: float, fb: FeedbackProfile, L: float
) -> GridFunction:
    """Shift combined with the attenuation factor collected along the way:
    x(w, t) = exp(-(1/c) * int_{w-ct}^{w} gain) * x0((w - ct) mod L).

    The exponent is the exact measure of the periodized damping set inside
    the window, weighted per interval.
    """
    return GridFunction(x0.grid, transport_levels(x0, [t], c, L, fb)[0])


def _time_segments(segs, vel: VelocityField, L: float):
    """The feedback segments with their ends mapped through tau, and tau_L.

    In travel-time coordinates the speed is 1, so int gain/c over a window
    of x is the gain-weighted overlap of the window's tau-image with these
    segments, periodized with period tau_L.
    """
    ends = travel_time([e for a, b, _ in segs for e in (a, b)] + [L], vel, L)
    tau_segs = [(ends[2 * i], ends[2 * i + 1], g) for i, (_, _, g) in enumerate(segs)]
    return tau_segs, float(ends[-1])


def transport_variable_levels(
    x0: GridFunction,
    times,
    vel: VelocityField,
    L: float,
    fb: Optional[FeedbackProfile] = None,
) -> np.ndarray:
    """Rows x(., t) of the variable-speed transport for every t of times.

    Each node is traced back along its characteristic,
    q = tau^{-1}(tau(w) - t), the periodized initial state is evaluated
    there, and the attenuation exp(-int_q^w gain/c) is applied when a
    feedback profile is given.  tau at the nodes and the tau-mapped
    feedback segments are computed once; levels are resolved
    levels_per_block(N) at a time.
    """
    times = _check_times(times, vel.c_min)
    _require_grid(x0, L)
    grid = x0.grid
    tau_w = travel_time(grid.nodes, vel, L)
    segs, tau_L = _time_segments(_damping(fb, L), vel, L)
    out = np.empty((times.size, grid.N))
    for block in _level_blocks(times.size, grid.N):
        feet = tau_w - times[block, None]
        rows = sample_periodic(x0, invert_travel_time(feet, vel, L))
        rows *= np.exp(-periodized_measure(segs, tau_L, feet, tau_w))
        _require_finite(rows)
        out[block] = rows
    return out


def transport_variable(
    x0: GridFunction,
    t: float,
    vel: VelocityField,
    L: float,
    fb: Optional[FeedbackProfile] = None,
) -> GridFunction:
    """Variable-speed transport at one time (see transport_variable_levels)."""
    return GridFunction(x0.grid, transport_variable_levels(x0, [t], vel, L, fb)[0])


# ---------------------------------------------------------------------------
# continuity equation
# ---------------------------------------------------------------------------


def continuity_levels(
    x0: GridFunction,
    times,
    vel: VelocityField,
    fb: Optional[FeedbackProfile],
    L: float,
) -> np.ndarray:
    """Rows of the damped continuity solution for every t of times, by the
    composite characteristic formula:

        x(w, t) = (c(0)/c(L))^{N_L} * exp(int_w^{p} (c' - gain)/c) * x0(p mod L)

    with p = tau^{-1}(tau(w) + t) the forward characteristic and
    N_L = floor(p/L) the number of seam crossings (the flux-periodic
    boundary factor).  The c'/c part comes from a cumulative table, the
    gain part from the tau-space window.  tau and the c'/c integral at the
    nodes and the tau-mapped segments are computed once; levels are
    resolved levels_per_block(N) at a time.
    """
    times = _check_times(times, vel.c_min)
    _require_grid(x0, L)
    grid = x0.grid
    log_w = log_speed_integral(grid.nodes, vel, L)
    seam = vel.eval(0.0) / vel.eval(L)
    tau_w = travel_time(grid.nodes, vel, L)
    segs, tau_L = _time_segments(_damping(fb, L), vel, L)
    out = np.empty((times.size, grid.N))
    for block in _level_blocks(times.size, grid.N):
        heads = tau_w + times[block, None]
        p = invert_travel_time(heads, vel, L)
        expo = log_speed_integral(p, vel, L) - log_w
        expo -= periodized_measure(segs, tau_L, tau_w, heads)
        # an overflow is reported by the finiteness check, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            rows = seam ** np.floor(p / L) * np.exp(expo) * sample_periodic(x0, p % L)
        _require_finite(rows)
        out[block] = rows
    return out


def continuity_damped(
    x0: GridFunction,
    t: float,
    vel: VelocityField,
    fb: Optional[FeedbackProfile],
    L: float,
) -> GridFunction:
    """Damped continuity solution at one time (see continuity_levels)."""
    return GridFunction(x0.grid, continuity_levels(x0, [t], vel, fb, L)[0])


def continuity_stabilizing_gain(
    rate: float,
    vel: VelocityField,
    cert: RateCertificate,
    c_prime_sup: float = 0.0,
) -> float:
    """Uniform damping gain guaranteeing closed-loop continuity decay at
    least ``rate``, built from the interval certificate of the active domain.

    The seam-crossing growth is absorbed by k_alpha = ln(c_max/c_min) *
    c_max, valid for domain lengths L >= 1.
    """
    if rate <= 0:
        raise ValueError(f"target rate must be positive, got {rate}")
    k_alpha = max(0.0, math.log(vel.c_max / vel.c_min)) * vel.c_max
    k_exp = cert.k * vel.c_min
    return (
        vel.c_max
        * (rate + k_alpha + (vel.c_max / vel.c_min) * c_prime_sup)
        * cert.K
        / k_exp
    )


# ---------------------------------------------------------------------------
# wave equation via Riemann invariants on the doubled interval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveState:
    """Dirichlet wave snapshot: displacement and velocity on [0, L], plus
    the folded Riemann variable v on the doubled circle [0, 2L] from which
    both were reconstructed (zeta1 = v, zeta2 = reflected v).
    """

    displacement: GridFunction
    velocity: GridFunction
    folded: GridFunction

    def __post_init__(self):
        scale = 1.0 + float(np.max(np.abs(self.displacement.values)))
        if abs(self.displacement.values[0]) > 1e-9 * scale:
            raise ValueError("displacement must vanish at the boundary")

    def zeta1(self) -> GridFunction:
        return self.folded

    def zeta2(self) -> GridFunction:
        n2 = self.folded.grid.N
        idx = (n2 - np.arange(n2)) % n2
        return GridFunction(self.folded.grid, self.folded.values[idx])


def _odd_extension(vals: np.ndarray) -> np.ndarray:
    """Odd 2L-periodic extension on the doubled grid, endpoints zeroed."""
    n = len(vals)
    out = np.zeros(2 * n)
    out[1:n] = vals[1:]
    out[n + 1 :] = -vals[1:][::-1]
    return out


def _cumtrapz_periodic(g: np.ndarray, h: float) -> np.ndarray:
    steps = 0.5 * h * (g[:-1] + g[1:])
    return np.concatenate([[0.0], np.cumsum(steps)])


def _central_diff(vals: np.ndarray, h: float) -> np.ndarray:
    """Periodic central difference along the last axis."""
    return (np.roll(vals, -1, axis=-1) - np.roll(vals, 1, axis=-1)) / (2.0 * h)


def _check_wave_inputs(x0: GridFunction, x1: GridFunction, c: float, t: float):
    if x0.grid != x1.grid:
        raise ValueError("displacement and velocity live on different grids")
    if c <= 0 or t < 0:
        raise ValueError(f"need c > 0 and t >= 0, got c={c}, t={t}")
    scale = 1.0 + float(np.max(np.abs(x0.values)))
    if abs(x0.values[0]) > 1e-12 * scale:
        raise ValueError("initial displacement must vanish at the boundary")


def wave_dalembert(
    x0: GridFunction, x1: GridFunction, t: float, c: float, L: float
) -> WaveState:
    """Undamped Dirichlet wave solution from the odd 2L-periodic extensions:

        x(w,t) = (X(w+ct) + X(w-ct))/2 + (V(w+ct) - V(w-ct))/(2c)

    with X the extended displacement and V the cumulative integral of the
    extended velocity.  The time derivative uses the same blocks with grid
    central differences in place of analytic derivatives, so it commutes
    exactly with the discrete Riemann reduction.
    """
    _check_wave_inputs(x0, x1, c, t)
    _require_grid(x0, L)
    grid = x0.grid
    n, h = grid.N, grid.h
    grid2 = Grid1D(2.0 * L, 2 * n)

    ext = _odd_extension(x0.values)
    g_ext = _odd_extension(x1.values)
    v_cum = _cumtrapz_periodic(g_ext, h)

    f_ext = GridFunction(grid2, ext)
    f_cum = GridFunction(grid2, v_cum)
    f_dx = GridFunction(grid2, _central_diff(ext, h))
    f_s = GridFunction(grid2, _central_diff(v_cum, h))

    plus = grid.nodes + c * t
    minus = grid.nodes - c * t
    disp = 0.5 * (sample_periodic(f_ext, plus) + sample_periodic(f_ext, minus)) + (
        sample_periodic(f_cum, plus) - sample_periodic(f_cum, minus)
    ) / (2.0 * c)
    veloc = 0.5 * c * (
        sample_periodic(f_dx, plus) - sample_periodic(f_dx, minus)
    ) + 0.5 * (sample_periodic(f_s, plus) + sample_periodic(f_s, minus))

    fold0 = GridFunction(grid2, 0.5 * (c * ext - v_cum))
    folded = transport_free(fold0, t, c, 2.0 * L)
    return WaveState(GridFunction(grid, disp), GridFunction(grid, veloc), folded)


def _mirror_segments(segs: tuple, L: float) -> tuple:
    """Damping set of the folded problem: the segments on [0, L] plus their
    reflection about L, merged where the pieces touch."""
    mirrored = [(2.0 * L - b, 2.0 * L - a, g) for a, b, g in reversed(segs)]
    merged = []
    for a, b, g in list(segs) + mirrored:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b), g)
        else:
            merged.append((a, b, g))
    # a piece shorter than one ulp of 2L mirrors to an empty one: drop it
    return tuple((a, b, g) for a, b, g in merged if b > a)


def _wave_blocks(x0, x1, times, c: float, fb: Optional[FeedbackProfile], L: float):
    """Yield (levels, folded, displacement, velocity) per block of levels.

    The fold data (initial fold, damping gain per node, mirrored segments)
    is built once; each block is one run of the shift kernel on the doubled
    circle, unfolded into displacement and velocity rows.
    """
    times = _check_times(times, c)
    _check_wave_inputs(x0, x1, c, 0.0)
    _require_grid(x0, L)
    grid = x0.grid
    n, h = grid.N, grid.h
    grid2 = Grid1D(2.0 * L, 2 * n)

    segs = _damping(fb, L)
    damp = np.zeros(n)  # gain * chi
    for a, b, g in segs:
        damp[(grid.nodes >= a) & (grid.nodes < b)] = g

    ext = _odd_extension(x0.values)
    g_ext = _odd_extension(x1.values + damp * x0.values)
    v_cum = _cumtrapz_periodic(g_ext, h)
    fold0 = GridFunction(grid2, 0.5 * (c * ext - v_cum))

    segs = _mirror_segments(segs, L)
    refl = (2 * n - np.arange(2 * n)) % (2 * n)

    for block in _level_blocks(times.size, 2 * n):
        w = _shift_rows(fold0, times[block], c, segs, 2.0 * L)
        zeta2 = w[:, refl]
        # an overflow is reported by the finiteness check, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            disp = (w[:, :n] - zeta2[:, :n]) / c
            xi2 = w + zeta2
            veloc = -_central_diff(xi2, h)[:, :n] - damp * disp
        _require_finite(disp)
        _require_finite(veloc)
        scale = 1.0 + np.max(np.abs(disp), axis=1)
        if np.any(np.abs(disp[:, 0]) > 1e-9 * scale):
            raise ValueError("displacement must vanish at the boundary")
        yield block, w, disp, veloc


def wave_levels(
    x0: GridFunction,
    x1: GridFunction,
    times,
    c: float,
    fb: Optional[FeedbackProfile],
    L: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement and velocity rows of the interval-damped Dirichlet wave
    (see wave_damped) for every t of times, from one fold."""
    n_levels = np.asarray(times).size
    disp = np.empty((n_levels, x0.grid.N))
    veloc = np.empty((n_levels, x0.grid.N))
    for block, _, d, v in _wave_blocks(x0, x1, times, c, fb, L):
        disp[block] = d
        veloc[block] = v
    return disp, veloc


def wave_damped(
    x0: GridFunction,
    x1: GridFunction,
    t: float,
    c: float,
    fb: Optional[FeedbackProfile],
    L: float,
) -> WaveState:
    """Interval-damped Dirichlet wave: the feedback -2k*velocity - k^2*x
    acts on the control set of fb, with k its gain.

    The Riemann pair diagonalizes the damped system exactly; folding the
    leftgoing component onto [L, 2L] yields one rightward damped transport
    problem on the doubled circle whose damping set is the control set
    plus its mirror image.  Displacement, velocity, and boundary conditions
    are recovered from the unfolded pair.
    """
    _, folded, disp, veloc = next(_wave_blocks(x0, x1, [t], c, fb, L))
    grid2 = Grid1D(2.0 * L, 2 * x0.grid.N)
    return WaveState(
        GridFunction(x0.grid, disp[0]), GridFunction(x0.grid, veloc[0]), GridFunction(grid2, folded[0])
    )


def wave_energy(state: WaveState) -> float:
    """Discrete wave energy c^2||dx/dw||^2 + ||dx/dt + gain*chi*x||^2,
    evaluated as twice the squared difference-quotient norm of the fold."""
    g2 = state.folded.grid
    d = _central_diff(state.folded.values, g2.h)
    return 2.0 * g2.h * float(np.dot(d, d))


# ---------------------------------------------------------------------------
# empirical operator norm
# ---------------------------------------------------------------------------


def estimate_operator_norm(
    propagator,
    t: float,
    grid: Grid1D,
    n_samples: int,
    control_domain: Optional[IntervalUnion] = None,
) -> float:
    """Lower bound on ||T(t)|| by maximizing ||T(t)x0|| / ||x0|| over
    samples: n_samples random vectors (drawn from seed 0) plus a family of
    adversarial bumps.  When the control domain is known, the bumps sit at
    the midpoint of its largest gap (the data the damping reaches last);
    otherwise a black-box grid of centers and widths is used.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    L = grid.L
    candidates = []

    structured = []
    if control_domain is not None:
        segs = restrict_domain(control_domain, L).prefix
        if segs:
            gaps = []
            for (a1, b1), (a2, _) in zip(segs[:-1], segs[1:]):
                gaps.append((b1, a2 - b1))
            wrap = (segs[0][0] + L) - segs[-1][1]
            gaps.append((segs[-1][1], wrap))
            g_start, g_len = max(gaps, key=lambda g: g[1])
            if g_len > 0:
                mid = (g_start + 0.5 * g_len) % L
                for frac in (0.9, 0.75, 0.5, 1.0 / 3.0, 0.25, 0.15):
                    structured.append((mid, frac * g_len))
    if not structured:
        for cf in (0.125, 0.375, 0.625, 0.875):
            for wf in (0.5, 0.25, 0.1):
                structured.append((cf * L, wf * L))
    for center, width in structured:
        vals = np.array([smooth_bump(w, center, width, L) for w in grid.nodes])
        candidates.append(vals)

    rng = np.random.default_rng(0)
    for _ in range(n_samples):
        candidates.append(rng.standard_normal(grid.N))

    best = 0.0
    for vals in candidates:
        x0 = GridFunction(grid, vals)
        denom = x0.l2_norm()
        if denom == 0.0:
            continue
        best = max(best, propagator(x0, t).l2_norm() / denom)
    return float(best)
