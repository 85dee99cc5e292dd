"""Experiment orchestration, config handling, CSV emission and SVG plots.

The library modules compute; this one sequences them.  A JSON config file
describes one experiment plan (grid resolution, horizon, velocity, control
layout, initial data, sweep lists); `run_experiment` realizes the plan,
writes CSV tables plus JSON summaries into the output directory, and
optionally renders static SVG plots.  Subcommands expose the individual
stages so each artifact can be regenerated from the previous one without
re-solving.

Exit codes: 0 success, 1 negative verdict (check-domain and the
stabilizability demo), 2 numeric failure, 3 config error.

Every plan key and its default is in _PLAN_DEFAULTS; without a pinned
"steps" the number of time steps is chosen so that c_max * dt <= h.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import fit_decay_rate, localization_certificate, time_sliced_l2, weighted_spacetime_norms
from .characteristics import NumericError, VelocityField
from .domain_check import Verdict, certify_rates, check_condition_ii, guaranteed_decay
from .geometry import (
    ExpWeight,
    Grid1D,
    GridFunction,
    IntervalUnion,
    TimeGrid,
    _integral,
    _real,
    _reject_unknown,
    domain_from_config,
    domain_to_config,
    parse_domain,
)
from .ocp import OCPConfig, bump_initial, check_bump_window, factor_plan, solve_bytes, solve_ocp
from .semigroup import (
    FeedbackProfile,
    continuity_levels,
    levels_per_block,
    transport_levels,
    transport_variable_levels,
    wave_levels,
)

# Unused here, but perfbench/spans.py wraps these names on this module.
from .semigroup import continuity_damped, transport_variable  # noqa: F401
from .semigroup import transport_damped, transport_free, wave_damped  # noqa: F401

__all__ = [
    "ConfigError",
    "ExperimentError",
    "ExperimentPlan",
    "emit_plot",
    "main",
    "plan_from_config",
    "plan_to_config",
    "read_field_csv",
    "read_table",
    "run_experiment",
    "write_field_csv",
    "write_table",
]

# Every plan key with its default, in config form.  A plan may also carry a
# free-text "comment", which is not kept.
_PLAN_DEFAULTS = {
    "experiment": "space-time-field",
    "grid": {"L": 4.0, "nodes_per_unit": 128},
    "time": {"T": 5.0, "steps": None},
    "velocity": {"type": "constant", "value": 2.0},
    "alpha": 0.125,
    "control_domain": {"periodic": {"prefix": [], "period": 1.0, "pattern": [[0.0, 0.2]], "start": 0.0}},
    "observation_domain": None,
    "initial": {"type": "bump", "width": 0.8, "center": 0.6},
    "l_values": [],
    "alpha_values": [],
    "out_dir": "hyplq-out",
    "plot": False,
    "feedback_gain": 1.0,
}

# The velocity and initial-data types: each type's config keys, in the
# order of the plan's tagged tuple, with the reader of each value.
_KINDS = {
    "velocity": {
        "constant": (("value", _real),),
        "sinusoidal": (("mean", _real), ("amplitude", _real)),
    },
    "initial": {
        "bump": (("width", _real), ("center", _real)),
        "sine": (("mode", _integral),),
        "zero": (),
    },
}


class ConfigError(Exception):
    """Bad config file, bad plan, bad flags: the user's input is at fault."""


class ExperimentError(RuntimeError):
    """A pipeline stage failed; partial outputs have been removed."""


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    """Normalized description of one experiment.

    velocity and initial are small tagged tuples, the type followed by its
    values in _KINDS order (("constant", c), ("sinusoidal", mean,
    amplitude), ("bump", width, center), ("sine", mode) or ("zero",)), so a
    plan survives a serialize/parse round trip exactly.  Sweep lists are
    kept sorted ascending.
    """

    experiment: str
    L: float
    nodes_per_unit: int
    T: float
    steps: Optional[int]
    velocity: tuple
    alpha: float
    control_domain: IntervalUnion
    observation_domain: Optional[IntervalUnion]
    initial: tuple
    l_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    out_dir: str
    plot: bool
    feedback_gain: float

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(_EXPERIMENTS)}"
            )
        if not (self.L > 0 and self.T > 0 and self.alpha > 0):
            raise ValueError("L, T and alpha must be positive")
        # json reads NaN, Infinity and 1e400; none of them is a usable size
        numbers = (self.L, self.T, self.alpha, self.feedback_gain) + self.velocity[1:] + self.initial[1:]
        if not all(math.isfinite(v) for v in numbers):
            raise ValueError(
                f"plan numbers must be finite: L={self.L}, T={self.T}, alpha={self.alpha}, "
                f"feedback_gain={self.feedback_gain}, velocity={self.velocity}, initial={self.initial}"
            )
        if self.nodes_per_unit < 1:
            raise ValueError(f"nodes_per_unit must be >= 1, got {self.nodes_per_unit}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.feedback_gain < 0:
            raise ValueError(f"feedback gain must be >= 0, got {self.feedback_gain}")
        for key, kinds in _KINDS.items():
            spec = getattr(self, key)
            if spec[0] not in kinds or len(spec) != 1 + len(kinds[spec[0]]):
                raise ValueError(f"unknown {key} spec {spec!r}")
        slowest = self.velocity[1] - (abs(self.velocity[2]) if self.velocity[0] == "sinusoidal" else 0.0)
        if slowest <= 0:
            raise ValueError(f"velocity dips to {slowest}; must stay positive")
        object.__setattr__(self, "l_values", tuple(sorted(float(v) for v in self.l_values)))
        object.__setattr__(
            self, "alpha_values", tuple(sorted(float(v) for v in self.alpha_values))
        )
        if self.experiment == "domain-sweep" and not self.l_values:
            raise ValueError("domain-sweep needs a nonempty l_values list")
        if self.experiment == "alpha-sweep" and not self.alpha_values:
            raise ValueError("alpha-sweep needs a nonempty alpha_values list")
        if not all(math.isfinite(v) and v > 0 for v in self.l_values + self.alpha_values):
            raise ValueError("sweep values must be positive and finite")
        for name, values in (("l_values", self.l_values), ("alpha_values", self.alpha_values)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        for L in (self.L,) + self.l_values:
            cells = round(L * self.nodes_per_unit)
            if cells < 4:
                raise ValueError(
                    f"L={L} at {self.nodes_per_unit} nodes per unit gives {cells} cells; "
                    "a grid needs at least 4"
                )
            if self.initial[0] == "bump":
                check_bump_window(self.initial[1], self.initial[2], L)

    def realize(self, L: Optional[float] = None, alpha: Optional[float] = None) -> OCPConfig:
        """Build the OCPConfig for this plan at an optional overridden size."""
        L = float(L if L is not None else self.L)
        grid = Grid1D(L, int(round(L * self.nodes_per_unit)))
        vel = _velocity_field(self.velocity, L)
        steps = self.steps
        if steps is None:
            steps = max(1, math.ceil(self.T * vel.c_max / grid.h))
        return OCPConfig(
            grid=grid,
            tgrid=TimeGrid(self.T, steps),
            velocity=vel,
            alpha=float(alpha if alpha is not None else self.alpha),
            control_domain=self.control_domain,
            observation_domain=self.observation_domain,
            x0=GridFunction(grid, _initial_values(self.initial, grid)),
        )


def _velocity_field(spec, L: float) -> VelocityField:
    if spec[0] == "constant":
        return VelocityField.constant(spec[1])
    _, mean, amp = spec
    k = 2.0 * math.pi / L
    return VelocityField.variable(
        lambda w: mean + amp * np.sin(k * w),
        mean - abs(amp),
        mean + abs(amp),
        derivative=lambda w: amp * k * np.cos(k * w),
    )


def _initial_values(spec, grid: Grid1D) -> np.ndarray:
    if spec[0] == "bump":
        return bump_initial(spec[1], spec[2], grid).values
    if spec[0] == "sine":
        return np.sin(2.0 * math.pi * spec[1] * grid.nodes / grid.L)
    return np.zeros(grid.N)


def _spec_from_config(key: str, obj: dict) -> tuple:
    """The tagged tuple of a velocity or initial config object."""
    kind = obj.get("type")
    if kind not in _KINDS[key]:
        raise ValueError(f"unknown {key} type {kind!r}")
    fields = _KINDS[key][kind]
    _reject_unknown(obj, ["type", *(name for name, _ in fields)], f"{kind} {key}")
    return (kind, *(read(obj[name], name) for name, read in fields))


def _spec_to_config(key: str, spec: tuple) -> dict:
    """Inverse of _spec_from_config."""
    kind, *values = spec
    return {"type": kind, **{name: v for (name, _), v in zip(_KINDS[key][kind], values)}}


def plan_from_config(obj: dict, out_dir: Optional[str] = None) -> ExperimentPlan:
    """Build a plan from its JSON dict form; see plan_to_config for the shape.

    A key left out, at the top level or inside "grid" or "time", takes its
    _PLAN_DEFAULTS value; a key not in _PLAN_DEFAULTS is an error.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"plan config must be an object, got {type(obj).__name__}")
    _reject_unknown(obj, {*_PLAN_DEFAULTS, "comment"}, "config")
    cfg = {**_PLAN_DEFAULTS, **obj}
    for key in ("grid", "time"):
        _reject_unknown(cfg[key], _PLAN_DEFAULTS[key], key)
        cfg[key] = {**_PLAN_DEFAULTS[key], **cfg[key]}
    grid, time = cfg["grid"], cfg["time"]
    steps, obs, plot = time["steps"], cfg["observation_domain"], cfg["plot"]
    if not isinstance(plot, bool):
        raise ValueError(f"plot must be true or false, got {plot!r}")
    return ExperimentPlan(
        experiment=cfg["experiment"],
        L=_real(grid["L"], "L"),
        nodes_per_unit=_integral(grid["nodes_per_unit"], "nodes_per_unit"),
        T=_real(time["T"], "T"),
        steps=None if steps is None else _integral(steps, "steps"),
        velocity=_spec_from_config("velocity", cfg["velocity"]),
        alpha=_real(cfg["alpha"], "alpha"),
        control_domain=domain_from_config(cfg["control_domain"]),
        observation_domain=None if obs is None else domain_from_config(obs),
        initial=_spec_from_config("initial", cfg["initial"]),
        l_values=tuple(_real(v, "l_values") for v in cfg["l_values"]),
        alpha_values=tuple(_real(v, "alpha_values") for v in cfg["alpha_values"]),
        out_dir=str(out_dir if out_dir is not None else cfg["out_dir"]),
        plot=plot,
        feedback_gain=_real(cfg["feedback_gain"], "feedback_gain"),
    )


def plan_to_config(plan: ExperimentPlan) -> dict:
    """Serialize a plan to the JSON dict form accepted by plan_from_config."""
    obs = plan.observation_domain
    return {
        "experiment": plan.experiment,
        "grid": {"L": plan.L, "nodes_per_unit": plan.nodes_per_unit},
        "time": {"T": plan.T, "steps": plan.steps},
        "velocity": _spec_to_config("velocity", plan.velocity),
        "alpha": plan.alpha,
        "control_domain": domain_to_config(plan.control_domain),
        "observation_domain": None if obs is None else domain_to_config(obs),
        "initial": _spec_to_config("initial", plan.initial),
        "l_values": list(plan.l_values),
        "alpha_values": list(plan.alpha_values),
        "out_dir": plan.out_dir,
        "plot": plan.plot,
        "feedback_gain": plan.feedback_gain,
    }


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


_TMP_IDS = itertools.count()


def _write_atomic(path, chunks) -> None:
    """Write the text chunks (a list or iterator of str) to path through a
    temp file in the same directory and os.replace, so the target never
    holds a partial write; the temp file is removed when writing fails."""
    if isinstance(chunks, str):
        raise TypeError("pass the text as a list or iterator of chunks")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{next(_TMP_IDS)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Float text.  repr writes the shortest digits that read back as the float,
# the nearest of them where several are that short (D. M. Gay, "Correctly
# rounded binary-decimal and decimal-binary conversions", 1990).  For a finite
# x = m 2^E != 0 (m < 2^53 an integer) with decimal exponent k, the scaled
# value V = x 10^(16-k) lies in [1e16, 1e17), and a decimal reads back as x
# when its scaled value lies within half of Q = 2^E 10^(16-k) of V (a quarter
# below V at a power of two).  The digits are then those of the integer in
# that interval with the most trailing zeros, J, the nearer of the two
# multiples of 10^J next to V: fixed-width arithmetic, as in U. Adams, "Ryu:
# fast float-to-string conversion" (PLDI 2018), run on whole arrays.  V is
# known to about 1e-14, so a float whose interval end, or tie between the two
# multiples, lies within _UNSURE of an integer is left to repr, as are
# subnormals, zeros, NaN and inf.

# 10^s = (h + l) 2^b with h in [1, 2), as the rows h, l, b of column
# s - _P10_MIN, for every s = 16 - k a float's k and its fix-up can give.
_P10_MIN = -293
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float into 26-bit halves
_UNSURE = 1e-9


@functools.cache
def _ten_powers() -> np.ndarray:
    """The rows h, l, b of 10^s for s = _P10_MIN ... _P10_MIN + 634, each
    column computed exactly from Python ints."""
    cols = []
    for t in range(_P10_MIN, _P10_MIN + 635):
        num, den = (10**t, 1) if t >= 0 else (1, 10**-t)
        b = num.bit_length() - den.bit_length()
        num, den = num << max(-b, 0), den << max(b, 0)
        if num < den:
            num, b = num << 1, b - 1
        h = num / den  # int / int rounds correctly
        hn, hd = h.as_integer_ratio()
        cols.append((h, (num * hd - hn * den) / (den * hd), b))
    table = np.ascontiguousarray(np.array(cols).T)
    table.flags.writeable = False
    return table


def _scaled(m: np.ndarray, E: np.ndarray, k: np.ndarray):
    """V = m 2^E 10^(16-k) as an int64 integer part and a float fraction in
    [0, 1), and Q = 2^E 10^(16-k) rounded to a float.  m holds integers
    below 2^53.  Q is held to about 2^-106 as qh + ql, and m qh is Dekker's
    exact two-product p + err, so V is right to about 1e-14."""
    h, l, b = _ten_powers().take(16 - k - _P10_MIN, axis=1)
    b = E + b.astype(np.int32)
    qh = np.ldexp(h, b)
    p = m * qh
    c = _SPLIT * qh
    qa = c - (c - qh)
    qb = qh - qa
    c = _SPLIT * m
    ma = c - (c - m)
    mb = m - ma
    err = ((ma * qa - p) + ma * qb + mb * qa) + mb * qb
    whole = np.floor(p)
    frac = (p - whole) + err + m * np.ldexp(l, b)
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry, qh


def _near_integer(f: np.ndarray) -> np.ndarray:
    return np.abs(f - np.rint(f)) < _UNSURE


_INT_P10 = 10 ** np.arange(17, dtype=np.int64)


def _shortest_digits(ax: np.ndarray):
    """repr's digits of the finite positive floats of ax: (c, e, n, unsure).

    Digits are the first n of the 17 of int64 c (the rest are zeros), e is
    the decimal exponent of the first, and where `unsure` is set the digits
    are not known and repr must write the float."""
    mant, ex = np.frexp(ax)
    m, E = np.ldexp(mant, 53), ex - 53
    k = np.floor(np.log10(ax)).astype(np.int64)
    V, F, Q = _scaled(m, E, k)
    off = (V < 10**16).astype(np.int64) - (V >= 10**17)
    fix = np.flatnonzero(off)
    if fix.size:  # log10 rounded across a power of ten
        k[fix] -= off[fix]
        V[fix], F[fix], Q[fix] = _scaled(m[fix], E[fix], k[fix])
    unsure = (V < 10**16) | (V >= 10**17) | (ex < -1021)  # subnormal: Q is not m's
    half = 0.5 * Q
    top = F + half
    bottom = F - np.where((mant == 0.5) & (ex > -1021), 0.5 * half, half)
    unsure |= _near_integer(top) | _near_integer(bottom)
    # the interval's integers are lo + 1 ... hi; J counts the powers of ten
    # that still tell lo and hi apart, up to the first digit
    hi = V + np.floor(top).astype(np.int64)
    lo = V + np.floor(bottom).astype(np.int64)
    J = np.zeros(ax.shape, dtype=np.intp)
    a, b, live = lo // 10, hi // 10, None
    for j in range(1, 17):
        apart = a != b
        live = np.flatnonzero(apart) if live is None else live[apart]
        if not live.size:
            break
        J[live] = j
        a, b = a[apart] // 10, b[apart] // 10
    step = _INT_P10[J]
    below = V // step * step
    down = below > lo
    up = below + step <= hi
    # 2 (V - below) - step: above zero where the multiple above V is nearer
    lean = (2 * (V - below) - step).astype(np.float64) + 2 * F
    unsure |= down & up & (np.abs(lean) < 2 * _UNSURE)
    c = below + (up & (~down | (lean > 0))) * step
    carry = c == 10**17
    c[carry] = 10**16
    return c, k + carry, np.where(carry, 1, 17 - J), unsure


# A float's text is gathered from a 32-byte source row: digits 0-7 at bytes
# 0-7, digit 8 at 16, digits 9-16 at 8-15, the three digits of |e| at 17-19,
# then "-.e+0" and NULs.  Each (sign, layout, digit count) has a template of
# source bytes; the layouts are the positional ones of e = -4 ... 15, then
# e < 0 and e > 0 with two and with three exponent digits.
_DIGIT_AT = [*range(8), 16, *range(8, 16)]
_LITERALS = np.frombuffer(b"-.e+0" + bytes(7), dtype="<u4")
_NEG, _DOT, _EXP, _PLUS, _ZERO, _PAD = range(20, 26)
_TEXT_WIDTH = 24  # "-1.2345678901234567e-308"


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 0000 ... 9999 as little-endian uint32, and the templates
    (by (sign * 24 + layout) * 17 + n - 1, NUL-padded to _TEXT_WIDTH)."""
    four = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    d, pad = _DIGIT_AT, [_PAD] * _TEXT_WIDTH
    unsigned = []
    for layout in range(24):
        e = layout - 4
        for n in range(1, 18):
            if layout >= 20:
                t = d[:1] + ([_DOT] + d[1:n] if n > 1 else []) + [_EXP, _PLUS if layout >= 22 else _NEG]
                t += [17, 18, 19] if layout % 2 else [18, 19]
            elif e >= 0:
                t = d[: e + 1] + [_DOT] + d[e + 1 : max(n, e + 2)]
            else:
                t = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + d[:n]
            unsigned.append(t)
    rows = [(t + pad)[:_TEXT_WIDTH] for t in unsigned] + [([_NEG] + t + pad)[:_TEXT_WIDTH] for t in unsigned]
    tables = four.astype(np.uint8).view("<u4").ravel(), np.array(rows, dtype=np.intp)
    for t in tables:
        t.flags.writeable = False
    return tables


# Floats formatted per kernel call.  The call's temporaries peak at about
# 300 bytes a float, so at 4096 they stay small beside a table block's
# (_TABLE_ROW_BYTES a row); one call per block raised the writer's peak.
_TEXT_ROWS = 4096


def _float_texts(x: np.ndarray) -> np.ndarray:
    """repr of every float of the 1-d array x, byte for byte, as an object
    array of str."""
    text = np.empty(x.size, dtype=object)
    for lo in range(0, x.size, _TEXT_ROWS):
        text[lo : lo + _TEXT_ROWS] = _float_texts_chunk(x[lo : lo + _TEXT_ROWS])
    return text


def _float_texts_chunk(x: np.ndarray) -> np.ndarray:
    """_float_texts of at most _TEXT_ROWS floats."""
    ax = np.abs(x)
    special = ~(np.isfinite(x) & (x != 0))
    ax[special] = 1.0
    c, e, n, unsure = _shortest_digits(ax)
    four, templates = _text_tables()
    src = np.empty((x.size, 8), dtype="<u4")
    top = c // 10**9
    low = (c - top * 10**9).astype(np.int32)
    top = top.astype(np.int32)
    src[:, 0] = four[top // 10000]
    src[:, 1] = four[top % 10000]
    src[:, 2] = four[low % 10**8 // 10000]
    src[:, 3] = four[low % 10000]
    ae = np.abs(e)
    src[:, 4] = (four[ae] & 0xFFFFFF00) | (low // 10**8 + ord("0"))
    src[:, 5:] = _LITERALS
    layout = np.where((e >= -4) & (e < 16), e + 4, 20 + 2 * (e > 0) + (ae >= 100))
    index = templates[(np.signbit(x) * 24 + layout) * 17 + n - 1]
    index += np.arange(0, 32 * x.size, 32)[:, None]
    chars = np.take(src.view(np.uint8).ravel(), index)
    del index, src  # 8 bytes a character, before the uint32 copy's 4
    text = chars.astype(np.uint32).view(f"U{_TEXT_WIDTH}").ravel().astype(object)  # drops the NUL padding
    for i in np.flatnonzero(special | unsure).tolist():
        text[i] = repr(float(x[i]))
    return text


def _format_column(c: np.ndarray) -> list[str]:
    """repr of every float of c, by _float_texts, computed once per distinct
    bit pattern (not per distinct value, so -0.0 and each NaN keep their own
    text)."""
    bits, inverse = np.unique(c.view(np.int64), return_inverse=True)
    return _float_texts(bits.view(np.float64))[inverse.reshape(-1)].tolist()


# Rows formatted and written per chunk, so no table is ever held whole as text.
_TABLE_BLOCK = 32768
# Most bytes write_table allocates at once, per row of one block: the traced
# peak while a CLI-default wave table is written, after a warm write, is
# about 116.
_TABLE_ROW_BYTES = 256


def write_table(path, header: Sequence[str], columns: Sequence, metadata: dict) -> None:
    """Write a float table with `# key: value` metadata comment lines.

    Every float is written as the text of its repr (by _float_texts: the
    shortest digits that read back as it), so reading the file back
    reproduces the exact binary values.  A column is either an array
    of floats, or a pair (values, index): its distinct floats, formatted
    once, and a function giving the position in values of each row of an
    array of row numbers.  The row count is that of the float arrays.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} names for {len(columns)} columns")
    cols = []
    for c in columns:
        if isinstance(c, tuple):
            values, index = c
            cols.append((_float_texts(np.asarray(values, dtype=float).reshape(-1)), index))
        else:
            cols.append(np.ascontiguousarray(c, dtype=float).reshape(-1))
    sizes = {c.size for c in cols if not isinstance(c, tuple)}
    if len(sizes) != 1:
        raise ValueError("columns must have equal length" if sizes else "a table needs one float array")
    (n,) = sizes
    if any("," in name for name in header):
        raise ValueError("column names must not contain commas")
    lines = ["# hyplq-table"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        k = len(cols)
        for lo in range(0, n, _TABLE_BLOCK):
            rows = min(_TABLE_BLOCK, n - lo)
            # cell j of row i at 2(ki + j), each followed by "," or "\n"
            cells = [","] * (2 * k * rows)
            for j, c in enumerate(cols):
                if isinstance(c, tuple):
                    text, index = c
                    cells[2 * j :: 2 * k] = text[index(np.arange(lo, lo + rows))].tolist()
                else:
                    cells[2 * j :: 2 * k] = _format_column(c[lo : lo + rows])
            cells[2 * k - 1 :: 2 * k] = ["\n"] * rows
            yield "".join(cells)

    _write_atomic(path, chunks())


def read_table(path) -> tuple[dict, list[str], list[np.ndarray]]:
    """Inverse of write_table: (metadata, header, columns).

    `# key: value` lines are metadata wherever they sit, blank lines are
    skipped, the first other line is the header and the rest are parsed by
    numpy's C reader; a row of the wrong width raises ValueError.
    """
    lines = [s for s in map(str.strip, Path(path).read_text().splitlines()) if s]
    meta: dict[str, str] = {}
    for body in (s[1:].strip() for s in lines if s[0] == "#"):
        if ": " in body:
            key, val = body.split(": ", 1)
            meta[key] = val
    rows = [s for s in lines if s[0] != "#"]
    if not rows:
        raise ValueError(f"no table header found in {path}")
    header = rows[0].split(",")
    if len(rows) == 1:  # loadtxt warns on no data
        data = np.empty((0, len(header)))
    else:
        data = np.loadtxt(rows[1:], delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"{len(header)} column names for rows of {data.shape[1]} values in {path}")
    return meta, header, [data[:, j] for j in range(len(header))]


def write_field_csv(path, field: np.ndarray, grid: Grid1D, tgrid: TimeGrid, metadata: dict) -> None:
    """Long-format (t, w, value) dump of one space-time field, level by
    level; row r sits at time level r // N and node r % N."""
    f = np.asarray(field, dtype=float)
    if f.shape != (tgrid.M + 1, grid.N):
        raise ValueError(f"field shape {f.shape} does not match the grids")
    meta = dict(metadata)
    meta.update({"L": grid.L, "N": grid.N, "T": tgrid.T, "M": tgrid.M})
    n = grid.N
    t = (tgrid.times, lambda rows: rows // n)
    w = (grid.nodes, lambda rows: rows % n)
    write_table(path, ["t", "w", "value"], [t, w, f.ravel()], meta)


def read_field_csv(path) -> tuple[Grid1D, TimeGrid, np.ndarray]:
    """Rebuild (grid, tgrid, field) from a write_field_csv file."""
    meta, header, cols = read_table(path)
    try:
        grid = Grid1D(float(meta["L"]), int(meta["N"]))
        tgrid = TimeGrid(float(meta["T"]), int(meta["M"]))
    except KeyError as exc:
        raise ValueError(f"field csv {path} lacks grid metadata {exc}") from exc
    if header != ["t", "w", "value"]:
        raise ValueError(f"expected t,w,value columns, got {header}")
    want = (tgrid.M + 1) * grid.N
    if cols[2].size != want:
        raise ValueError(f"expected {want} rows, got {cols[2].size}")
    # write_field_csv writes exactly these bits, so any other t or w means
    # reordered or edited rows; on the (levels, N) view the flat index of a
    # cell is its row number
    shape = (tgrid.M + 1, grid.N)
    for name, got, expect in (("t", cols[0], tgrid.times[:, None]), ("w", cols[1], grid.nodes)):
        differs = got.reshape(shape).view(np.int64) != expect.view(np.int64)
        if differs.any():
            raise ValueError(f"column {name} of {path} differs from the grid at row {np.argmax(differs)}")
    return grid, tgrid, cols[2].reshape(shape)


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#17becf")
_HEAT_STOPS = (
    (0.267, 0.005, 0.329),
    (0.254, 0.265, 0.530),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.267, 0.749, 0.441),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
)
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 54


def _fmt(v: float) -> str:
    return f"{v:.8g}"


# The ramp's segments as (from, to) rows, and the hex text of every channel value.
_HEAT_FROM, _HEAT_TO = np.array(_HEAT_STOPS[:-1]), np.array(_HEAT_STOPS[1:])
_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)


def _heat_colors(v: np.ndarray) -> np.ndarray:
    """The "#rrggbb" colour of every value of v on the _HEAT_STOPS ramp over
    [0, 1] (clamped), each channel rounded half to even like Python's round."""
    pos = np.minimum(np.maximum(v, 0.0), 1.0) * (len(_HEAT_STOPS) - 1)
    i = np.minimum(pos.astype(np.intp), len(_HEAT_STOPS) - 2)
    fr = (pos - i)[..., None]
    rgb = np.round(255 * ((1 - fr) * _HEAT_FROM[i] + fr * _HEAT_TO[i])).astype(np.intp)
    return "#" + _HEX[rgb[..., 0]] + _HEX[rgb[..., 1]] + _HEX[rgb[..., 2]]


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    return lo - 0.5, hi + 0.5


def _axis(out: list, xmin, xmax, ymin, ymax, xlabel, ylabel, title):
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for i in range(5):
        fx = _ML + pw * i / 4
        fy = _H - _MB - ph * i / 4
        vx = xmin + (xmax - xmin) * i / 4
        vy = ymin + (ymax - ymin) * i / 4
        out.append(f'<line x1="{_fmt(fx)}" y1="{_H - _MB}" x2="{_fmt(fx)}" y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(
            f'<text x="{_fmt(fx)}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(vx)}</text>'
        )
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(fy)}" x2="{_ML}" y2="{_fmt(fy)}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(fy + 4)}" text-anchor="end">{_fmt(vy)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_fmt(_ML + pw / 2)}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_fmt(_MT + ph / 2)}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_fmt(_MT + ph / 2)})">{ylabel}</text>'
        )
    if title:
        out.append(f'<text x="{_fmt(_W / 2)}" y="22" text-anchor="middle" font-size="14">{title}</text>')


def emit_plot(series, style: str, path, xlabel: str = "", ylabel: str = "", title: str = "") -> None:
    """Render labeled (x, y) series to a self-contained SVG file.

    style "line" draws one polyline per series with a legend; "heatmap"
    treats each series as one horizontal band of cells colored by value
    (first series at the bottom).  Identical inputs produce identical bytes.
    """
    if style not in ("line", "heatmap"):
        raise ValueError(f"unknown plot style {style!r}")
    if not series:
        raise ValueError("nothing to plot: series list is empty")
    clean = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size == 0:
            raise ValueError(f"series {label!r}: x and y must be equal-length 1D")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError(f"series {label!r} contains non-finite values")
        clean.append((str(label), x, y))

    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        '<g font-family="Helvetica,Arial,sans-serif" font-size="11" fill="black">',
    ]
    xmin, xmax = _pad_range(
        min(float(np.min(x)) for _, x, _ in clean),
        max(float(np.max(x)) for _, x, _ in clean),
    )

    if style == "line":
        ymin, ymax = _pad_range(
            min(float(np.min(y)) for _, _, y in clean),
            max(float(np.max(y)) for _, _, y in clean),
        )
        _axis(out, xmin, xmax, ymin, ymax, xlabel, ylabel, title)
        out.append("</g>")
        for j, (label, x, y) in enumerate(clean):
            color = _PALETTE[j % len(_PALETTE)]
            px = _ML + (x - xmin) / (xmax - xmin) * pw
            py = _H - _MB - (y - ymin) / (ymax - ymin) * ph
            pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
            )
        out.append('<g font-family="Helvetica,Arial,sans-serif" font-size="11" fill="black">')
        for j, (label, _, _) in enumerate(clean):
            color = _PALETTE[j % len(_PALETTE)]
            ly = _MT + 14 + 16 * j
            out.append(f'<rect x="{_W - _MR - 130}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
            out.append(f'<text x="{_W - _MR - 114}" y="{ly}">{label}</text>')
        out.append("</g>")
    else:
        ncols = clean[0][1].size
        if any(x.size != ncols for _, x, _ in clean):
            raise ValueError("heatmap rows must share the x sampling")
        vals = np.array([y for _, _, y in clean])
        vmin, vmax = float(np.min(vals)), float(np.max(vals))
        span = vmax - vmin if vmax > vmin else 1.0
        nrows = len(clean)
        cw, ch = pw / ncols, ph / nrows
        _axis(out, xmin, xmax, 0.0, float(nrows), xlabel, ylabel, title)
        out.append(
            f'<text x="{_W - _MR}" y="{_MT - 6}" text-anchor="end">'
            f"range [{_fmt(vmin)}, {_fmt(vmax)}], rows {clean[0][0]} .. {clean[-1][0]}</text>"
        )
        out.append("</g>")
        colors = _heat_colors((vals - vmin) / span)
        xs = [_fmt(_ML + qcol * cw) for qcol in range(ncols)]
        size = f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}"'
        for r in range(nrows):
            cy = _fmt(_H - _MB - (r + 1) * ch)
            out.extend(
                f'<rect x="{x}" y="{cy}" {size} fill="{color}"/>'
                for x, color in zip(xs, colors[r].tolist())
            )
    out.append("</svg>")
    _write_atomic(path, ["\n".join(out) + "\n"])


def _thin(n: int, limit: int = 120) -> np.ndarray:
    stride = max(1, math.ceil(n / limit))
    return np.arange(0, n, stride)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class _Emitter:
    """Tracks files written by one run so failures leave nothing behind.

    The output directory is made with the first artifact.  As a context
    manager, an exception in the block removes the run's files and the
    directories the run made (never one that existed before it), and
    re-raises as ExperimentError naming `what`.
    """

    def __init__(self, out_dir, what: str):
        self.out_dir = Path(out_dir)
        self.what = what
        self.created: list[Path] = []
        self.made_dirs: list[Path] = []

    def __enter__(self) -> "_Emitter":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, Exception):
            for p in self.created:
                p.unlink(missing_ok=True)
            for d in self.made_dirs:
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise ExperimentError(f"{self.what} failed: {exc}") from exc

    def path(self, name: str) -> Path:
        if not self.out_dir.is_dir():
            # deepest first, the order in which they can be removed
            missing = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.made_dirs += missing
        p = self.out_dir / name
        self.created.append(p)
        return p

    def table(self, name, header, columns, metadata) -> None:
        write_table(self.path(name), header, columns, metadata)

    def field(self, name, field, grid, tgrid, metadata) -> None:
        write_field_csv(self.path(name), field, grid, tgrid, metadata)

    def json_file(self, name, payload: dict) -> None:
        _write_atomic(self.path(name), [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _solve_gate(cfg: OCPConfig, tol: float, plan):
    """solve_ocp(cfg, plan), or NumericError where its residual misses `tol`
    or its trajectories are not finite."""
    sol = solve_ocp(cfg, plan)
    if not sol.residual <= tol:
        raise NumericError(f"solver residual {sol.residual:.3e} exceeds the gate {tol:.1e}")
    if not all(np.all(np.isfinite(a)) for a in (sol.x, sol.lam, sol.u)):
        raise NumericError("solver returned non-finite trajectories")
    return sol


def _mem_available() -> Optional[int]:
    """MemAvailable of /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _require_memory(need: float, what: str) -> Optional[int]:
    """MemAvailable in bytes (None where it cannot be read); raises
    ExperimentError when it is known and `need` bytes exceed it."""
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ExperimentError(
            f"{what} needs about {need / 2**20:.0f} MiB; {avail / 2**20:.0f} MiB is available"
        )
    return avail


def _unknowns(cfg: OCPConfig) -> int:
    """Size of cfg's KKT system: state and adjoint at every node and level."""
    return 2 * cfg.grid.N * (cfg.tgrid.M + 1)


def _pool_width(configs: Sequence[OCPConfig], plans: Sequence, workers: int) -> int:
    """How many of `configs` may solve at once with `workers` threads; plans
    holds the factor plan of each.

    Largest-first scheduling runs the biggest factorizations together, so
    the width is the most members whose largest estimates fit in the
    available memory together.  Raises ExperimentError when the largest
    alone does not fit; skips the check where MemAvailable cannot be read.
    """
    width = min(workers, len(configs))
    sized = sorted(((solve_bytes(c, p), _unknowns(c)) for c, p in zip(configs, plans)), reverse=True)
    need = [b for b, _ in sized]
    avail = _require_memory(need[0], f"a KKT solve of {sized[0][1]} unknowns")
    if avail is None:
        return width
    fits = width
    while sum(need[:fits]) > avail:
        fits -= 1
    if fits < width:
        print(
            f"memory caps the sweep pool at {fits} of {width} members at once: "
            f"the {width} largest need about {sum(need[:width]) / 2**20:.0f} MiB, "
            f"{avail / 2**20:.0f} MiB is available",
            file=sys.stderr,
        )
    return fits


def _solve_members(configs: Sequence[OCPConfig], workers: int, tol: float) -> list:
    """Gated solutions of every config, in input order, on a pool of up to
    `workers` threads (fewer where memory is short, see _pool_width).

    Members of one grid size share one factor plan, built once here: it
    sizes the pool and plans each of their factors, and is dropped with the
    last of their solves.  All members go to one pool at once, largest
    unknown count first (ties in input order), so the longest
    factorizations never start last.  The failure raised is that of the
    first failing member in input order, whatever order the members finish
    in.
    """
    shared: dict = {}
    for c in configs:
        if (c.grid.N, c.tgrid.M) not in shared:
            shared[c.grid.N, c.tgrid.M] = factor_plan(c)
    plans = [shared[c.grid.N, c.tgrid.M] for c in configs]
    del shared
    order = sorted(range(len(configs)), key=lambda i: -_unknowns(configs[i]))
    with ThreadPoolExecutor(max_workers=_pool_width(configs, plans, workers)) as pool:
        futures = {i: pool.submit(_solve_gate, configs[i], tol, plans[i]) for i in order}
        del plans  # each plan now dies with the last solve that runs it
        try:
            return [futures[i].result() for i in range(len(configs))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _initial_center(plan: ExperimentPlan) -> float:
    if plan.initial[0] == "bump":
        return plan.initial[2]
    return plan.L / 2.0


def _heatmap_series(grid: Grid1D, tgrid: TimeGrid, field: np.ndarray):
    ridx = _thin(tgrid.M + 1)
    cidx = _thin(grid.N)
    return [
        (f"{tgrid.times[r]:.4g}", grid.nodes[cidx], field[r][cidx]) for r in ridx
    ]


def _fit_payload(fit) -> dict:
    return {
        "amplitude": fit.amplitude,
        "rate": fit.rate,
        "center": fit.center,
        "residual": fit.residual,
        "nodes_used": len(fit.window),
    }


def _verdict(dom: IntervalUnion) -> Verdict:
    """The layout's certificate; without one, the first interval is offset
    or the measure is finite, which any constants report."""
    cert = certify_rates(dom)
    if cert is not None:
        return Verdict(True, cert, None)
    return check_condition_ii(dom, 1.0, 2.0)


def _exp_space_time_field(plan, em, members, sols) -> int:
    (cfg,), (sol,) = members, sols
    meta = {"experiment": plan.experiment, "alpha": cfg.alpha}
    em.field("x.csv", sol.x, cfg.grid, cfg.tgrid, meta)
    em.field("lambda.csv", sol.lam, cfg.grid, cfg.tgrid, meta)
    em.field("u.csv", sol.u, cfg.grid, cfg.tgrid, meta)
    em.json_file(
        "summary.json",
        {
            "experiment": plan.experiment,
            "objective": sol.objective,
            "residual": sol.residual,
            "L": cfg.grid.L,
            "N": cfg.grid.N,
            "T": cfg.tgrid.T,
            "M": cfg.tgrid.M,
            "alpha": cfg.alpha,
        },
    )
    if plan.plot:
        emit_plot(
            _heatmap_series(cfg.grid, cfg.tgrid, sol.x),
            "heatmap",
            em.path("x.svg"),
            xlabel="w",
            ylabel="time rows",
            title="optimal state",
        )
    return 0


def _exp_sliced_norms(plan, em, members, sols) -> int:
    (cfg,), (sol,) = members, sols
    meta = {"experiment": plan.experiment, "alpha": cfg.alpha}
    prof = time_sliced_l2(sol.x, cfg.grid, cfg.tgrid)
    # fit first: a profile below the floor fails before any file exists
    fit = fit_decay_rate(prof, _initial_center(plan), floor=1e-8)
    em.field("x.csv", sol.x, cfg.grid, cfg.tgrid, meta)
    table_meta = {**meta, "L": cfg.grid.L, "N": cfg.grid.N, "T": cfg.tgrid.T, "M": cfg.tgrid.M}
    em.table("profile.csv", ["w", "value"], [cfg.grid.nodes, prof.values], table_meta)
    em.json_file("fit.json", _fit_payload(fit))
    if plan.plot:
        emit_plot(
            [("profile", cfg.grid.nodes, prof.values)],
            "line",
            em.path("profile.svg"),
            xlabel="w",
            ylabel="L2 over time",
            title="per-node time norm",
        )
    return 0


def _exp_domain_sweep(plan, em, members, sols) -> int:
    sizes = plan.l_values
    center = _initial_center(plan)
    first = members[0]  # the smallest L: l_values are sorted
    fit = fit_decay_rate(time_sliced_l2(sols[0].x, first.grid, first.tgrid), center, floor=1e-8)
    mu = max(0.0, fit.rate)
    weight = ExpWeight(center=center, mu=mu)
    reports = [
        weighted_spacetime_norms(sol.x, weight, cfg.grid, cfg.tgrid)
        for cfg, sol in zip(members, sols)
    ]

    meta = {
        "experiment": plan.experiment,
        "mu": mu,
        "fit_center": center,
        "alpha": plan.alpha,
        "T": plan.T,
    }
    if len(sizes) >= 3:
        cert = localization_certificate(list(zip(sizes, reports)), mu)
        meta.update({"bounded": cert.bounded, "trend": cert.trend, "sup": cert.sup})
    else:
        meta["bounded"] = "insufficient-family"
    norms = np.array([(r.l2l2, r.cl2, r.two_and_inf, r.one_or_two) for r in reports]).T
    header = ["L", "l2l2", "cl2", "two_and_inf", "one_or_two"]
    em.table("reports.csv", header, [np.array(sizes), *norms], meta)
    if plan.plot:
        emit_plot(
            [("two_and_inf", np.array(sizes), norms[2])],
            "line",
            em.path("reports.svg"),
            xlabel="L",
            ylabel="weighted norm",
            title="domain sweep",
        )
    return 0


def _exp_alpha_sweep(plan, em, members, sols) -> int:
    alphas = np.array(plan.alpha_values)
    objective, final_norm, peak = np.array(
        [
            (sol.objective, GridFunction(cfg.grid, sol.x[-1]).l2_norm(), float(np.max(np.abs(sol.u))))
            for cfg, sol in zip(members, sols)
        ]
    ).T
    em.table(
        "alphas.csv",
        ["alpha", "objective", "final_state_norm", "peak_control"],
        [alphas, objective, final_norm, peak],
        {"experiment": plan.experiment, "T": plan.T, "L": plan.L},
    )
    if plan.plot:
        emit_plot(
            [("final_state_norm", alphas, final_norm), ("peak_control", alphas, peak)],
            "line",
            em.path("alphas.svg"),
            xlabel="alpha",
            ylabel="value",
            title="control weight sweep",
        )
    return 0


def _exp_stabilizability_demo(plan, em, members, sols) -> int:
    dom = plan.control_domain
    verdict = _verdict(dom)
    report = {"stabilizable": verdict.stabilizable, "reason": verdict.reason, "domain": domain_to_config(dom)}
    cert = verdict.certificate
    if cert is not None:
        c_ref = _velocity_field(plan.velocity, plan.L).c_min
        overshoot, rate = guaranteed_decay(dom, plan.feedback_gain, c_ref)
        report.update(
            k=cert.k,
            K=cert.K,
            M=cert.M,
            feedback_gain=plan.feedback_gain,
            reference_velocity=c_ref,
            decay_rate=rate,
            decay_overshoot=overshoot,
        )
    em.json_file("verdict.json", report)
    return 0 if verdict.stabilizable else 1


_EXPERIMENTS = {
    "space-time-field": _exp_space_time_field,
    "sliced-norms": _exp_sliced_norms,
    "domain-sweep": _exp_domain_sweep,
    "alpha-sweep": _exp_alpha_sweep,
    "stabilizability-demo": _exp_stabilizability_demo,
}


def _members(plan: ExperimentPlan) -> list[OCPConfig]:
    """The problems a plan solves: a sweep's in the order of its sweep list,
    the plan itself for a single solve, none for the stabilizability demo."""
    if plan.experiment == "domain-sweep":
        return [plan.realize(L=L) for L in plan.l_values]
    if plan.experiment == "alpha-sweep":
        return [plan.realize(alpha=a) for a in plan.alpha_values]
    if plan.experiment == "stabilizability-demo":
        return []
    return [plan.realize()]


def run_experiment(plan: ExperimentPlan, workers: int = 1, tol: float = 1e-8) -> int:
    """Execute one plan; returns 0 (success) or 1 (negative verdict).

    Every solve goes through one pool of up to `workers` threads, fewer
    where memory is short; a plan whose largest solve cannot fit fails
    before any file exists.  Any failure removes the files this run created
    and re-raises as ExperimentError carrying the experiment id.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    members = _members(plan)
    with _Emitter(plan.out_dir, f"experiment {plan.experiment}") as em:
        sols = _solve_members(members, workers, tol) if members else []
        return _EXPERIMENTS[plan.experiment](plan, em, members, sols)


# ---------------------------------------------------------------------------
# simulate (semigroup evolution, no optimization)
# ---------------------------------------------------------------------------

_EQUATIONS = ("transport", "transport-var", "continuity", "wave")
# Plan keys whose simulate default differs from the plan's: no control.
_SIMULATE_DEFAULTS = {"control_domain": {"finite": []}, "feedback_gain": 0.0}
# Plan keys simulate has no use for: it runs no experiment, solve or plot.
_PLAN_ONLY = ("experiment", "alpha", "observation_domain", "l_values", "alpha_values", "plot")


def _simulate_bytes(eq: str, n_nodes: int, n_levels: int) -> int:
    """Estimated memory of one simulate run, in bytes.

    The estimate counts the (levels, N) float arrays alive at once (the
    wave's two, one otherwise), about sixteen (block, width) temporaries of
    one kernel block (width 2N on the wave's doubled circle, N otherwise,
    block = levels_per_block(width)), for the variable-speed equations
    about four more (block, N, 16) Gauss-Legendre temporaries, and about
    _TABLE_ROW_BYTES per row of one table block for the writer.
    """
    arrays, width = (2, 2 * n_nodes) if eq == "wave" else (1, n_nodes)
    temps = 16 + (64 if eq in ("transport-var", "continuity") else 0)
    block = levels_per_block(width) * width
    return 8 * (arrays * n_levels * n_nodes + temps * block) + _TABLE_ROW_BYTES * _TABLE_BLOCK


def _simulate(cfg: dict, out_dir: Optional[str]) -> int:
    """Evolve the config's equation on the grids of its plan keys."""
    cfg = {**_SIMULATE_DEFAULTS, **cfg}
    eq = cfg.pop("equation", None)
    if eq not in _EQUATIONS:
        raise ValueError(f"equation must be one of {_EQUATIONS}, got {eq!r}")
    _reject_unknown(cfg, {*_PLAN_DEFAULTS, "comment"}.difference(_PLAN_ONLY), "config")
    plan = plan_from_config(cfg, out_dir=out_dir)
    if eq in ("transport", "wave") and plan.velocity[0] != "constant":
        raise ValueError(f"{eq} uses a constant velocity; use transport-var")
    ocp = plan.realize()
    grid, tgrid, x0, vel = ocp.grid, ocp.tgrid, ocp.x0, ocp.velocity
    L, c = grid.L, plan.velocity[1]  # c: the speed of transport and wave
    fb = FeedbackProfile(plan.control_domain, plan.feedback_gain)

    levels = tgrid.M + 1
    need = _simulate_bytes(eq, grid.N, levels)
    _require_memory(need, f"simulate {eq} for {levels} levels of {grid.N} nodes")
    meta = {"equation": eq, "feedback_gain": plan.feedback_gain}
    with _Emitter(plan.out_dir, f"simulate {eq}") as em:
        if eq == "wave":
            x1 = GridFunction(grid, np.zeros(grid.N))
            disp, velo = wave_levels(x0, x1, tgrid.times, c, fb, L)
            fields = [("displacement.csv", disp), ("velocity.csv", velo)]
        elif eq == "transport":
            fields = [("field.csv", transport_levels(x0, tgrid.times, c, L, fb))]
        elif eq == "transport-var":
            fields = [("field.csv", transport_variable_levels(x0, tgrid.times, vel, L, fb))]
        else:
            fields = [("field.csv", continuity_levels(x0, tgrid.times, vel, fb, L))]
        for name, field in fields:
            em.field(name, field, grid, tgrid, meta)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# What parsing a malformed config raises: a missing key, or a value of the
# wrong type or range (int() of an infinite number overflows).
_BAD_CONFIG = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _load_json(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _plan_of(args, forced_experiment: Optional[str] = None) -> ExperimentPlan:
    cfg = _load_json(args.config)
    if forced_experiment is not None:
        cfg["experiment"] = forced_experiment
    try:
        return plan_from_config(cfg, out_dir=args.out)
    except _BAD_CONFIG as exc:
        raise ConfigError(f"bad plan config: {exc}") from exc


def _print_verdict(verdict: Verdict) -> int:
    cert = verdict.certificate
    if cert is None:
        print(f"stabilizable: no ({verdict.reason})")
        return 1
    print(f"stabilizable: yes (k={cert.k:.6g}, K={cert.K:.6g}, M={cert.M:.6g})")
    return 0


def _cmd_check_domain(args) -> int:
    if args.domain:
        try:
            dom = parse_domain(args.domain)
        except ValueError as exc:
            raise ConfigError(f"bad domain text: {exc}") from exc
    elif args.config:
        cfg = _load_json(args.config)
        if "equation" in cfg:  # a simulate config, maybe on simulate's default layout
            cfg = cfg.get("control_domain", _SIMULATE_DEFAULTS["control_domain"])
        elif cfg.keys() & {*_PLAN_DEFAULTS, "comment"}:  # a plan, maybe on the default layout
            cfg = cfg.get("control_domain", _PLAN_DEFAULTS["control_domain"])
        try:
            dom = domain_from_config(cfg)
        except _BAD_CONFIG as exc:
            raise ConfigError(f"bad domain config: {exc}") from exc
    else:
        raise ConfigError("provide --domain <text> or --config <file>")

    if (args.k is None) != (args.K is None):
        raise ConfigError("pass both --k and --K or neither")
    if args.k is None:
        return _print_verdict(_verdict(dom))
    try:
        verdict = check_condition_ii(dom, args.k, args.K)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _print_verdict(verdict)


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    try:
        return _simulate(cfg, args.out)
    except _BAD_CONFIG as exc:
        raise ConfigError(f"bad simulate config: {exc}") from exc


def _cmd_solve_ocp(args) -> int:
    plan = _plan_of(args, forced_experiment="space-time-field")
    status = run_experiment(plan, tol=args.tol)
    summary = json.loads((Path(plan.out_dir) / "summary.json").read_text())
    print(
        f"objective={summary['objective']:.9g} residual={summary['residual']:.3e} "
        f"grid N={summary['N']} M={summary['M']}"
    )
    return status


def _cmd_sweep(args) -> int:
    plan = _plan_of(args)
    return run_experiment(plan, workers=args.workers, tol=args.tol)


def _cmd_decay_fit(args) -> int:
    try:
        meta, header, cols = read_table(args.infile)
        if len(cols) < 2:
            raise ValueError("it needs (w, value) columns")
        profile = GridFunction(Grid1D(float(meta["L"]), int(meta["N"])), cols[1])
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read profile table: {exc}") from exc
    fit = fit_decay_rate(profile, args.center, floor=args.floor)
    text = json.dumps(_fit_payload(fit), indent=2, sort_keys=True)
    if args.out:
        _write_atomic(args.out, [text + "\n"])
    print(text)
    return 0


def _cmd_plot(args) -> int:
    try:
        if args.style == "heatmap":
            series = _heatmap_series(*read_field_csv(args.infile))
        else:
            _, header, cols = read_table(args.infile)
            series = [(header[j], cols[0], cols[j]) for j in range(1, len(cols))]
        if not all(np.all(np.isfinite(x)) and np.all(np.isfinite(y)) for _, x, y in series):
            raise ValueError("it holds non-finite values")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.style} table: {exc}") from exc
    if not series:
        raise ConfigError("line plot needs at least two columns")
    emit_plot(series, args.style, args.out)
    return 0


_HANDLERS = {
    "check-domain": _cmd_check_domain,
    "simulate": _cmd_simulate,
    "solve-ocp": _cmd_solve_ocp,
    "sweep": _cmd_sweep,
    "decay-fit": _cmd_decay_fit,
    "plot": _cmd_plot,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_finite(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyplq",
        description="Linear-quadratic control of 1D hyperbolic equations: "
        "solves, stabilizability checks, sweeps and plots.",
    )
    sub = p.add_subparsers(dest="command")

    cd = sub.add_parser("check-domain", help="certify a control-interval layout")
    cd.add_argument("--domain", help='text form, e.g. "periodic: {period: 1, pattern: [[0, 0.2]]}"')
    cd.add_argument("--config", help="JSON file with a control_domain entry")
    cd.add_argument("--k", type=float, help="candidate rate constant")
    cd.add_argument("--K", type=float, help="candidate strength constant")

    sim = sub.add_parser("simulate", help="evolve one equation without optimization")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", help="output directory")

    so = sub.add_parser("solve-ocp", help="solve one optimal control problem")
    so.add_argument("--config", required=True)
    so.add_argument("--out", help="output directory")
    so.add_argument("--tol", type=_positive_finite, default=1e-8, help="residual acceptance gate")

    sw = sub.add_parser("sweep", help="run the experiment plan in a config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--workers", type=_positive_int, default=1)
    sw.add_argument("--tol", type=_positive_finite, default=1e-8)

    df = sub.add_parser("decay-fit", help="fit an exponential profile from a CSV")
    df.add_argument("--in", dest="infile", required=True)
    df.add_argument("--center", type=_finite, required=True)
    df.add_argument("--floor", type=_positive_finite, default=1e-8)
    df.add_argument("--out", help="write the JSON report here as well")

    pl = sub.add_parser("plot", help="render a CSV table to SVG")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--style", choices=("line", "heatmap"), default="line")
    pl.add_argument("--out", required=True)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    if not args.command:
        parser.print_usage(sys.stderr)
        return 3
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (ExperimentError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
