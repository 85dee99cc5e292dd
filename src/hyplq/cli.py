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

Default resolution: 128 nodes per unit length, and the number of time steps
chosen so c_max * dt <= h unless the config pins "steps" explicitly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import fit_decay_rate, localization_certificate, time_sliced_l2, weighted_spacetime_norms
from .characteristics import NumericError, VelocityField
from .domain_check import certify_rates, check_condition_ii, guaranteed_decay
from .geometry import (
    ExpWeight,
    Grid1D,
    GridFunction,
    IntervalUnion,
    TimeGrid,
    domain_from_config,
    domain_to_config,
    parse_domain,
)
from .ocp import OCPConfig, bump_initial, solve_ocp
from .semigroup import (
    LEVEL_BLOCK,
    FeedbackProfile,
    continuity_damped,
    transport_levels,
    transport_variable,
    wave_levels,
)

# Unused here, but perfbench/spans.py wraps these names on this module.
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

EXPERIMENT_IDS = (
    "space-time-field",
    "sliced-norms",
    "domain-sweep",
    "alpha-sweep",
    "stabilizability-demo",
)

_PLAN_KEYS = {
    "experiment",
    "grid",
    "time",
    "velocity",
    "alpha",
    "control_domain",
    "observation_domain",
    "initial",
    "l_values",
    "alpha_values",
    "out_dir",
    "plot",
    "feedback_gain",
    "comment",
}


# The layout of a plan that names none.
_DEFAULT_CONTROL_DOMAIN = {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]]}}


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

    velocity and initial are small tagged tuples (("constant", c) or
    ("sinusoidal", mean, amplitude); ("bump", width, center), ("sine", mode)
    or ("zero",)) so a plan survives a serialize/parse round trip exactly.
    Sweep lists are kept sorted ascending.
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
    l_values: tuple[float, ...] = ()
    alpha_values: tuple[float, ...] = ()
    out_dir: str = "hyplq-out"
    plot: bool = False
    feedback_gain: float = 1.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENT_IDS}"
            )
        if not (self.L > 0 and self.T > 0 and self.alpha > 0):
            raise ValueError("L, T and alpha must be positive")
        if self.nodes_per_unit < 1:
            raise ValueError(f"nodes_per_unit must be >= 1, got {self.nodes_per_unit}")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.feedback_gain < 0:
            raise ValueError(f"feedback gain must be >= 0, got {self.feedback_gain}")
        _check_velocity_spec(self.velocity)
        _check_initial_spec(self.initial)
        object.__setattr__(self, "l_values", tuple(sorted(float(v) for v in self.l_values)))
        object.__setattr__(
            self, "alpha_values", tuple(sorted(float(v) for v in self.alpha_values))
        )
        if self.experiment == "domain-sweep" and not self.l_values:
            raise ValueError("domain-sweep needs a nonempty l_values list")
        if self.experiment == "alpha-sweep" and not self.alpha_values:
            raise ValueError("alpha-sweep needs a nonempty alpha_values list")
        if any(v <= 0 for v in self.l_values + self.alpha_values):
            raise ValueError("sweep values must be positive")

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


def _check_velocity_spec(spec) -> None:
    if spec[0] == "constant":
        (_, c) = spec
        if c <= 0:
            raise ValueError(f"velocity must be positive, got {c}")
    elif spec[0] == "sinusoidal":
        (_, mean, amp) = spec
        if mean - abs(amp) <= 0:
            raise ValueError(f"velocity dips to {mean - abs(amp)}; must stay positive")
    else:
        raise ValueError(f"unknown velocity type {spec[0]!r}")


def _check_initial_spec(spec) -> None:
    kinds = {"bump": 3, "sine": 2, "zero": 1}
    if spec[0] not in kinds or len(spec) != kinds[spec[0]]:
        raise ValueError(f"unknown initial data spec {spec!r}")
    if spec[0] == "bump" and spec[1] <= 0:
        raise ValueError(f"bump width must be positive, got {spec[1]}")


def _velocity_field(spec, L: float) -> VelocityField:
    if spec[0] == "constant":
        return VelocityField.constant(spec[1])
    _, mean, amp = spec
    two_pi = 2.0 * math.pi / L

    def ev(w, _m=mean, _a=amp, _k=two_pi):
        return _m + _a * math.sin(_k * w)

    def dv(w, _a=amp, _k=two_pi):
        return _a * _k * math.cos(_k * w)

    return VelocityField.variable(ev, mean - abs(amp), mean + abs(amp), derivative=dv)


def _initial_values(spec, grid: Grid1D) -> np.ndarray:
    if spec[0] == "bump":
        return bump_initial(spec[1], spec[2], grid).values
    if spec[0] == "sine":
        return np.sin(2.0 * math.pi * spec[1] * grid.nodes / grid.L)
    return np.zeros(grid.N)


def _velocity_to_config(spec) -> dict:
    if spec[0] == "constant":
        return {"type": "constant", "value": spec[1]}
    return {"type": "sinusoidal", "mean": spec[1], "amplitude": spec[2]}


def _velocity_from_config(obj) -> tuple:
    kind = obj.get("type")
    if kind == "constant":
        return ("constant", float(obj["value"]))
    if kind == "sinusoidal":
        return ("sinusoidal", float(obj["mean"]), float(obj["amplitude"]))
    raise ValueError(f"unknown velocity type {kind!r}")


def _initial_to_config(spec) -> dict:
    if spec[0] == "bump":
        return {"type": "bump", "width": spec[1], "center": spec[2]}
    if spec[0] == "sine":
        return {"type": "sine", "mode": spec[1]}
    return {"type": "zero"}


def _initial_from_config(obj) -> tuple:
    kind = obj.get("type")
    if kind == "bump":
        return ("bump", float(obj["width"]), float(obj["center"]))
    if kind == "sine":
        return ("sine", int(obj["mode"]))
    if kind == "zero":
        return ("zero",)
    raise ValueError(f"unknown initial data type {kind!r}")


def plan_from_config(obj: dict, out_dir: Optional[str] = None) -> ExperimentPlan:
    """Build a plan from its JSON dict form; see plan_to_config for the shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"plan config must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _PLAN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    grid = obj.get("grid", {})
    time = obj.get("time", {})
    steps = time.get("steps")
    obs = obj.get("observation_domain")
    return ExperimentPlan(
        experiment=obj.get("experiment", "space-time-field"),
        L=float(grid.get("L", 4.0)),
        nodes_per_unit=int(grid.get("nodes_per_unit", 128)),
        T=float(time.get("T", 5.0)),
        steps=None if steps is None else int(steps),
        velocity=_velocity_from_config(obj.get("velocity", {"type": "constant", "value": 2.0})),
        alpha=float(obj.get("alpha", 0.125)),
        control_domain=domain_from_config(obj.get("control_domain", _DEFAULT_CONTROL_DOMAIN)),
        observation_domain=None if obs is None else domain_from_config(obs),
        initial=_initial_from_config(
            obj.get("initial", {"type": "bump", "width": 0.8, "center": 0.6})
        ),
        l_values=tuple(float(v) for v in obj.get("l_values", ())),
        alpha_values=tuple(float(v) for v in obj.get("alpha_values", ())),
        out_dir=str(out_dir if out_dir is not None else obj.get("out_dir", "hyplq-out")),
        plot=bool(obj.get("plot", False)),
        feedback_gain=float(obj.get("feedback_gain", 1.0)),
    )


def plan_to_config(plan: ExperimentPlan) -> dict:
    """Serialize a plan to the JSON dict form accepted by plan_from_config."""
    cfg = {
        "experiment": plan.experiment,
        "grid": {"L": plan.L, "nodes_per_unit": plan.nodes_per_unit},
        "time": {"T": plan.T},
        "velocity": _velocity_to_config(plan.velocity),
        "alpha": plan.alpha,
        "control_domain": domain_to_config(plan.control_domain),
        "observation_domain": None
        if plan.observation_domain is None
        else domain_to_config(plan.observation_domain),
        "initial": _initial_to_config(plan.initial),
        "l_values": list(plan.l_values),
        "alpha_values": list(plan.alpha_values),
        "out_dir": plan.out_dir,
        "plot": plan.plot,
        "feedback_gain": plan.feedback_gain,
    }
    if plan.steps is not None:
        cfg["time"]["steps"] = plan.steps
    return cfg


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
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _format_column(c: np.ndarray) -> list[str]:
    """repr of every float of c, computed once per distinct bit pattern
    (not per distinct value, so -0.0 and each NaN keep their own text)."""
    bits, inverse = np.unique(c.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(-1)].tolist()


# Rows formatted and written per chunk, so no table is ever held whole as text.
_TABLE_BLOCK = 32768


def write_table(path, header: Sequence[str], columns: Sequence, metadata: dict) -> None:
    """Write a float table with `# key: value` metadata comment lines.

    Floats are written with shortest round-trip repr, so reading the file
    back reproduces the exact binary values.
    """
    cols = [np.ascontiguousarray(c, dtype=float).reshape(-1) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} names for {len(cols)} columns")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("columns must have equal length")
    if any("," in name for name in header):
        raise ValueError("column names must not contain commas")
    lines = ["# hyplq-table"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        for lo in range(0, n, _TABLE_BLOCK):
            block = (_format_column(c[lo : lo + _TABLE_BLOCK]) for c in cols)
            yield "\n".join(map(",".join, zip(*block))) + "\n"

    _write_atomic(path, chunks())


def read_table(path) -> tuple[dict, list[str], list[np.ndarray]]:
    """Inverse of write_table: (metadata, header, columns)."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[float]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ": " in body:
                key, val = body.split(": ", 1)
                meta[key] = val
            continue
        if not header:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if not header:
        raise ValueError(f"no table header found in {path}")
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return meta, header, [data[:, j] for j in range(len(header))]


def write_field_csv(path, field: np.ndarray, grid: Grid1D, tgrid: TimeGrid, metadata: dict) -> None:
    """Long-format (t, w, value) dump of one space-time field."""
    f = np.asarray(field, dtype=float)
    if f.shape != (tgrid.M + 1, grid.N):
        raise ValueError(f"field shape {f.shape} does not match the grids")
    meta = dict(metadata)
    meta.update({"L": grid.L, "N": grid.N, "T": tgrid.T, "M": tgrid.M})
    t = np.repeat(tgrid.times, grid.N)
    w = np.tile(grid.nodes, tgrid.M + 1)
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
    return grid, tgrid, cols[2].reshape(tgrid.M + 1, grid.N)


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


def _heat_color(v: float) -> str:
    pos = min(max(v, 0.0), 1.0) * (len(_HEAT_STOPS) - 1)
    i = min(int(pos), len(_HEAT_STOPS) - 2)
    fr = pos - i
    rgb = tuple(
        int(round(255 * ((1 - fr) * a + fr * b)))
        for a, b in zip(_HEAT_STOPS[i], _HEAT_STOPS[i + 1])
    )
    return "#%02x%02x%02x" % rgb


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
        for r, (_, _, y) in enumerate(clean):
            cy = _H - _MB - (r + 1) * ch
            for qcol in range(ncols):
                color = _heat_color((float(y[qcol]) - vmin) / span)
                out.append(
                    f'<rect x="{_fmt(_ML + qcol * cw)}" y="{_fmt(cy)}" '
                    f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="{color}"/>'
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

    As a context manager it creates the output directory; an exception in
    the block removes the run's files and re-raises as ExperimentError
    naming `what`.
    """

    def __init__(self, out_dir, what: str):
        self.out_dir = Path(out_dir)
        self.what = what
        self.created: list[Path] = []

    def __enter__(self) -> "_Emitter":
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, Exception):
            for p in self.created:
                p.unlink(missing_ok=True)
            raise ExperimentError(f"{self.what} failed: {exc}") from exc

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.created.append(p)
        return p

    def table(self, name, header, columns, metadata) -> Path:
        p = self.path(name)
        write_table(p, header, columns, metadata)
        return p

    def field(self, name, field, grid, tgrid, metadata) -> Path:
        p = self.path(name)
        write_field_csv(p, field, grid, tgrid, metadata)
        return p

    def json_file(self, name, payload: dict) -> Path:
        p = self.path(name)
        _write_atomic(p, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
        return p


def _solve_gate(cfg: OCPConfig, tol: float):
    sol = solve_ocp(cfg)
    if not sol.residual <= tol:
        raise NumericError(f"solver residual {sol.residual:.3e} exceeds the gate {tol:.1e}")
    if not all(np.all(np.isfinite(a)) for a in (sol.x, sol.lam, sol.u)):
        raise NumericError("solver returned non-finite trajectories")
    return sol


def _grid_meta(plan: ExperimentPlan, cfg: OCPConfig) -> dict:
    return {
        "experiment": plan.experiment,
        "alpha": cfg.alpha,
    }


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


def _verdict(dom: IntervalUnion):
    """(certificate, None) for a certified layout, else (None, reason)."""
    cert = certify_rates(dom)
    if cert is not None:
        return cert, None
    return None, check_condition_ii(dom, 1.0, 2.0).reason or "no-certificate-found"


def _exp_space_time_field(plan, em, workers, tol) -> int:
    cfg = plan.realize()
    sol = _solve_gate(cfg, tol)
    meta = _grid_meta(plan, cfg)
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


def _exp_sliced_norms(plan, em, workers, tol) -> int:
    cfg = plan.realize()
    sol = _solve_gate(cfg, tol)
    meta = _grid_meta(plan, cfg)
    em.field("x.csv", sol.x, cfg.grid, cfg.tgrid, meta)
    prof = time_sliced_l2(sol.x, cfg.grid, cfg.tgrid)
    table_meta = dict(meta)
    table_meta.update({"L": cfg.grid.L, "N": cfg.grid.N, "T": cfg.tgrid.T, "M": cfg.tgrid.M})
    em.table("profile.csv", ["w", "value"], [cfg.grid.nodes, prof.values], table_meta)
    fit = fit_decay_rate(prof, _initial_center(plan), floor=1e-8)
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


def _exp_domain_sweep(plan, em, workers, tol) -> int:
    sizes = plan.l_values
    center = _initial_center(plan)
    configs = {L: plan.realize(L=L) for L in sizes}
    first = configs[sizes[0]]
    sol_first = _solve_gate(first, tol)
    fit = fit_decay_rate(
        time_sliced_l2(sol_first.x, first.grid, first.tgrid), center, floor=1e-8
    )
    mu = max(0.0, fit.rate)
    weight = ExpWeight(center=center, mu=mu)

    def member(L: float):
        cfg = configs[L]
        sol = sol_first if L == sizes[0] else _solve_gate(cfg, tol)
        return weighted_spacetime_norms(sol.x, weight, cfg.grid, cfg.tgrid)

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        reports = list(pool.map(member, sizes))

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
    em.table(
        "reports.csv",
        ["L", "l2l2", "cl2", "two_and_inf", "one_or_two"],
        [
            np.array(sizes),
            np.array([r.l2l2 for r in reports]),
            np.array([r.cl2 for r in reports]),
            np.array([r.two_and_inf for r in reports]),
            np.array([r.one_or_two for r in reports]),
        ],
        meta,
    )
    if plan.plot:
        emit_plot(
            [("two_and_inf", np.array(sizes), np.array([r.two_and_inf for r in reports]))],
            "line",
            em.path("reports.svg"),
            xlabel="L",
            ylabel="weighted norm",
            title="domain sweep",
        )
    return 0


def _exp_alpha_sweep(plan, em, workers, tol) -> int:
    alphas = plan.alpha_values

    def member(a: float):
        cfg = plan.realize(alpha=a)
        sol = _solve_gate(cfg, tol)
        final = GridFunction(cfg.grid, sol.x[-1]).l2_norm()
        return (sol.objective, final, float(np.max(np.abs(sol.u))))

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        rows = list(pool.map(member, alphas))

    em.table(
        "alphas.csv",
        ["alpha", "objective", "final_state_norm", "peak_control"],
        [
            np.array(alphas),
            np.array([r[0] for r in rows]),
            np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]),
        ],
        {"experiment": plan.experiment, "T": plan.T, "L": plan.L},
    )
    if plan.plot:
        emit_plot(
            [
                ("final_state_norm", np.array(alphas), np.array([r[1] for r in rows])),
                ("peak_control", np.array(alphas), np.array([r[2] for r in rows])),
            ],
            "line",
            em.path("alphas.svg"),
            xlabel="alpha",
            ylabel="value",
            title="control weight sweep",
        )
    return 0


def _exp_stabilizability_demo(plan, em, workers, tol) -> int:
    dom = plan.control_domain
    cert, reason = _verdict(dom)
    if cert is not None:
        c_ref = _velocity_field(plan.velocity, plan.L).c_min
        overshoot, rate = guaranteed_decay(dom, plan.feedback_gain, c_ref)
        em.json_file(
            "verdict.json",
            {
                "stabilizable": True,
                "reason": None,
                "k": cert.k,
                "K": cert.K,
                "M": cert.M,
                "feedback_gain": plan.feedback_gain,
                "reference_velocity": c_ref,
                "decay_rate": rate,
                "decay_overshoot": overshoot,
                "domain": domain_to_config(dom),
            },
        )
        return 0
    em.json_file(
        "verdict.json",
        {"stabilizable": False, "reason": reason, "domain": domain_to_config(dom)},
    )
    return 1


_EXPERIMENTS = {
    "space-time-field": _exp_space_time_field,
    "sliced-norms": _exp_sliced_norms,
    "domain-sweep": _exp_domain_sweep,
    "alpha-sweep": _exp_alpha_sweep,
    "stabilizability-demo": _exp_stabilizability_demo,
}


def run_experiment(plan: ExperimentPlan, workers: int = 1, tol: float = 1e-8) -> int:
    """Execute one plan; returns 0 (success) or 1 (negative verdict).

    Any failure removes the files this run created and re-raises as
    ExperimentError carrying the experiment id.
    """
    with _Emitter(plan.out_dir, f"experiment {plan.experiment}") as em:
        return _EXPERIMENTS[plan.experiment](plan, em, workers, tol)


# ---------------------------------------------------------------------------
# simulate (semigroup evolution, no optimization)
# ---------------------------------------------------------------------------

_EQUATIONS = ("transport", "transport-var", "continuity", "wave")
# Plan keys whose simulate default differs from the plan's: no control.
_SIMULATE_DEFAULTS = {"control_domain": {"finite": []}, "feedback_gain": 0.0}


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


def _check_simulate_memory(eq: str, n_nodes: int, n_levels: int) -> None:
    """Refuse a run whose level arrays cannot fit in the available memory.

    The estimate counts the (levels, N) float arrays alive at once (the
    wave's two, one otherwise, plus the t and w columns of the table
    writer), about sixteen (LEVEL_BLOCK, 2N) temporaries of one kernel
    block and about 256 bytes of text per row of one table block.
    """
    arrays = (2 if eq == "wave" else 1) + 2
    need = 8 * (arrays * n_levels + 32 * LEVEL_BLOCK) * n_nodes + 256 * _TABLE_BLOCK
    avail = _mem_available()
    if avail is not None and need > avail:
        raise ExperimentError(
            f"simulate {eq} needs about {need / 2**20:.0f} MiB for {n_levels} levels "
            f"of {n_nodes} nodes; {avail / 2**20:.0f} MiB is available"
        )


def _simulate(cfg: dict, out_dir: Optional[str]) -> int:
    """Evolve the config's equation on the grids of its plan keys."""
    cfg = {**_SIMULATE_DEFAULTS, **cfg}
    eq = cfg.pop("equation", None)
    if eq not in _EQUATIONS:
        raise ValueError(f"equation must be one of {_EQUATIONS}, got {eq!r}")
    plan = plan_from_config(cfg, out_dir=out_dir)
    if eq in ("transport", "wave") and plan.velocity[0] != "constant":
        raise ValueError(f"{eq} uses a constant velocity; use transport-var")
    ocp = plan.realize()
    grid, tgrid, x0, vel = ocp.grid, ocp.tgrid, ocp.x0, ocp.velocity
    L, c = grid.L, plan.velocity[1]  # c: the speed of transport and wave
    dom, gain = plan.control_domain, plan.feedback_gain
    fb = FeedbackProfile.uniform(dom, gain)

    _check_simulate_memory(eq, grid.N, tgrid.M + 1)
    meta = {"equation": eq, "feedback_gain": gain}
    with _Emitter(plan.out_dir, f"simulate {eq}") as em:
        if eq == "wave":
            x1 = GridFunction(grid, np.zeros(grid.N))
            disp, velo = wave_levels(x0, x1, tgrid.times, c, gain, dom, L)
            em.field("displacement.csv", disp, grid, tgrid, meta)
            em.field("velocity.csv", velo, grid, tgrid, meta)
        elif eq == "transport":
            field = transport_levels(x0, tgrid.times, c, L, fb if gain > 0 else None)
            em.field("field.csv", field, grid, tgrid, meta)
        else:
            field = np.empty((tgrid.M + 1, grid.N))
            for m, t in enumerate(tgrid.times):
                if eq == "transport-var":
                    row = transport_variable(x0, float(t), vel, L, fb if gain > 0 else None)
                else:
                    row = continuity_damped(x0, float(t), vel, fb, L)
                field[m] = row.values
            em.field("field.csv", field, grid, tgrid, meta)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# What parsing a malformed config raises: a missing key, or a value of the
# wrong type or range.
_BAD_CONFIG = (ValueError, KeyError, TypeError, AttributeError)


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


def _print_verdict(cert, reason) -> int:
    if cert is None:
        print(f"stabilizable: no ({reason})")
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
        if "control_domain" in cfg:
            cfg = cfg["control_domain"]
        elif _PLAN_KEYS & cfg.keys():  # a plan that keeps the default layout
            cfg = _DEFAULT_CONTROL_DOMAIN
        try:
            dom = domain_from_config(cfg)
        except _BAD_CONFIG as exc:
            raise ConfigError(f"bad domain config: {exc}") from exc
    else:
        raise ConfigError("provide --domain <text> or --config <file>")

    if (args.k is None) != (args.K is None):
        raise ConfigError("pass both --k and --K or neither")
    if args.k is None:
        return _print_verdict(*_verdict(dom))
    try:
        verdict = check_condition_ii(dom, args.k, args.K)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _print_verdict(verdict.certificate, verdict.reason)


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
        grid = Grid1D(float(meta["L"]), int(meta["N"]))
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read profile table: {exc}") from exc
    if len(cols) < 2:
        raise ConfigError("profile table needs (w, value) columns")
    profile = GridFunction(grid, cols[1])
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
    so.add_argument("--tol", type=float, default=1e-8, help="residual acceptance gate")

    sw = sub.add_parser("sweep", help="run the experiment plan in a config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--tol", type=float, default=1e-8)

    df = sub.add_parser("decay-fit", help="fit an exponential profile from a CSV")
    df.add_argument("--in", dest="infile", required=True)
    df.add_argument("--center", type=float, required=True)
    df.add_argument("--floor", type=float, default=1e-8)
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
