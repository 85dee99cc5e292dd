"""Seeded inputs and CLI calls of the benchmark workloads.

Every cycle of a run solves a fresh problem: (seed, cycle) draws the initial
bump (centre and width) and one certified periodic control layout (period
and pattern).  The layout changes the sparsity of the optimality system and
so the cost of its factorization by about +-10%; drawing per cycle lets the
medians of a run average over layouts instead of hanging on one.  Problem
sizes are fixed per workload.  The CLI only ever sees the config files
written by `write_inputs`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("field-solve", "sweep-pool", "closed-loop-sim")


@dataclass(frozen=True)
class Sizes:
    """Resolutions of one benchmark mode; everything else comes from the seed."""

    field_L: float
    field_nodes_per_unit: int
    field_steps: int
    sweep_l_values: tuple
    sweep_nodes_per_unit: int
    sweep_steps: int
    sim_L: float
    sim_nodes_per_unit: int
    sim_var_steps: int


# Acceptance-size grids (128 nodes per unit, T = 5) with the pinned step
# counts lowered (400 -> 200 solves, 16 -> 2 characteristic levels) so that
# one cycle takes a few seconds on a 2-core machine and a run holds several.
FULL = Sizes(
    field_L=2.0,
    field_nodes_per_unit=128,
    field_steps=200,
    sweep_l_values=(1.0, 1.5, 2.0, 2.5),
    sweep_nodes_per_unit=128,
    sweep_steps=100,
    sim_L=2.0,
    sim_nodes_per_unit=128,
    sim_var_steps=1,
)

# Tiny sizes for the seconds-long smoke mode: same commands, same checks.
SMOKE = Sizes(
    field_L=2.0,
    field_nodes_per_unit=16,
    field_steps=20,
    sweep_l_values=(1.0, 1.5, 2.0, 2.5),
    sweep_nodes_per_unit=16,
    sweep_steps=20,
    sim_L=2.0,
    sim_nodes_per_unit=16,
    sim_var_steps=3,
)

HORIZON = 5.0
ALPHA = 0.125
SPEED = 2.0
SINUSOIDAL = {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5}
FEEDBACK_GAIN = 1.0
SWEEP_WORKERS = 2
LAYOUTS = ("certified", "offset", "finite")
_GOLDEN = 0.6180339887498949
EQUATIONS = ("transport-var", "continuity", "wave")


@dataclass(frozen=True)
class Draw:
    """What the seed decides."""

    bump_width: float
    bump_center: float
    period: float
    pattern: tuple  # ((a, b), ...) inside [0, period], first a == 0

    def bump(self) -> dict:
        return {"type": "bump", "width": self.bump_width, "center": self.bump_center}

    def layout(self) -> dict:
        return {"periodic": {"period": self.period, "pattern": [list(iv) for iv in self.pattern]}}


def draw(seed: int, cycle: int) -> Draw:
    """Draw a bump that fits inside [0, 1] (the smallest swept domain) and a
    periodic layout whose first interval starts at 0, which the interval
    condition certifies for any nonempty pattern.

    The period and the number of intervals set most of a cycle's cost, so
    they are stratified over the cycles of a run instead of drawn
    independently: the period walks a golden-ratio sequence from a seeded
    start, and one- and two-interval patterns alternate.  Any few
    consecutive cycles then cover the range evenly, whatever the seed.
    """
    rng = random.Random(f"{seed}:{cycle}")
    start = random.Random(seed).random()
    width = round(rng.uniform(0.4, 0.8), 6)
    center = round(rng.uniform(0.5 * width + 0.05, 1.0 - 0.5 * width - 0.05), 6)
    period = round(0.5 + 0.5 * ((start + cycle * _GOLDEN) % 1.0), 6)
    first = round(period * rng.uniform(0.12, 0.25), 6)
    pattern = [(0.0, first)]
    if (seed + cycle) % 2:
        length = round(period * rng.uniform(0.05, 0.15), 6)
        lo = round(rng.uniform(first + 0.1 * period, period - length), 6)
        pattern.append((lo, round(lo + length, 6)))
    return Draw(width, center, period, tuple(pattern))


def check_domain_layouts(d: Draw, sim_L: float) -> dict:
    """Layouts fed to check-domain: the certified one, the same pattern moved
    off the origin (fails the first-interval condition), and a finite prefix
    (fails the infinite-measure condition)."""
    shift = round(0.5 * (d.period - d.pattern[-1][1]) + 0.01, 6)
    return {
        "certified": d.layout(),
        "offset": {"periodic": {"period": d.period, "pattern": [list(iv) for iv in d.pattern], "start": shift}},
        "finite": {"finite": [[0.0, d.pattern[0][1]], [0.5 * sim_L, 0.5 * sim_L + d.pattern[0][1]]]},
    }


def configs(workload: str, d: Draw, sizes: Sizes) -> dict:
    """File name -> JSON config for one workload."""
    if workload == "field-solve":
        return {
            "field.json": {
                "experiment": "space-time-field",
                "grid": {"L": sizes.field_L, "nodes_per_unit": sizes.field_nodes_per_unit},
                "time": {"T": HORIZON, "steps": sizes.field_steps},
                "velocity": {"type": "constant", "value": SPEED},
                "alpha": ALPHA,
                "control_domain": d.layout(),
                "initial": d.bump(),
                "plot": True,
            }
        }
    if workload == "sweep-pool":
        return {
            "sweep.json": {
                "experiment": "domain-sweep",
                "grid": {"L": sizes.sweep_l_values[0], "nodes_per_unit": sizes.sweep_nodes_per_unit},
                "time": {"T": HORIZON, "steps": sizes.sweep_steps},
                "velocity": SINUSOIDAL,
                "alpha": ALPHA,
                "control_domain": d.layout(),
                "initial": d.bump(),
                "l_values": list(sizes.sweep_l_values),
            }
        }
    if workload == "closed-loop-sim":
        out = {
            f"layout-{name}.json": {"control_domain": dom}
            for name, dom in check_domain_layouts(d, sizes.sim_L).items()
        }
        grid = {"L": sizes.sim_L, "nodes_per_unit": sizes.sim_nodes_per_unit}
        for eq in EQUATIONS[:2]:
            out[f"sim-{eq}.json"] = {
                "equation": eq,
                "grid": grid,
                "time": {"T": HORIZON, "steps": sizes.sim_var_steps},
                "velocity": SINUSOIDAL,
                "control_domain": d.layout(),
                "initial": d.bump(),
                "feedback_gain": FEEDBACK_GAIN,
            }
        # default step rule: c*dt = h, so every level is an exact grid shift
        out["sim-wave.json"] = {
            "equation": "wave",
            "grid": grid,
            "time": {"T": HORIZON},
            "velocity": {"type": "constant", "value": SPEED},
            "control_domain": d.layout(),
            "initial": d.bump(),
            "feedback_gain": FEEDBACK_GAIN,
        }
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(workload: str, d: Draw, sizes: Sizes, directory: Path) -> dict:
    """Write the workload's config files; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload, d, sizes).items():
        path = directory / name
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def operations(workload: str, inputs: Path, out: Path) -> list:
    """(operation name, CLI argv) of one cycle, in order."""
    if workload == "field-solve":
        field = out / "field"
        return [
            ("solve-ocp", ["solve-ocp", "--config", str(inputs / "field.json"), "--out", str(field)]),
            ("plot", ["plot", "--in", str(field / "x.csv"), "--style", "heatmap", "--out", str(field / "x-plot.svg")]),
        ]
    if workload == "sweep-pool":
        return [
            ("sweep", ["sweep", "--config", str(inputs / "sweep.json"), "--out", str(out / "sweep"),
                       "--workers", str(SWEEP_WORKERS)]),
        ]
    if workload == "closed-loop-sim":
        ops = [
            (f"check-domain:{name}", ["check-domain", "--config", str(inputs / f"layout-{name}.json")])
            for name in LAYOUTS
        ]
        ops += [
            (f"simulate:{eq}", ["simulate", "--config", str(inputs / f"sim-{eq}.json"), "--out", str(out / eq)])
            for eq in EQUATIONS
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
