"""Output checks that do not trust the timed path.

Tables are parsed here with numpy, not with the CLI's reader, and the
optimality system is rebuilt from the generator's draw with the library, not
from the CLI's plan realization.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from inputs import ALPHA, FEEDBACK_GAIN, HORIZON, SPEED, Draw, Sizes

# The CLI's own residual gate (solve-ocp --tol default).
RESIDUAL_GATE = 1e-8
# Relative slack for "never increases": rounding in the accumulated sums.
MONOTONE_RTOL = 1e-12


def read_csv(path: Path) -> tuple[dict, list, np.ndarray]:
    """(metadata, header, rows x columns) of a `# key: value` headed table."""
    meta = {}
    with open(path) as fh:
        lines = iter(fh)
        for line in lines:
            if line.startswith("#"):
                body = line[1:].strip()
                if ": " in body:
                    key, val = body.split(": ", 1)
                    meta[key] = val
                continue
            header = line.strip().split(",")
            break
        else:
            raise ValueError(f"{path}: no header row")
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns under a {len(header)}-name header")
    return meta, header, data


def read_field(path: Path, n: int, levels: int) -> np.ndarray:
    meta, header, data = read_csv(path)
    if header != ["t", "w", "value"]:
        raise ValueError(f"{path}: header {header} is not t,w,value")
    if (int(meta.get("N", -1)), int(meta.get("M", -2)) + 1) != (n, levels):
        raise ValueError(f"{path}: grid N={meta.get('N')} M={meta.get('M')}, expected N={n} M={levels - 1}")
    if data.shape[0] != n * levels:
        raise ValueError(f"{path}: {data.shape[0]} rows, expected {n * levels}")
    return data[:, 2].reshape(levels, n)


def _guard(fn):
    """Turn a reader failure (missing file, unparsable table) into a problem."""

    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    checked.__name__ = fn.__name__
    return checked


def svg_problems(path: Path) -> list:
    if not path.is_file() or not path.read_text().startswith("<svg"):
        return [f"{path.name} is missing or not an SVG"]
    return []


# ---------------------------------------------------------------------------
# field-solve
# ---------------------------------------------------------------------------


def field_config(d: Draw, sizes: Sizes):
    from hyplq.geometry import Grid1D, TimeGrid, domain_from_config
    from hyplq.characteristics import VelocityField
    from hyplq.ocp import OCPConfig, bump_initial

    grid = Grid1D(sizes.field_L, int(round(sizes.field_L * sizes.field_nodes_per_unit)))
    return OCPConfig(
        grid=grid,
        tgrid=TimeGrid(HORIZON, sizes.field_steps),
        velocity=VelocityField.constant(SPEED),
        alpha=ALPHA,
        control_domain=domain_from_config(d.layout()),
        x0=bump_initial(d.bump_width, d.bump_center, grid),
    )


def kkt_residual(cfg, x: np.ndarray, lam: np.ndarray) -> float:
    """Relative sup-norm defect ||K z - r|| / (1 + ||r||) of read-back trajectories."""
    from hyplq.ocp import assemble_kkt

    K, rhs = assemble_kkt(cfg)
    z = np.concatenate([x.ravel(), lam.ravel()])
    return float(np.max(np.abs(K @ z - rhs))) / (1.0 + float(np.max(np.abs(rhs))))


@_guard
def check_field_solve(out: Path, d: Draw, sizes: Sizes, x_table: str = "x.csv") -> list:
    cfg = field_config(d, sizes)
    n, levels = cfg.grid.N, cfg.tgrid.M + 1
    x = read_field(out / x_table, n, levels)
    lam = read_field(out / "lambda.csv", n, levels)
    res = kkt_residual(cfg, x, lam)
    problems = []
    # written so that NaN fails: nan <= gate is False
    if not res <= RESIDUAL_GATE:
        problems.append(f"KKT residual {res!r} of the written tables exceeds {RESIDUAL_GATE}")
    problems += svg_problems(out / "x.svg")
    return problems


# ---------------------------------------------------------------------------
# sweep-pool
# ---------------------------------------------------------------------------


@_guard
def check_sweep_pool(out: Path, d: Draw, sizes: Sizes) -> list:
    """Finite norms for every swept size, and a localization verdict that
    matches the written norms.

    The verdict itself depends on the input: over 20 random certified
    layouts at the full sizes, 12 gave bounded=False (the sweep fits its
    weight on the smallest domain).  So the check recomputes the certificate
    from the table instead of demanding bounded=True.
    """
    from hyplq.analysis import NormReport, localization_certificate

    meta, header, data = read_csv(out / "reports.csv")
    if header != ["L", "l2l2", "cl2", "two_and_inf", "one_or_two"]:
        return [f"unexpected reports header {header}"]
    if data[:, 0].tolist() != list(sizes.sweep_l_values):
        return [f"swept sizes {data[:, 0].tolist()} != {list(sizes.sweep_l_values)}"]
    if not np.all(np.isfinite(data)):
        return ["a reported norm is not finite"]
    reports = [(row[0], NormReport(*row[1:])) for row in data.tolist()]
    cert = localization_certificate(reports, float(meta["mu"]))
    written = (meta["bounded"], float(meta["trend"]), float(meta["sup"]))
    if written != (str(cert.bounded), cert.trend, cert.sup):
        return [f"written verdict {written} != recomputed {(cert.bounded, cert.trend, cert.sup)}"]
    return []


# ---------------------------------------------------------------------------
# closed-loop-sim
# ---------------------------------------------------------------------------


def expected_check_domain_exit(layout: dict) -> int:
    from hyplq.domain_check import certify_rates
    from hyplq.geometry import domain_from_config

    return 0 if certify_rates(domain_from_config(layout)) is not None else 1


def _never_increases(name: str, series: np.ndarray, slack: float = 0.0) -> list:
    """Each level at most `slack` (plus rounding) above the one before."""
    if not np.all(np.isfinite(series)):
        return [f"{name} is not finite"]
    slack += MONOTONE_RTOL * float(np.max(np.abs(series)))
    rises = np.flatnonzero(np.diff(series) > slack)
    if rises.size:
        m = int(rises[0])
        return [f"{name} rises from {float(series[m])!r} to {float(series[m + 1])!r} at level {m + 1}"]
    return []


def _sim_grid(sizes: Sizes) -> tuple[int, float]:
    n = int(round(sizes.sim_L * sizes.sim_nodes_per_unit))
    return n, sizes.sim_L / n


@_guard
def check_transport_var(out: Path, d: Draw, sizes: Sizes) -> list:
    n, _ = _sim_grid(sizes)
    field = read_field(out / "field.csv", n, sizes.sim_var_steps + 1)
    return _never_increases("transport-var sup-norm", np.max(np.abs(field), axis=1))


@_guard
def check_continuity(out: Path, d: Draw, sizes: Sizes) -> list:
    n, h = _sim_grid(sizes)
    field = read_field(out / "field.csv", n, sizes.sim_var_steps + 1)
    if np.min(field) < 0.0:
        return [f"continuity density goes negative ({np.min(field)!r})"]
    return _never_increases("continuity mass", h * np.sum(field, axis=1))


def wave_levels(sizes: Sizes) -> int:
    """Levels of the default step rule c*dt <= h: ceil(T*c/h) steps."""
    n, h = _sim_grid(sizes)
    return math.ceil(HORIZON * SPEED / h) + 1


def wave_energies(disp: np.ndarray, velo: np.ndarray, chi: np.ndarray, h: float) -> np.ndarray:
    """`hyplq.semigroup.wave_energy` of every level, rebuilt from the tables.

    wave_energy is 2h * sum |D fold|^2 over the doubled circle.  With
    A = c * (central difference of the odd extension of x about both ends)
    and B = x_t + gain*chi*x, the fold's differences are (A - B)/2 at node i
    and (A + B)/2 at node 2n - i; B vanishes at both fixed ends.  So the
    energy is h * (A_0^2/2 + sum_{0<i<n} (A_i^2 + B_i^2) + A_n^2/2).
    """
    n = disp.shape[1]
    zero = np.zeros((disp.shape[0], 1))
    ext = np.concatenate([-disp[:, 1:2], disp, zero, -disp[:, n - 1 : n]], axis=1)
    a = SPEED * (ext[:, 2:] - ext[:, :-2]) / (2.0 * h)
    b = velo + FEEDBACK_GAIN * chi * disp
    inner = np.sum(a[:, 1:n] ** 2, axis=1) + np.sum(b[:, 1:] ** 2, axis=1)
    return h * (0.5 * a[:, 0] ** 2 + inner + 0.5 * a[:, n] ** 2)


@_guard
def check_wave(out: Path, d: Draw, sizes: Sizes) -> list:
    from hyplq.geometry import Grid1D, domain_from_config, restrict_domain

    n, h = _sim_grid(sizes)
    levels = wave_levels(sizes)
    disp = read_field(out / "displacement.csv", n, levels)
    velo = read_field(out / "velocity.csv", n, levels)
    nodes = Grid1D(sizes.sim_L, n).nodes
    chi = np.zeros(n)
    for a, b in restrict_domain(domain_from_config(d.layout()), sizes.sim_L).prefix:
        chi[(nodes >= a) & (nodes < b)] = 1.0
    energy = wave_energies(disp, velo, chi, h)
    # The damping set is resolved to one cell, so the discrete energy can
    # rise by O(h) as a damping edge passes; allow (gain/c)*h of the largest
    # energy per step.  Over 16 draws at N=32 and N=256 the largest rise
    # was 6% of that allowance (2.5e-4 of the energy at N=256).
    return _never_increases("wave energy", energy, FEEDBACK_GAIN / SPEED * h * float(np.max(energy)))


SIMULATE_CHECKS = {
    "transport-var": check_transport_var,
    "continuity": check_continuity,
    "wave": check_wave,
}
