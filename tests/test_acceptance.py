"""End-to-end acceptance checks with pinned tolerances.

Each numbered test prints one PASS/FAIL line (written to the real stdout so
it survives capture; run with -s to watch them stream).  The domain-size
sweep feeding items 7 and 8 is solved once and shared; expect the whole
module to take a few minutes, dominated by those eight solves.
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np

from hyplq.analysis import (
    fit_decay_rate,
    spacetime_pairing,
    time_sliced_l2,
    weighted_spacetime_norms,
)
from hyplq.characteristics import VelocityField, flow_backward, flow_forward
from hyplq.cli import main
from hyplq.domain_check import make_equidistant
from hyplq.geometry import ExpWeight, Grid1D, GridFunction, IntervalUnion, TimeGrid
from hyplq.ocp import (
    OCPConfig,
    PerturbationSpec,
    bump_initial,
    rollout_midpoint,
    solve_error_system,
    solve_ocp,
    solve_perturbed,
)
from hyplq.semigroup import (
    FeedbackProfile,
    estimate_operator_norm,
    transport_damped,
    wave_dalembert,
    wave_damped,
    wave_energy,
)

EMPTY = IntervalUnion(prefix=())
SINGLE = IntervalUnion(prefix=((0.0, 0.2),))


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _l2(grid: Grid1D, values: np.ndarray) -> float:
    return math.sqrt(grid.h * float(np.dot(values, values)))


# ---------------------------------------------------------------------------
# 1. interval-layout certificate, known constants
# ---------------------------------------------------------------------------


def test_01_stabilizability_certificate(capsys):
    t0 = time.perf_counter()
    rc_equi = main(
        [
            "check-domain",
            "--domain",
            "periodic: {period: 1, pattern: [[0, 0.2]]}",
            "--k",
            "1",
            "--K",
            "5",
        ]
    )
    rc_single = main(["check-domain", "--domain", "finite: [[0, 0.2]]"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (
        rc_equi == 0
        and "stabilizable: yes" in out
        and rc_single == 1
        and "finite-measure" in out
        and elapsed < 1.0
    )
    _verdict(
        1,
        "layout certificate (k=1, K=5 pass; single interval fails)",
        ok,
        f"exit codes {rc_equi}/{rc_single}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. norm conservation of the uncontrolled stepper
# ---------------------------------------------------------------------------


def test_02_discrete_unitarity():
    grid = Grid1D(1.0, 128)
    w = grid.nodes
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(2.5, 256),
        velocity=VelocityField.constant(2.0),
        alpha=1.0,
        control_domain=EMPTY,
        x0=GridFunction(grid, np.sin(2 * np.pi * w) + 0.3 * np.cos(4 * np.pi * w)),
    )
    t0 = time.perf_counter()
    x = rollout_midpoint(cfg)
    elapsed = time.perf_counter() - t0
    norms = np.sqrt(grid.h * np.sum(x**2, axis=1))
    drift = float(np.max(np.abs(norms - norms[0]))) / norms[0]
    ok = drift <= 1e-10 and elapsed < 5.0
    _verdict(2, "discrete unitarity, N=128 M=256 T=2.5 c=2", ok, f"drift {drift:.2e}")


# ---------------------------------------------------------------------------
# 3. exact contraction factor under full-domain feedback
# ---------------------------------------------------------------------------


def test_03_full_domain_damping():
    k = 1.0
    grid = Grid1D(1.0, 64)
    tgrid = TimeGrid(1.0, 128)
    cfg = OCPConfig(
        grid=grid,
        tgrid=tgrid,
        velocity=VelocityField.constant(1.0),
        alpha=1.0,
        control_domain=IntervalUnion(prefix=((0.0, 1.0),)),
        x0=bump_initial(0.5, 0.5, grid),
    )
    x = rollout_midpoint(cfg, feedback_gain=k)
    norms = np.sqrt(grid.h * np.sum(x**2, axis=1))
    ratios = norms / norms[0]
    dt = tgrid.dt
    rho = (1.0 - 0.5 * k * dt) / (1.0 + 0.5 * k * dt)
    m = np.arange(tgrid.M + 1)
    exact = rho**m
    err_exact = float(np.max(np.abs(ratios - exact) / exact))
    cont = np.exp(-k * tgrid.times)
    err_cont = float(np.max(np.abs(ratios - cont) / cont))
    ok = err_exact <= 1e-12 and err_cont <= 3.0 * dt**2
    _verdict(
        3,
        "full-domain damping matches rho(dt)^m and e^{-kt}",
        ok,
        f"exact {err_exact:.1e}, continuous {err_cont:.2e} vs 3dt^2={3*dt**2:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. second-order convergence of the uncontrolled solve
# ---------------------------------------------------------------------------


def test_04_convergence_order():
    t0 = time.perf_counter()
    errs = {}
    for N in (128, 256, 512):
        M = N // 2  # dt = h at T = 0.5
        grid = Grid1D(1.0, N)
        x0 = GridFunction(
            grid, np.sin(2 * np.pi * grid.nodes) + 0.3 * np.cos(4 * np.pi * grid.nodes)
        )
        cfg = OCPConfig(
            grid=grid,
            tgrid=TimeGrid(0.5, M),
            velocity=VelocityField.constant(1.0),
            alpha=1.0,
            control_domain=EMPTY,
            x0=x0,
        )
        sol = solve_ocp(cfg)
        from hyplq.semigroup import transport_free

        exact = transport_free(x0, 0.5, 1.0, 1.0).values
        errs[N] = _l2(grid, sol.x[-1] - exact)
    elapsed = time.perf_counter() - t0
    o1 = math.log2(errs[128] / errs[256])
    o2 = math.log2(errs[256] / errs[512])
    ok = o1 >= 1.9 and o2 >= 1.9 and elapsed < 60.0
    _verdict(
        4,
        "uncontrolled solve converges at order >= 1.9",
        ok,
        f"orders {o1:.3f}, {o2:.3f}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. characteristics roundtrip and flow derivative
# ---------------------------------------------------------------------------


def test_05_characteristics_roundtrip():
    vel = VelocityField.variable(
        lambda w: 2.0 + 0.5 * np.sin(2.0 * math.pi * w),
        1.5,
        2.5,
        derivative=lambda w: math.pi * np.cos(2.0 * math.pi * w),
    )
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst_rt = 0.0
    for _ in range(1000):
        p0 = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 2.5))
        fwd = flow_forward(p0, t, vel, 1.0).position
        shift = math.floor(fwd)
        back = flow_backward(fwd - shift, t, vel, 1.0).position
        worst_rt = max(worst_rt, abs(back + shift - p0))
    # d q(t, q0)/d q0 = c(q)/c(q0), checked by central differences
    worst_d = 0.0
    d = 1e-5
    for _ in range(1000):
        q0 = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.1, 1.5))
        hi = flow_backward(q0 + d, t, vel, 1.0).position
        lo = flow_backward(q0 - d, t, vel, 1.0).position
        q = flow_backward(q0, t, vel, 1.0).position
        ana = vel.eval(q % 1.0) / vel.eval(q0)
        worst_d = max(worst_d, abs((hi - lo) / (2 * d) - ana) / abs(ana))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_d <= 1e-6 and elapsed < 30.0
    _verdict(
        5,
        "1000 characteristic roundtrips and flow derivatives",
        ok,
        f"roundtrip {worst_rt:.1e}, derivative {worst_d:.1e}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. single-interval norm witness survives the large gap
# ---------------------------------------------------------------------------


def test_06_single_interval_witness():
    c = 2.0
    results = []
    for k in (1, 2, 3):
        L = 0.2 + 6.0 * k
        grid = Grid1D(L, int(100 * L))
        fb = FeedbackProfile(SINGLE, 4.0)
        prop = lambda y, tt: transport_damped(y, tt, c, fb, L)
        results.append(
            estimate_operator_norm(prop, float(k), grid, 4, control_domain=SINGLE)
        )
    ok = all(r >= 0.99 for r in results)
    _verdict(
        6,
        "single-interval witness keeps norm >= 0.99 at t=k",
        ok,
        "estimates " + ", ".join(f"{r:.4f}" for r in results),
    )


# ---------------------------------------------------------------------------
# 7 and 8 share the L in {2, 4, 6, 8} sweep (T=5, alpha=0.125, bump data)
# ---------------------------------------------------------------------------

SIZES = (2.0, 4.0, 6.0, 8.0)


@lru_cache(maxsize=None)
def _sweep(layout: str):
    dom = SINGLE if layout == "single" else make_equidistant(0.0, 0.2, 1.0)
    out = {}
    for L in SIZES:
        grid = Grid1D(L, int(128 * L))
        cfg = OCPConfig(
            grid=grid,
            tgrid=TimeGrid(5.0, 400),
            velocity=VelocityField.constant(2.0),
            alpha=0.125,
            control_domain=dom,
            x0=bump_initial(0.8, 0.6, grid),
        )
        out[L] = (cfg, solve_ocp(cfg))
    return out


def _plain_l2l2(cfg, sol) -> float:
    flat = ExpWeight(center=0.6, mu=0.0)
    return weighted_spacetime_norms(sol.x, flat, cfg.grid, cfg.tgrid).l2l2


def test_07_norm_versus_domain_size_dichotomy():
    t0 = time.perf_counter()
    single = {L: _plain_l2l2(*_sweep("single")[L]) for L in SIZES}
    equi = {L: _plain_l2l2(*_sweep("equi")[L]) for L in SIZES}
    elapsed = time.perf_counter() - t0
    increasing = all(single[a] < single[b] for a, b in zip(SIZES[:-1], SIZES[1:]))
    growth = single[8.0] / single[2.0]
    spread = max(equi.values()) / min(equi.values())
    ok = increasing and growth >= 2.0 and spread <= 1.5 and elapsed < 600.0
    _verdict(
        7,
        "norm grows for one interval, stays flat for equidistant",
        ok,
        f"single x{growth:.2f}, equidistant spread {spread:.4f}; {elapsed:.0f}s",
    )


def test_08_exponential_localization_bounded():
    sols = _sweep("equi")
    cfg2, sol2 = sols[2.0]
    prof = time_sliced_l2(sol2.x, cfg2.grid, cfg2.tgrid)
    fit = fit_decay_rate(prof, 0.6, floor=1e-8)
    mu = max(0.0, fit.rate)
    weight = ExpWeight(center=0.6, mu=mu)
    vals = {}
    for L, (cfg, sol) in sols.items():
        vals[L] = weighted_spacetime_norms(sol.x, weight, cfg.grid, cfg.tgrid).two_and_inf
    spread = max(vals.values()) / min(vals.values())
    ok = mu > 0.0 and spread <= 2.0
    _verdict(
        8,
        "weighted norms stay bounded over L",
        ok,
        f"mu {mu:.3f}, spread {spread:.6f}",
    )


# ---------------------------------------------------------------------------
# 9. wave evolution: closed form, energy, second-order residual
# ---------------------------------------------------------------------------


def test_09_wave_equivalence_energy_residual():
    t0 = time.perf_counter()
    grid = Grid1D(1.0, 512)
    w = grid.nodes
    x0 = GridFunction(grid, np.sin(np.pi * w) + 0.5 * np.sin(3 * np.pi * w))
    x1 = GridFunction(grid, np.sin(2 * np.pi * w))
    worst_eq = 0.0
    for t in (0.1, 0.3, 0.7):
        a = wave_damped(x0, x1, t, 1.0, FeedbackProfile(EMPTY, 0.0), 1.0)
        b = wave_dalembert(x0, x1, t, 1.0, 1.0)
        num = _l2(grid, a.displacement.values - b.displacement.values)
        den = _l2(grid, b.displacement.values)
        worst_eq = max(worst_eq, num / den)

    energies = np.array(
        [wave_energy(wave_damped(x0, x1, j / 16.0, 1.0, FeedbackProfile(EMPTY, 0.0), 1.0)) for j in range(33)]
    )
    drift = float(np.max(np.abs(energies - energies[0]))) / energies[0]

    # residual of x_tt + 2k x_t + k^2 x - c^2 x_ww under uniform damping;
    # boundary nodes are excluded because the fixed-end solution is not
    # grid-periodic, so wrapped second differences are meaningless there
    full = IntervalUnion(prefix=((0.0, 1.0),))
    k = 0.7

    def residual(N: int, tau: float) -> float:
        g = Grid1D(1.0, N)
        y0 = GridFunction(g, np.sin(math.pi * g.nodes))
        y1 = GridFunction(g, np.zeros(N))
        out = 0.0
        for tc in (0.25, 0.5):
            rows = {
                s: wave_damped(y0, y1, tc + s * tau, 1.0, FeedbackProfile(full, k), 1.0).displacement.values
                for s in (-1, 0, 1)
            }
            xtt = (rows[1] - 2 * rows[0] + rows[-1]) / tau**2
            xt = (rows[1] - rows[-1]) / (2 * tau)
            xww = (np.roll(rows[0], -1) - 2 * rows[0] + np.roll(rows[0], 1)) / g.h**2
            r = xtt + 2 * k * xt + k**2 * rows[0] - xww
            out = max(out, float(np.max(np.abs(r[2 : N - 2]))))
        return out

    r1 = residual(128, 1.0 / 32.0)
    r2 = residual(256, 1.0 / 64.0)
    ratio = r1 / r2
    elapsed = time.perf_counter() - t0
    ok = worst_eq <= 1e-6 and drift <= 1e-8 and 3.5 <= ratio <= 4.5 and elapsed < 60.0
    _verdict(
        9,
        "wave: fold matches closed form, conserves energy, residual O(h^2)",
        ok,
        f"equiv {worst_eq:.1e}, drift {drift:.1e}, ratio {ratio:.2f}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. first-order error system reproduces perturbed minus nominal
# ---------------------------------------------------------------------------


def test_10_perturbation_error_identity():
    grid = Grid1D(1.0, 24)
    tgrid = TimeGrid(1.0, 12)
    cfg = OCPConfig(
        grid=grid,
        tgrid=tgrid,
        velocity=VelocityField.constant(1.0),
        alpha=0.5,
        control_domain=IntervalUnion(prefix=((0.0, 0.3),)),
        x0=bump_initial(0.4, 0.5, grid),
    )
    base = solve_ocp(cfg)
    worst = 0.0
    for s in range(5):
        rng = np.random.default_rng(100 + s)
        eps = PerturbationSpec(
            eps1=rng.standard_normal((tgrid.M + 1, grid.N)),
            eps2=rng.standard_normal(grid.N),
            eps3=rng.standard_normal((tgrid.M + 1, grid.N)),
            eps4=rng.standard_normal(grid.N),
        )
        pert = solve_perturbed(cfg, eps)
        err = solve_error_system(cfg, eps)
        for got, nom, lin in (
            (pert.x, base.x, err.x),
            (pert.lam, base.lam, err.lam),
            (pert.u, base.u, err.u),
        ):
            worst = max(worst, float(np.max(np.abs(got - nom - lin))))
    ok = worst <= 1e-9
    _verdict(10, "perturbed = nominal + error system, 5 random draws", ok, f"max {worst:.1e}")


# ---------------------------------------------------------------------------
# 11. pairing bounded by the mixed norms
# ---------------------------------------------------------------------------


def test_11_pairing_inequality():
    grid = Grid1D(1.0, 24)
    tgrid = TimeGrid(1.0, 18)
    flat = ExpWeight(center=0.5, mu=0.0)
    rng = np.random.default_rng(2024)
    worst_slack = -np.inf
    ok = True
    for i in range(100):
        scale = 10.0 ** rng.uniform(-3, 3)
        v = scale * rng.standard_normal((tgrid.M + 1, grid.N))
        w = rng.standard_normal((tgrid.M + 1, grid.N))
        lhs = abs(spacetime_pairing(v, w, grid, tgrid))
        bound = (
            weighted_spacetime_norms(v, flat, grid, tgrid).two_and_inf
            * weighted_spacetime_norms(w, flat, grid, tgrid).one_or_two
        )
        slack = lhs - bound
        worst_slack = max(worst_slack, slack)
        if slack > 1e-10 * max(1.0, bound):
            ok = False
    _verdict(
        11,
        "pairing <= (2-and-inf) x (1-or-2) on 100 random pairs",
        ok,
        f"worst slack {worst_slack:.1e}",
    )
