import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import hyplq.ocp as ocp_mod
from hyplq.characteristics import NumericError, VelocityField
from hyplq.cli import main
from hyplq.geometry import Grid1D, GridFunction, IntervalUnion, TimeGrid, indicator_on_grid
from hyplq.ocp import (
    OCPConfig,
    OCPSolution,
    PerturbationSpec,
    assemble_kkt,
    build_advection_matrix,
    bump_initial,
    discrete_objective,
    rollout_midpoint,
    solve_error_system,
    solve_ocp,
    solve_perturbed,
)
from hyplq.semigroup import transport_free


def make_config(
    N=32,
    M=16,
    L=1.0,
    T=1.0,
    c=1.0,
    alpha=0.5,
    control=((0.0, 0.3),),
    x0_values=None,
    **kw,
):
    grid = Grid1D(L, N)
    tgrid = TimeGrid(T, M)
    if x0_values is None:
        x0_values = np.sin(2 * np.pi * grid.nodes / L)
    dom = IntervalUnion(prefix=control) if control else IntervalUnion()
    return OCPConfig(
        grid=grid,
        tgrid=tgrid,
        velocity=VelocityField.constant(c),
        alpha=alpha,
        control_domain=dom,
        x0=GridFunction(grid, x0_values),
        **kw,
    )


# ------------------------------------------------------------------ advection


def test_advection_row_stencil():
    grid = Grid1D(1.0, 4)
    A = build_advection_matrix(grid, VelocityField.constant(1.0)).toarray()
    assert np.allclose(A[0], [0.0, -2.0, 0.0, 2.0])


def test_advection_skew_symmetric_constant_c():
    grid = Grid1D(1.0, 64)
    A = build_advection_matrix(grid, VelocityField.constant(2.0))
    assert (A + A.T).nnz == 0 or np.max(np.abs((A + A.T).toarray())) == 0.0


def test_advection_kills_constants():
    grid = Grid1D(2.0, 32)
    A = build_advection_matrix(grid, VelocityField.constant(1.7))
    assert np.allclose(A @ np.ones(32), 0.0, atol=1e-14)


# ------------------------------------------------------------------- assembly


def test_kkt_size_and_sparsity():
    cfg = make_config(N=16, M=5)
    K, rhs = assemble_kkt(cfg, None)
    n = 2 * 16 * 6
    assert K.shape == (n, n)
    assert rhs.shape == (n,)
    per_row = np.diff(K.tocsr().indptr)
    assert per_row.max() <= 8


def test_kkt_zero_data_zero_rhs():
    cfg = make_config(N=16, M=5, x0_values=np.zeros(16))
    _, rhs = assemble_kkt(cfg, None)
    assert np.all(rhs == 0.0)


def test_kkt_manufactured_solution():
    # independent row-by-row evaluation of the scheme on arbitrary (x, lam)
    N, M = 16, 5
    cfg = make_config(N=N, M=M, alpha=0.37, control=((0.1, 0.45),))
    K, _ = assemble_kkt(cfg, None)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((M + 1, N))
    lam = rng.standard_normal((M + 1, N))
    z = np.concatenate([x.ravel(), lam.ravel()])
    got = K @ z

    A = build_advection_matrix(cfg.grid, cfg.velocity).toarray()
    ind_c = indicator_on_grid(cfg.control_domain, cfg.grid).values
    dt = cfg.tgrid.dt
    a2 = cfg.alpha**2
    expected = np.empty_like(got)
    expected[:N] = x[0]
    for m in range(M):
        xm = 0.5 * (x[m] + x[m + 1])
        lm = 0.5 * (lam[m] + lam[m + 1])
        row = (x[m + 1] - x[m]) / dt - A @ xm - ind_c * lm / a2
        expected[N * (m + 1) : N * (m + 2)] = row
    base = N * (M + 1)
    for m in range(M):
        xm = 0.5 * (x[m] + x[m + 1])
        lm = 0.5 * (lam[m] + lam[m + 1])
        row = (lam[m] - lam[m + 1]) / dt - A.T @ lm + xm
        expected[base + N * m : base + N * (m + 1)] = row
    expected[base + N * M :] = lam[M]
    assert np.max(np.abs(got - expected)) < 1e-12


def test_kkt_block_adjoint_pairing():
    # adjoint-row block for lam^m is the transpose of the state-row block
    # for x^{m+1}, and vice versa with the shared sign pattern
    N, M = 8, 3
    cfg = make_config(N=N, M=M, alpha=0.7, control=((0.2, 0.6),))
    K, _ = assemble_kkt(cfg, None)
    K = K.toarray()
    base = N * (M + 1)
    m = 1
    state_rows = slice(N * (m + 1), N * (m + 2))
    adj_rows = slice(base + N * m, base + N * (m + 1))
    x_m = slice(N * m, N * (m + 1))
    x_m1 = slice(N * (m + 1), N * (m + 2))
    lam_m = slice(base + N * m, base + N * (m + 1))
    lam_m1 = slice(base + N * (m + 1), base + N * (m + 2))
    assert np.array_equal(K[adj_rows, lam_m], K[state_rows, x_m1].T)
    assert np.array_equal(K[adj_rows, lam_m1], K[state_rows, x_m].T)


# --------------------------------------------------------------------- solves


def test_solve_zero_data_is_zero():
    cfg = make_config(N=16, M=8, x0_values=np.zeros(16))
    sol = solve_ocp(cfg)
    assert np.all(sol.x == 0.0)
    assert np.all(sol.lam == 0.0)
    assert np.all(sol.u == 0.0)
    assert sol.objective == 0.0


def test_solution_boundary_and_control_identities():
    cfg = make_config(N=24, M=12, alpha=0.3)
    sol = solve_ocp(cfg)
    assert np.max(np.abs(sol.x[0] - cfg.x0.values)) < 1e-12
    assert np.max(np.abs(sol.lam[-1])) < 1e-12
    ind = indicator_on_grid(cfg.control_domain, cfg.grid).values
    want = np.sqrt(ind) * sol.lam / cfg.alpha**2
    assert np.allclose(sol.u, want, atol=1e-13)


def test_empty_control_matches_free_rollout():
    cfg = make_config(N=64, M=32, c=2.0, control=())
    sol = solve_ocp(cfg)
    free = rollout_midpoint(cfg)
    assert np.max(np.abs(sol.x - free)) < 1e-10
    assert np.all(sol.u == 0.0)
    # cross-check against the analytic shift at the (integer-shift) horizon
    exact = transport_free(cfg.x0, cfg.tgrid.T, 2.0, cfg.grid.L)
    err = GridFunction(cfg.grid, sol.x[-1] - exact.values).l2_norm()
    assert err < 0.2


def test_controlled_objective_not_above_uncontrolled():
    cfg = make_config(
        N=48,
        M=24,
        L=2.0,
        T=1.5,
        c=1.0,
        alpha=0.25,
        control=((0.0, 0.4), (1.0, 1.4)),
        x0_values=None,
    )
    sol = solve_ocp(cfg)
    free = rollout_midpoint(cfg)
    uncontrolled = discrete_objective(cfg, free, np.zeros((cfg.tgrid.M, cfg.grid.N)))
    assert sol.objective < uncontrolled
    assert sol.residual < 1e-10


def test_objective_gradient_probe():
    cfg = make_config(N=24, M=16, alpha=0.4, control=((0.0, 0.3),))
    sol = solve_ocp(cfg)
    v_star = 0.5 * (sol.u[:-1] + sol.u[1:])
    j_star = discrete_objective(cfg, rollout_midpoint(cfg, controls=v_star), v_star)
    assert j_star == pytest.approx(sol.objective, rel=1e-10)
    rng = np.random.default_rng(3)
    eps = 1e-4
    for _ in range(5):
        d = rng.standard_normal(v_star.shape)
        d /= np.linalg.norm(d)
        jp = discrete_objective(
            cfg, rollout_midpoint(cfg, controls=v_star + eps * d), v_star + eps * d
        )
        jm = discrete_objective(
            cfg, rollout_midpoint(cfg, controls=v_star - eps * d), v_star - eps * d
        )
        assert abs(jp - jm) / (2 * eps) / (1.0 + j_star) < 1e-6


# ------------------------------------------------- nested-dissection solves


def sinusoidal_velocity(mean, amplitude, L):
    k = 2 * np.pi / L
    return VelocityField.variable(
        lambda w: mean + amplitude * np.sin(k * w),
        mean - amplitude,
        mean + amplitude,
    )


FINITE = IntervalUnion(prefix=((0.3, 0.7),))
PERIODIC = IntervalUnion(tail=(0.5, ((0.0, 0.1),)))


def _defect(K, z, rhs):
    """Relative sup-norm defect of K z = rhs, measured apart from the solver."""
    return float(np.max(np.abs(rhs - K @ z))) / (1.0 + float(np.max(np.abs(rhs))))


def _decode(K, N):
    """K's entries by row unknown, decoded from its COO form into the
    solver's stencil layout: (3N, 36) float64 with row c*N + i for node i of
    level class c, column tr*18 + o*2 + tc for the row's type tr (0 for x, 1
    for lam), the 3x3 offset o of the column's grid point and its type tc.
    Every level's rows equal its class's bit for bit; at M = 1 no level
    takes class 1, whose rows stay zero."""
    half = K.shape[0] // 2
    M = half // N - 1
    coo = K.tocoo()
    tr, pr = np.divmod(coo.row, half)
    tc, pc = np.divmod(coo.col, half)
    kr, ir = np.divmod(pr, N)
    kc, ic = np.divmod(pc, N)
    o = 3 * (kc - kr + 1) + np.mod(ic - ir + 1, N)
    levels = np.zeros((M + 1, N, 36))
    levels[kr, ir, 18 * tr + 2 * o + tc] = coo.data
    cls = ocp_mod._level_class(np.arange(M + 1), M)
    kst = np.zeros((3, N, 36))
    kst[cls] = levels
    assert np.array_equal(kst[cls].view(np.uint64), levels.view(np.uint64))
    return kst.reshape(3 * N, 36)


def _by_level(kst, M):
    """A (3N, 36) stencil expanded to one row per grid point, (N(M+1), 36)."""
    N = len(kst) // 3
    return kst.reshape(3, N, 36)[ocp_mod._level_class(np.arange(M + 1), M)].reshape(-1, 36)


def _reference(K, rhs):
    """SuperLU's solution of K z = rhs refined once in float64.  A bare
    solve is not accurate enough to judge the solver by: near alpha = 1e-3
    the condition number of K reaches about 3e12 and it strays by up to
    1e-8, where one refinement step brings it within 1e-10."""
    lu = splu(K)
    ref = lu.solve(rhs)
    ref += lu.solve(rhs - K @ ref)
    return ref


def _float32_rung(cfg, perturbation=None):
    """The float32 rung alone meets the gate and matches a refined SuperLU
    solution."""
    K, rhs = assemble_kkt(cfg, perturbation)
    kst = _decode(K, cfg.grid.N)
    tree = ocp_mod._DissectionTree(cfg.grid.N, cfg.tgrid.M)
    factor = ocp_mod._factor_fronts(kst, tree, np.float32)
    z, _, defect = ocp_mod._refine(kst, cfg.grid.N, rhs, factor, np.float32)
    assert defect <= 1e-10
    assert _defect(K, z, rhs) == defect
    assert np.max(np.abs(z - _reference(K, rhs))) <= 1e-9


@pytest.mark.parametrize("alpha", [0.001, 0.01, 10.0, 100.0])
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("layout", [FINITE, PERIODIC], ids=["finite", "periodic"])
def test_nested_dissection_matches_colamd(alpha, steps, layout):
    # the reference is SuperLU under its default COLAMD ordering (_reference)
    L, N = 2.0, 48
    grid = Grid1D(L, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, steps),
        velocity=sinusoidal_velocity(2.0, 1.8, L),
        alpha=alpha,
        control_domain=layout,
        x0=bump_initial(0.8, 0.6, grid),
    )
    _float32_rung(cfg)
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection"
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("alpha", [0.001, 0.01, 10.0, 100.0])
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("layout", [FINITE, PERIODIC], ids=["finite", "periodic"])
@pytest.mark.parametrize("observed", [None, PERIODIC], ids=["observe-all", "observe-periodic"])
def test_float32_rung_at_high_cfl(alpha, steps, layout, observed):
    # c = 50 over h = 1/64 and dt = 1/steps: CFL 3200 (1600 for two steps)
    L, N = 2.0, 128
    grid = Grid1D(L, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, steps),
        velocity=VelocityField.constant(50.0),
        alpha=alpha,
        control_domain=layout,
        observation_domain=observed,
        x0=bump_initial(0.8, 0.6, grid),
    )
    _float32_rung(cfg)
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection"
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("observed", [None, PERIODIC], ids=["observe-all", "observe-periodic"])
def test_float32_rung_without_control(steps, observed):
    # constant c = 2 and an empty control layout
    L, N = 2.0, 96
    grid = Grid1D(L, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, steps),
        velocity=VelocityField.constant(2.0),
        alpha=0.5,
        control_domain=IntervalUnion(),
        observation_domain=observed,
        x0=bump_initial(0.8, 0.6, grid),
    )
    _float32_rung(cfg)


EQUIDISTANT = IntervalUnion(tail=(1.0, ((0.0, 0.2),)))


LAYOUTS = {"equidistant": EQUIDISTANT, "empty": IntervalUnion()}


def _c50_config(layout, steps, alpha):
    """c = 50 over h = 1/128 and dt = 5/steps, with a bump x0."""
    grid = Grid1D(1.0, 128)
    return OCPConfig(
        grid=grid,
        tgrid=TimeGrid(5.0, steps),
        velocity=VelocityField.constant(50.0),
        alpha=alpha,
        control_domain=LAYOUTS[layout],
        x0=bump_initial(0.8, 0.6, grid),
    )


def _ids(cases):
    return [f"{layout}-{steps}-{alpha}" for layout, steps, alpha in cases]


# (layout, steps, alpha) of _c50_config where the float32 rung stalls above the gate
FLOAT32_STALLS = [
    *[(layout, 1, alpha) for layout in LAYOUTS for alpha in (1e-4, 0.001, 0.01, 0.125, 10.0)],
    *[("equidistant", 10, alpha) for alpha in (1e-4, 0.001, 0.01)],
    ("equidistant", 80, 1e-4),
]


@pytest.mark.parametrize("layout, steps, alpha", FLOAT32_STALLS, ids=_ids(FLOAT32_STALLS))
def test_float64_rung_with_a_real_factor(layout, steps, alpha):
    # the float32 rung stalls, and the float64 rung meets the gate
    cfg = _c50_config(layout, steps, alpha)
    N = cfg.grid.N
    K, rhs = assemble_kkt(cfg, None)
    kst = _decode(K, N)
    tree = ocp_mod._DissectionTree(N, steps)
    assert ocp_mod._refine(kst, N, rhs, ocp_mod._factor_fronts(kst, tree, np.float32), np.float32)[2] > 1e-10
    z, ordering, _, _, defect = ocp_mod._solve_linear(kst, rhs, N, steps)
    assert ordering == "nested-dissection-f64"
    assert defect <= 1e-10
    assert _defect(K, z, rhs) == defect
    assert np.max(np.abs(z - _reference(K, rhs))) <= 1e-9
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection-f64"
    assert sol.residual <= 1e-10


# (layout, steps, alpha) of _c50_config whose float32 rung halves its defect
# for more than 8 steps on its way to the rounding floor
FLOAT32_PAST_EIGHT_STEPS = [
    ("equidistant", 10, 0.125),
    ("equidistant", 10, 10.0),
    *[("empty", 10, alpha) for alpha in (1e-4, 0.001, 0.01, 0.125, 10.0)],
    ("equidistant", 100, 1e-4),
    ("equidistant", 100, 0.001),
]


@pytest.mark.parametrize("layout, steps, alpha", FLOAT32_PAST_EIGHT_STEPS, ids=_ids(FLOAT32_PAST_EIGHT_STEPS))
def test_float32_rung_meets_the_floor_without_a_step_cap(layout, steps, alpha):
    # no step count stops refinement, so these stay on the float32 factor
    # and end within a decade of the rounding floor; no float64 factor is made
    cfg = _c50_config(layout, steps, alpha)
    N = cfg.grid.N
    K, rhs = assemble_kkt(cfg, None)
    z, ordering, solves, _, defect = ocp_mod._solve_linear(_decode(K, N), rhs, N, steps)
    assert ordering == "nested-dissection"
    assert solves > 8
    assert defect <= 10 * ocp_mod._DEFECT_FLOOR
    assert _defect(K, z, rhs) == defect
    assert np.max(np.abs(z - _reference(K, rhs))) <= 1e-9


@given(
    N=st.integers(min_value=4, max_value=48),
    M=st.integers(min_value=1, max_value=30),
    alpha=st.sampled_from([0.01, 0.3, 10.0]),
    sine=st.booleans(),
    observed=st.sampled_from([None, FINITE, PERIODIC]),
    data=st.booleans(),
    perturbed=st.booleans(),
)
@settings(max_examples=40, deadline=None)
# the draws hold both root cuts; these pin the two sides of N = 2 (M + 1):
# a time row at N = 31, the ring's nodes 0 and N/2 at N = 32 and 33
@example(N=31, M=15, alpha=0.3, sine=True, observed=FINITE, data=True, perturbed=True)
@example(N=32, M=15, alpha=0.3, sine=False, observed=None, data=False, perturbed=False)
@example(N=33, M=15, alpha=0.3, sine=True, observed=FINITE, data=True, perturbed=True)
def test_float32_rung_on_small_grids_with_data_and_perturbations(N, M, alpha, sine, observed, data, perturbed):
    # each draw below is a place where repetition in time could break: a
    # speed that varies in space, an observation domain, forcing and
    # references on the right-hand side, and residuals in every row block
    grid = Grid1D(1.0, N)
    rng = np.random.default_rng(97 * N + M)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, M),
        velocity=sinusoidal_velocity(2.0, 0.5, 1.0) if sine else VelocityField.constant(2.0),
        alpha=alpha,
        control_domain=IntervalUnion(prefix=((0.1, 0.45),)),
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
        observation_domain=observed,
        x_ref=GridFunction(grid, rng.standard_normal(N)) if data else None,
        u_ref=GridFunction(grid, rng.standard_normal(N)) if data else None,
        forcing=rng.standard_normal((M + 1, N)) if data else None,
    )
    _float32_rung(cfg, random_perturbation(cfg, M) if perturbed else None)


FULL = IntervalUnion(prefix=((0.0, 1.0),))
PREFIX = IntervalUnion(prefix=((0.1, 0.45),))


@given(
    N=st.integers(min_value=4, max_value=48),
    M=st.integers(min_value=1, max_value=30),
    alpha_exponent=st.floats(min_value=-3.0, max_value=3.0),
    c=st.floats(min_value=0.01, max_value=50.0),
    sine=st.booleans(),
    layout=st.sampled_from([IntervalUnion(), FULL, PREFIX, EQUIDISTANT]),
    observed=st.sampled_from([None, FINITE, PERIODIC]),
)
@settings(max_examples=60, deadline=None)
def test_front_ladder_meets_the_gate_across_alpha_speed_and_layout(
    N, M, alpha_exponent, c, sine, layout, observed
):
    # no COLAMD rung follows the front factors, so one of them must meet the
    # gate on every input: alpha log-uniform in [1e-3, 1e3], c up to 50,
    # constant or sinusoidal, empty, full, prefix and periodic layouts
    grid = Grid1D(1.0, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, M),
        velocity=sinusoidal_velocity(c, 0.25 * c, 1.0) if sine else VelocityField.constant(c),
        alpha=10.0**alpha_exponent,
        control_domain=layout,
        observation_domain=observed,
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
    )
    K, rhs = assemble_kkt(cfg, None)
    z, ordering, _, _, defect = ocp_mod._solve_linear(_decode(K, N), rhs, N, M)
    assert ordering in ("nested-dissection", "nested-dissection-f64")
    assert defect <= 1e-10
    assert _defect(K, z, rhs) == defect
    assert np.max(np.abs(z - _reference(K, rhs))) <= 1e-9


SINGLE = IntervalUnion(prefix=((0.0, 0.2),))


# every pair of values of alpha, c, layout and speed form appears in some
# row (an L9 orthogonal array), the speed sinusoidal in a third of the rows
@pytest.mark.parametrize(
    "alpha, c, layout, sine",
    [
        (1e-3, 0.5, IntervalUnion(), False),
        (1e-3, 2.0, SINGLE, True),
        (1e-3, 50.0, EQUIDISTANT, False),
        (0.125, 0.5, SINGLE, False),
        (0.125, 2.0, EQUIDISTANT, False),
        (0.125, 50.0, IntervalUnion(), True),
        (10.0, 0.5, EQUIDISTANT, True),
        (10.0, 2.0, IntervalUnion(), False),
        (10.0, 50.0, SINGLE, False),
    ],
)
def test_front_ladder_above_the_inverse_leaf(monkeypatch, alpha, c, layout, sine):
    # at M = 100 the root's pivot block has order 404 > _INV_LEAF, so it is
    # inverted by float64 2x2 blocks; the ladder must meet the gate there
    # and take the rung it takes with one LAPACK inverse per block
    L, N, M = 1.0, 128, 100
    grid = Grid1D(L, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(5.0, M),
        velocity=sinusoidal_velocity(c, 0.25 * c, L) if sine else VelocityField.constant(c),
        alpha=alpha,
        control_domain=layout,
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
    )
    assert 4 * (M + 1) > ocp_mod._INV_LEAF
    K, rhs = assemble_kkt(cfg, None)
    kst = _decode(K, N)
    z, ordering, _, _, defect = ocp_mod._solve_linear(kst, rhs, N, M)
    assert defect <= 1e-10
    assert _defect(K, z, rhs) == defect
    assert np.max(np.abs(z - _reference(K, rhs))) <= 1e-9
    monkeypatch.setattr(ocp_mod, "_inverse", np.linalg.inv)
    assert ocp_mod._solve_linear(kst, rhs, N, M)[1] == ordering


@pytest.mark.parametrize("n", [127, 128, 129, 257, 804])
@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-13)])
def test_inverse_matches_numpy(n, dtype, rtol):
    # the 2x2 recursion pivots only inside its leaf blocks, so these random
    # blocks lean on their diagonal, which keeps every leading block and
    # Schur complement well conditioned
    rng = np.random.default_rng(n)
    A = (rng.standard_normal((3, n, n)) + 2 * np.sqrt(n) * np.eye(n)).astype(dtype)
    W = ocp_mod._inverse(A)
    assert W.dtype == dtype and W.shape == A.shape
    ref = np.linalg.inv(A)
    assert np.max(np.abs(W - ref)) <= rtol * np.max(np.abs(ref))
    if n <= ocp_mod._INV_LEAF:
        assert np.array_equal(W, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inverse_falls_back_when_a_leading_block_is_singular(dtype):
    # [[0, I], [I, 0]]: the leading half is singular, so the block path
    # raises and one LAPACK inverse of the whole block, which pivots, runs
    n = 2 * ocp_mod._INV_LEAF + 2
    h = n // 2
    swap = np.zeros((2, n, n), dtype=dtype)
    swap[:, :h, h:] = swap[:, h:, :h] = np.eye(h)
    with pytest.raises(np.linalg.LinAlgError):
        ocp_mod._block_inverse(swap.astype(np.float64))
    W = ocp_mod._inverse(swap)
    assert W.dtype == dtype
    assert np.array_equal(W, swap)


def _out_of_place_inverse(A):
    """The 2x2 recursion as it ran before it inverted in place: the
    reference _block_inverse must match bit for bit."""
    n = A.shape[-1]
    if n <= ocp_mod._INV_LEAF:
        return np.linalg.inv(A)
    h = n // 2
    W = np.empty_like(A)
    W11 = _out_of_place_inverse(A[..., :h, :h])
    Y = W11 @ A[..., :h, h:]
    Z = W[..., h:, h:] = _out_of_place_inverse(A[..., h:, h:] - A[..., h:, :h] @ Y)
    V = Z @ (A[..., h:, :h] @ W11)
    np.negative(V, out=W[..., h:, :h])
    np.negative(Y @ Z, out=W[..., :h, h:])
    np.add(W11, Y @ V, out=W[..., :h, :h])
    return W


@pytest.mark.parametrize("n", [129, 256, 257, 404, 804])
def test_block_inverse_in_place_is_the_out_of_place_recursion(n):
    # same products in the same order, so the same bits, at even and odd
    # orders and at one and two levels of recursion
    rng = np.random.default_rng(n)
    A = rng.standard_normal((3, n, n)) + 2 * np.sqrt(n) * np.eye(n)
    W = A.copy()
    assert ocp_mod._block_inverse(W) is None
    assert np.array_equal(W, _out_of_place_inverse(A))
    for dtype in (np.float32, np.float64):
        B = A.astype(dtype)
        assert np.array_equal(ocp_mod._inverse(B), _out_of_place_inverse(B.astype(np.float64)).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("singular_lead", [False, True])
def test_inverse_leaves_its_input_as_it_is(dtype, singular_lead):
    # the float64 rung reads F_SS again after its inverse, so the in-place
    # recursion must work on a copy, also when the fallback takes over
    n = 2 * ocp_mod._INV_LEAF + 2
    rng = np.random.default_rng(7)
    A = (rng.standard_normal((2, n, n)) + 2 * np.sqrt(n) * np.eye(n)).astype(dtype)
    if singular_lead:
        A[:, : n // 2, : n // 2] = 0
    before = A.copy()
    W = ocp_mod._inverse(A)
    assert np.array_equal(A, before)
    assert W.dtype == dtype and not np.shares_memory(W, A)
    if singular_lead:
        assert np.array_equal(W, np.linalg.inv(before))


@pytest.mark.parametrize("N, M, cut", [(80, 40, "time"), (80, 32, "ring")])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_factor_owns_what_it_keeps(N, M, cut, dtype):
    # every kept block owns its bytes: a view (the root's X of no rows was
    # one, of the chunk buffer) would keep a whole front buffer alive that
    # nbytes does not count.  Both roots have a pivot block above the
    # inverse leaf
    tree = ocp_mod._DissectionTree(N, M)
    root = tree.groups[0]
    assert root.nb == 0 and 2 * root.ns > ocp_mod._INV_LEAF
    assert root.ns == (N if cut == "time" else 2 * (M + 1))
    kst = ocp_mod._kkt_stencil(make_config(N=N, M=M, alpha=0.3))
    factor = ocp_mod._factor_fronts(kst, tree, dtype)
    kept = list(factor.arrays())
    assert kept[-1].shape == (1, 0, 2 * root.ns)  # the root's X
    assert all(a.base is None and a.dtype == dtype for a in kept)
    assert factor.nbytes == sum(a.nbytes for a in kept)
    slots = ocp_mod._front_slots(kst, tree, np.dtype(dtype))
    own = sum((int(slot.max()) + 1) * _kept_entries(g) for g, slot in zip(tree.groups, slots))
    assert factor.nbytes == np.dtype(dtype).itemsize * own


def test_singular_pivot_block_still_raises():
    # [[I, I], [I, I]] is singular: its Schur complement is 0, and the
    # fallback's LAPACK inverse raises, so the ladder reports the block
    n = 2 * ocp_mod._INV_LEAF + 2
    h = n // 2
    doubled = np.tile(np.eye(h), (2, 2))[None]
    with pytest.raises(np.linalg.LinAlgError):
        ocp_mod._inverse(doubled)


def test_singular_pivot_blocks_name_both_rungs(monkeypatch):
    # a factor whose root pivot block (order 64, above a lowered leaf) is
    # singular fails each rung with "singular pivot block"
    order = 2 * ocp_mod._DissectionTree(32, 16).groups[0].ns
    assert order == 64
    exact = ocp_mod._inverse
    monkeypatch.setattr(ocp_mod, "_INV_LEAF", 16)
    monkeypatch.setattr(ocp_mod, "_inverse", lambda A: exact(np.zeros_like(A) if A.shape[-1] == order else A))
    with pytest.raises(NumericError, match="float32 factor: singular pivot block; float64 factor: singular pivot block"):
        solve_ocp(make_config(N=32, M=16, alpha=0.3))


def test_pivot_blocks_of_a_float64_rung_solve_invert_like_lapack(monkeypatch):
    # the 2x2 recursion pivots only inside its leaves, so it is not backward
    # stable on general blocks; on the KKT fronts of a solve that takes the
    # float64 rung (c = 50, alpha = 1e-4) every block above the leaf (the
    # root's time row, order 256) must still invert as LAPACK does
    blocks = []
    exact = ocp_mod._inverse

    def recorded(A):
        if A.dtype == np.float64 and A.shape[-1] > ocp_mod._INV_LEAF:
            blocks.append(A.copy())
        return exact(A)

    monkeypatch.setattr(ocp_mod, "_inverse", recorded)
    cfg = _c50_config("equidistant", 80, 1e-4)
    assert solve_ocp(cfg).ordering == "nested-dissection-f64"
    assert blocks
    for A in blocks:
        W, ref = exact(A), np.linalg.inv(A)
        assert np.all(np.max(np.abs(W - ref), axis=(1, 2)) <= 1e-7 * np.max(np.abs(ref), axis=(1, 2)))


def _stencil_configs(alpha, M):
    """Constant and sinusoidal speed, the single-interval, equidistant and
    prefix layouts, observed everywhere or on a finite domain.  The prefix
    ends inside a cell, so the control indicator takes a value other than
    0, 1/2 and 1 there."""
    grid = Grid1D(1.0, 20)
    for velocity, layout, observed in itertools.product(
        [VelocityField.constant(2.0), sinusoidal_velocity(2.0, 0.5, 1.0)],
        [SINGLE, EQUIDISTANT, IntervalUnion(prefix=((0.1, 0.43),))],
        [None, FINITE],
    ):
        yield OCPConfig(
            grid=grid,
            tgrid=TimeGrid(1.3, M),
            velocity=velocity,
            alpha=alpha,
            control_domain=layout,
            observation_domain=observed,
            x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
        )


@pytest.mark.parametrize("alpha", [1e-3, 0.125, 0.7, 1e3])
@pytest.mark.parametrize("M", [1, 2, 12])
def test_closed_form_stencil_is_the_assembled_matrix(alpha, M):
    # bit for bit, the signs of zeros included: the factor reads these
    # entries.  At alpha = 0.7 the indicator's fraction in the prefix's last
    # cell over alpha^2 differs in the last bit from the fraction times
    # 1 / alpha^2, which is how scipy divides a sparse matrix
    for cfg in _stencil_configs(alpha, M):
        K, _ = assemble_kkt(cfg)
        kst = ocp_mod._kkt_stencil(cfg)
        assert kst.dtype == np.float64
        got, want = _by_level(kst, M), _by_level(_decode(K, cfg.grid.N), M)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("M", [1, 2, 200])
def test_stencil_holds_three_rows_per_node_at_any_horizon(M):
    cfg = next(_stencil_configs(0.125, M))
    assert ocp_mod._kkt_stencil(cfg).shape == (3 * cfg.grid.N, 36)
    assert np.array_equal(ocp_mod._level_class(np.arange(M + 1), M), [0] + [1] * (M - 1) + [2])


@pytest.mark.parametrize("alpha", [1e-3, 0.125, 1e3])
@pytest.mark.parametrize("M", [1, 2, 12])
def test_matrix_free_defect_is_rhs_minus_k_z(alpha, M):
    # the refinement's defect equals scipy's rhs - K @ z bit for bit, the
    # wrap of the ring at nodes 0 and N - 1 included
    rng = np.random.default_rng(M)
    for cfg in _stencil_configs(alpha, M):
        K, rhs = assemble_kkt(cfg)
        for scale in (1e-3, 1.0, 1e3):
            z = scale * rng.standard_normal(K.shape[0])
            got = ocp_mod._kkt_defect(ocp_mod._kkt_stencil(cfg), cfg.grid.N, z, rhs)
            assert np.array_equal(got.view(np.uint64), (rhs - K @ z).view(np.uint64))


def _kept_entries(g):
    """What a factor keeps per slot of g: W, Y and the rows of X that are
    not outward, s^2 + s b + (b - outward) s."""
    return 4 * g.ns**2 + 8 * g.ns * g.nb - 2 * g.ns * len(_outward(g))


def _unshared_entries(tree):
    """What the tree's fronts would keep with one slot per member."""
    return sum(g.count * _kept_entries(g) for g in tree.groups)


@given(
    N=st.integers(min_value=4, max_value=48),
    M=st.integers(min_value=1, max_value=30),
    alpha_exponent=st.floats(min_value=-3.0, max_value=3.0),
    c=st.floats(min_value=0.01, max_value=50.0),
    sine=st.booleans(),
    layout=st.sampled_from([IntervalUnion(), FULL, PREFIX, EQUIDISTANT]),
    observed=st.sampled_from([None, IntervalUnion(), FINITE, PERIODIC]),
)
@settings(max_examples=200, deadline=None)
def test_stencil_rows_repeat_in_time_on_the_used_codes(N, M, alpha_exponent, c, sine, layout, observed):
    # what the front factor takes from the closed form without checking it:
    # interior fronts of one node origin share a matrix because levels
    # 1..M-1 read the rows of class 1 (_decode checks that against the
    # assembled K) and classes 0 and 2 write them too toward the interior,
    # bit for bit; the template and the defect read only the stencil codes
    # in _USED
    grid = Grid1D(1.0, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, M),
        velocity=sinusoidal_velocity(c, 0.25 * c, 1.0) if sine else VelocityField.constant(c),
        alpha=10.0**alpha_exponent,
        control_domain=layout,
        observation_domain=observed,
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
    )
    kst = ocp_mod._kkt_stencil(cfg)
    assert np.count_nonzero(ocp_mod._USED) == 16
    assert not np.any(kst[:, ~ocp_mod._USED])
    lv = kst.view(np.uint64).T.reshape(2, 3, 3, 2, 3, N)  # tr, dk + 1, di + 1, tc, level class, node
    if M >= 2:
        assert np.array_equal(lv[:, 2, ..., 0, :], lv[:, 2, ..., 1, :])
        assert np.array_equal(lv[:, 0, ..., 2, :], lv[:, 0, ..., 1, :])


def _one_slot_per_member(kst, tree, dtype):
    return [np.arange(g.count) for g in tree.groups]


def _factor_slots(factor):
    """The slots of each group of a factor, root last as it factors them."""
    return [sum(len(W) for _, _, W, _, _ in blocks) for *_, blocks in factor.groups]


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-11), (np.float64, 1e-14)], ids=["float32", "float64"])
@pytest.mark.parametrize("M", [1, 2, 12, 100])
def test_shared_fronts_solve_like_one_slot_per_member(monkeypatch, M, dtype, rtol):
    # constant speed shares fronts across space (the periodic layout's
    # nodes repeat every 16, and no node of the empty layout differs from
    # another); a sinusoidal speed shares only the time translates, and
    # alpha = 0.3 under it on the periodic layout is the configuration this
    # test ran before fronts were shared across space
    N = 32
    grid = Grid1D(1.0, N)
    size = np.dtype(dtype).itemsize
    for velocity, layout, alpha in itertools.product(
        [VelocityField.constant(2.0), sinusoidal_velocity(2.0, 0.5, 1.0)],
        [PERIODIC, FINITE, IntervalUnion()],
        [1e-3, 0.125, 0.3, 10.0],
    ):
        cfg = OCPConfig(
            grid=grid,
            tgrid=TimeGrid(1.0, M),
            velocity=velocity,
            alpha=alpha,
            control_domain=layout,
            observation_domain=FINITE,
            x0=bump_initial(0.4, 0.5, grid),
        )
        kst, rhs = ocp_mod._kkt_stencil(cfg), ocp_mod._kkt_rhs(cfg, None)
        tree = ocp_mod._DissectionTree(N, M)
        slots = ocp_mod._front_slots(kst, tree, np.dtype(dtype))
        shared = ocp_mod._factor_fronts(kst, tree, dtype)
        with monkeypatch.context() as m:
            m.setattr(ocp_mod, "_front_slots", _one_slot_per_member)
            single = ocp_mod._factor_fronts(kst, tree, dtype)
        assert _factor_slots(shared) == [int(slot.max()) + 1 for slot in reversed(slots)]
        assert shared.nbytes == size * sum(n * g.kept for n, g in zip(_factor_slots(shared), reversed(tree.groups)))
        assert shared.nbytes <= size * tree.entries()
        assert single.nbytes == size * _unshared_entries(tree)
        # M <= 2 leaves no rectangle that misses both level 0 and level M
        assert (tree.entries() < _unshared_entries(tree)) == (M > 2)
        if velocity.is_constant and layout != FINITE:
            assert shared.nbytes < size * tree.entries()
        if not velocity.is_constant:
            assert shared.nbytes == size * tree.entries() == size * sum(g.slots * _kept_entries(g) for g in tree.groups)
        # the factor keeps every member's unknowns as int32, and each unknown
        # of K is eliminated at exactly one front
        here = np.concatenate([h.ravel() for h, *_ in shared.groups])
        assert here.dtype == np.int32
        assert np.array_equal(np.sort(here), np.arange(len(rhs)))
        # every member's W, Y and X equal its slot's bit for bit
        for slot, (*_, blocks), (*_, own) in zip(reversed(slots), shared.groups, single.groups):
            for k in (2, 3, 4):
                kept = np.concatenate([b[k] for b in blocks])
                every = np.concatenate([b[k] for b in own])
                assert np.array_equal(every.view(np.uint8), kept[slot].view(np.uint8))
        # the shared slots scatter their perimeter pushes in slot order, not
        # in member order, so the refined solutions agree to what a float32
        # factor leaves after the gate or to float64 rounding, in the same
        # steps; every one of these solves meets the gate on either rung
        z, steps, defect = ocp_mod._refine(kst, N, rhs, shared, dtype)
        z_alone, steps_alone, defect_alone = ocp_mod._refine(kst, N, rhs, single, dtype)
        assert defect <= 1e-10 and defect_alone <= 1e-10
        assert steps == steps_alone
        assert np.max(np.abs(z - z_alone)) <= rtol * np.max(np.abs(z_alone))


def _members_below(tree):
    """Each group's members' points eliminated in their subtrees (the front
    and every descendant), as sets of grid points, root first."""
    N = tree.N
    below = {}
    for g in reversed(tree.groups):
        own = [set(row.tolist()) for row in g.points(N)[:, : g.ns]]
        for child, first, *_ in g.children:
            for j in range(g.count):
                own[j] |= below[child][first + j]
        below[g] = own
    return [below[g] for g in tree.groups]


def _outward(g):
    """The perimeter equations of g's fronts that couple neither to a point
    of the front's rectangle nor to its fill, as positions among the 2 nb
    perimeter unknowns, named from the box alone: the state equation (x,
    t = 0) of every perimeter point in the box's first row and the adjoint
    one (t = 1) of every perimeter point in its last row."""
    level = g.local[g.ns :, 0]
    last = g.table.shape[0] - 1
    return sorted({2 * p for p in np.flatnonzero(level == 0)} | {2 * p + 1 for p in np.flatnonzero(level == last)})


class _SquareFronts:
    """The front factor as it ran with square fronts, kept as the reference
    the rectangular one must match: every front has a row for each of its
    perimeter equations, (s + b) x (s + b).  One front per member, members
    in order, each assembled from assemble_kkt's K itself (the entries with
    one end at a point it eliminates) and its children's updates, which it
    places by their grid points.  Keeps each group's X and update.  Its
    solve pushes X y into every perimeter equation but the outward ones,
    whose rows of X it checks are exactly 0, so that it does the same
    arithmetic as the rectangular factor: BLAS may round a row of a
    product differently when the product has fewer rows."""

    def __init__(self, K, tree, dtype):
        N, M = tree.N, tree.M
        half = N * (M + 1)
        K = K.tocsr()
        self.dtype = np.dtype(dtype)
        self.nbytes = 0
        self.groups, self.X, self.updates = [], {}, {}
        with ocp_mod._subnormals_as_zero():
            for g in reversed(tree.groups):
                s, n2 = 2 * g.ns, 2 * (g.ns + g.nb)
                points = g.points(N)
                unknowns = np.stack((points, points + half), axis=-1).reshape(g.count, n2)
                # K's entries in each member's rows and columns, by a sorted
                # key (member, unknown), kept where one end is eliminated here
                rows = K[unknowns.ravel()].tocoo()
                member, row = np.divmod(rows.row, n2)
                key = (np.arange(g.count)[:, None] * 2 * half + unknowns).ravel()
                order = np.argsort(key)
                at = np.minimum(np.searchsorted(key[order], member * 2 * half + rows.col), len(key) - 1)
                inside = key[order][at] == member * 2 * half + rows.col
                col = order[at] % n2
                keep = inside & ((row < s) | (col < s))
                F = np.zeros((g.count, n2, n2))
                F[member[keep], row[keep], col[keep]] = rows.data[keep]
                F = F.astype(dtype)
                for child, first, *_ in g.children:
                    rim = child.points(N)[first : first + g.count, child.ns :]
                    pos = np.array([points[0].tolist().index(q) for q in rim[0]])
                    assert np.array_equal(points[:, pos], rim)
                    at = (2 * pos[:, None] + (0, 1)).ravel()
                    F[:, at[:, None], at] += self.updates[child][first : first + g.count]
                W = ocp_mod._inverse(F[:, :s, :s])
                Y = W @ F[:, :s, s:]
                Y += W @ (F[:, :s, s:] - F[:, :s, :s] @ Y)
                np.multiply(W, 1, out=W)
                np.multiply(Y, 1, out=Y)
                X = F[:, s:, :s].copy()
                self.X[g], self.updates[g] = X, F[:, s:, s:] - X @ Y
                self.nbytes += W.nbytes + Y.nbytes + X.nbytes
                out = _outward(g)
                assert not X[:, out].any()
                rows = np.setdiff1d(np.arange(n2 - s), out)
                self.groups.append((unknowns[:, :s], unknowns[:, s:], rows, W, Y, X[:, rows]))

    def solve(self, r):
        z = np.asarray(r, dtype=self.dtype)
        for here, rim, rows, W, _, X in self.groups:
            y = np.matmul(W, z[here][..., None])
            z[here] = y[..., 0]
            np.subtract.at(z, rim[:, rows], np.matmul(X, y)[..., 0])
        for here, rim, _, W, Y, _ in reversed(self.groups):
            z[here] -= np.matmul(Y, z[rim][..., None])[..., 0]
        return z


# both root cuts (N < 2 (M + 1) cuts a level, else the ring), the smallest
# grids, and a leaf-sized cylinder
PREMISE_SHAPES = [(16, 12), (20, 4), (33, 7), (4, 1), (6, 3), (40, 30)]


@pytest.mark.parametrize("N, M", PREMISE_SHAPES)
def test_fronts_drop_only_equations_that_never_couple_to_them(N, M):
    # the premise of rectangular fronts, checked against assemble_kkt's K:
    # no outward perimeter equation has an entry at a point of its front's
    # rectangle (the points eliminated in the front's subtree, which hold
    # every fill), while every inward one does at a speed that is not 0,
    # but for x^0 = x0 and lam^M = 0, which hold one entry each; the tree's
    # rows are exactly the inward ones, all of them where a front touches
    # level 0 or M on that side
    tree = ocp_mod._DissectionTree(N, M)
    half = N * (M + 1)
    cfg = make_config(N=N, M=M, c=2.0, alpha=0.3, observation_domain=FINITE)
    K = assemble_kkt(cfg)[0].tocsr()
    touched = set()
    for g, below in zip(tree.groups, _members_below(tree)):
        out = _outward(g)
        assert np.array_equal(g.inward, np.setdiff1d(np.arange(2 * g.nb), out))
        # a box that starts one row before level 0 or ends one after level M
        for edge, level, t in ((g.origin[0], 0, 0), (g.origin[0] + g.table.shape[0] - 1, M, 1)):
            if np.any(edge == level + 2 * t - 1):
                assert np.all(edge == level + 2 * t - 1)
                touched.add(level)
                assert not any(u % 2 == t for u in out)
        rim = g.points(N)[:, g.ns :]
        for j in range(g.count):
            inside = np.zeros(2 * half, dtype=bool)
            pts = np.fromiter(below[j], dtype=np.intp)
            inside[pts] = inside[pts + half] = True
            unknowns = np.stack((rim[j], rim[j] + half), axis=-1).ravel()
            coupled = np.array([inside[K[u].indices].any() for u in unknowns], dtype=bool)
            assert not coupled[out].any()
            one_entry = np.diff(K.indptr)[unknowns] == 1
            assert np.all(coupled[g.inward] | one_entry[g.inward])
    assert touched == {0, M}


@pytest.mark.parametrize("N, M", PREMISE_SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rectangular_fronts_are_the_square_ones_without_their_zero_rows(monkeypatch, N, M, dtype):
    # the square reference factor has every outward row of every X and
    # update exactly 0 on both rungs, and the rectangular factor (one slot
    # per member, as the reference) keeps its W and Y and the inward rows of
    # its X.  A Schur product of fewer rows may round an entry differently
    # in BLAS (1 ulp of one block in these 12 cases), so blocks agree to a
    # bound set from the dtype, 2^10 units of its rounding
    cfg = make_config(N=N, M=M, c=2.0, alpha=0.3, observation_domain=FINITE)
    K = assemble_kkt(cfg)[0]
    tree = ocp_mod._DissectionTree(N, M)
    square = _SquareFronts(K, tree, dtype)
    monkeypatch.setattr(ocp_mod, "_front_slots", _one_slot_per_member)
    rect = ocp_mod._factor_fronts(ocp_mod._kkt_stencil(cfg), tree, dtype)
    tol = 1024 * np.finfo(dtype).eps
    dropped = 0
    for g, (_, _, inward, blocks), (_, _, _, W, Y, _) in zip(reversed(tree.groups), rect.groups, square.groups):
        out = _outward(g)
        dropped += len(out)
        assert not square.X[g][:, out].any() and not square.updates[g][:, out].any()
        for k, want in ((2, W), (3, Y), (4, square.X[g][:, inward])):
            got = np.concatenate([b[k] for b in blocks])
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0) <= tol * np.max(np.abs(want), initial=0)
    assert rect.nbytes == np.dtype(dtype).itemsize * _unshared_entries(tree)
    # at M = 1 every front touches level 0 and level M, so none drops a row
    assert (rect.nbytes < square.nbytes) == (dropped > 0) == (M > 1)


@st.composite
def _grid_shapes(draw):
    """(N, M) with M in 1..40 and N in 4..96, on either side of N = 2 (M + 1)
    where both exist: the root cuts a level below it, the ring from it on."""
    M = draw(st.integers(min_value=1, max_value=40))
    split = 2 * (M + 1)
    if split > 4 and draw(st.booleans()):
        return draw(st.integers(min_value=4, max_value=split - 1)), M
    return draw(st.integers(min_value=split, max_value=96)), M


@given(
    shape=_grid_shapes(),
    alpha_exponent=st.floats(min_value=-3.0, max_value=2.0),
    c=st.floats(min_value=0.1, max_value=10.0),
    sine=st.booleans(),
    layout=st.sampled_from([PERIODIC, IntervalUnion()]),
    observed=st.sampled_from([None, FINITE]),
)
@example(shape=(14, 9), alpha_exponent=0.0, c=0.5, sine=True, layout=IntervalUnion(), observed=None)
@settings(max_examples=40, deadline=None)
def test_rectangular_fronts_solve_like_square_ones(shape, alpha_exponent, c, sine, layout, observed):
    # the ladder with rectangular fronts (shared across space as it runs)
    # against the square reference (one front per member): the same rung,
    # the same steps and z to what a float32 factor leaves after the gate or
    # to float64 rounding, as shared fronts against one slot per member.
    # Products of fewer rows round differently, so a defect at the 1e-13
    # floor may fall on either side of it: in the example the square
    # reference stops at 9.65e-14 after 2 steps and the rectangular factor
    # takes a third step from 1.145e-13.  Step counts may differ by that one
    # step only, where both ladders end within 4 times the floor
    N, M = shape
    grid = Grid1D(1.0, N)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, M),
        velocity=sinusoidal_velocity(c, 0.25 * c, 1.0) if sine else VelocityField.constant(c),
        alpha=10.0**alpha_exponent,
        control_domain=layout,
        observation_domain=observed,
        x0=bump_initial(0.4, 0.5, grid),
    )
    K, rhs = assemble_kkt(cfg)
    kst = ocp_mod._kkt_stencil(cfg)
    z, ordering, steps, _, defect = ocp_mod._solve_linear(kst, rhs, N, M)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ocp_mod, "_factor_fronts", lambda kst, tree, dtype: _SquareFronts(K, tree, dtype))
        z_square, ordering_square, steps_square, _, defect_square = ocp_mod._solve_linear(kst, rhs, N, M)
    assert ordering == ordering_square
    assert steps == steps_square or (
        abs(steps - steps_square) == 1 and max(defect, defect_square) <= 4 * ocp_mod._DEFECT_FLOOR
    )
    assert defect <= 1e-10 and defect_square <= 1e-10
    rtol = 1e-11 if ordering == "nested-dissection" else 1e-14
    assert np.max(np.abs(z - z_square)) <= rtol * np.max(np.abs(z_square))


def _box_keys(kst, g, N, M, dtype):
    """Each member's front, named apart from _front_slots: the level classes
    of its box rows and the three level-class rows, rounded to dtype, of the
    nodes across its box columns."""
    rows = kst[:, ocp_mod._USED].astype(dtype).reshape(3, N, -1).transpose(1, 0, 2)
    nrows, ncols = g.table.shape
    return [
        (tuple(ocp_mod._level_class(np.arange(level, level + nrows), M).tolist()), rows[(node + np.arange(ncols)) % N].tobytes())
        for level, node in zip(*g.origin)
    ]


@pytest.mark.parametrize("N, M", [(4, 1), (16, 2), (32, 12), (24, 30), (64, 100)])
def test_fronts_share_slots_by_node_origin(N, M):
    # the tree puts the members of one node origin in one slot, all of them
    # with the same number of members; a group whose rectangles reach level
    # 0 or M has one member per node origin
    tree = ocp_mod._DissectionTree(N, M)
    for g in tree.groups:
        nodes = g.origin[1]
        _, first, inverse = np.unique(nodes, return_index=True, return_inverse=True)
        assert np.array_equal(g.slot, inverse)
        assert g.slots == len(first)
        assert len(set(np.bincount(g.slot).tolist())) == 1
        levels = g.origin[0][:, None] + g.local[: g.ns, 0]
        if np.any((levels == 0) | (levels == M)):
            assert g.slots == g.count
    # the factor's slots: members hold equal box keys exactly when they
    # share a slot, slots are numbered by member count, and there are never
    # more of them than node-origin slots; where every node is its own class
    # (a sinusoidal speed) they are the node-origin slots
    grid = Grid1D(1.0, N)
    for velocity, layout in itertools.product(
        [VelocityField.constant(2.0), sinusoidal_velocity(2.0, 0.5, 1.0)],
        [PERIODIC, FINITE, IntervalUnion()],
    ):
        cfg = OCPConfig(
            grid=grid, tgrid=TimeGrid(1.0, M), velocity=velocity, alpha=0.3,
            control_domain=layout, x0=GridFunction(grid, np.zeros(N)),
        )
        kst = ocp_mod._kkt_stencil(cfg)
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            slots = ocp_mod._front_slots(kst, tree, dtype)
            for g, slot in zip(tree.groups, slots):
                keys = _box_keys(kst, g, N, M, dtype)
                # a group's members share the level classes of their box rows
                assert len({levels for levels, _ in keys}) == 1
                assert len(set(zip(slot.tolist(), keys))) == len(set(keys)) == int(slot.max()) + 1
                assert np.all(np.diff(np.bincount(slot)) >= 0)
                assert int(slot.max()) + 1 <= g.slots
                if not velocity.is_constant:
                    assert np.array_equal(slot, g.slot)


@pytest.mark.parametrize("N, M", [(4, 1), (33, 1), (33, 7), (24, 30), (64, 100)])
def test_tree_plans_the_factor(N, M):
    tree = ocp_mod._DissectionTree(N, M)
    # every group but the root is freed once, by a group that reads it, and
    # no group factored after that one (earlier in root-first order) reads it
    freed = [c for g in tree.groups for c in g.frees]
    assert sorted(map(id, freed)) == sorted(map(id, tree.groups[1:]))
    for i, g in enumerate(tree.groups):
        for c in g.frees:
            assert any(child is c for child, *_ in g.children)
            assert not any(child is c for p in tree.groups[:i] for child, *_ in p.children)
    assert [g.kept for g in tree.groups] == [_kept_entries(g) for g in tree.groups]
    assert sum(g.slots * _kept_entries(g) for g in tree.groups) == tree.entries()
    # a layout, and the empty one, whose nodes all fall in one class
    for control in [((0.0, 0.3),), None]:
        kst = ocp_mod._kkt_stencil(make_config(N=N, M=M, alpha=0.3, control=control))
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            factor = ocp_mod._factor_fronts(kst, tree, dtype)
            slots = ocp_mod._front_slots(kst, tree, dtype)
            # the factor keeps one front per slot of its own, at most what the
            # tree counts with one front per node-origin slot
            own = sum((int(slot.max()) + 1) * _kept_entries(g) for g, slot in zip(tree.groups, slots))
            assert factor.nbytes == dtype.itemsize * own <= dtype.itemsize * tree.entries()
            for g, slot, (*_, blocks) in zip(reversed(tree.groups), reversed(slots), factor.groups):
                # the chunks run every member once, in slot order; each holds
                # slots of one member count, and as many of them as 2 MiB of
                # fronts hold (at least one) unless its run of that count ends.
                # A front has a row per eliminated unknown and inward perimeter
                # equation, a column per unknown
                n1, n2 = 2 * g.ns + 2 * g.nb - len(_outward(g)), 2 * (g.ns + g.nb)
                count = np.bincount(slot)
                start = np.cumsum([0, *count])
                per = ocp_mod._per_chunk(len(count), n1 * n2, dtype.itemsize)
                assert per == len(count) or per == 1 or (per + 1) * n1 * n2 * dtype.itemsize > 2**21
                lo = 0
                for a, b, W, Y, X in blocks:
                    hi = lo + len(W)
                    assert (a, b) == (start[lo], start[hi])
                    assert len(set(count[lo:hi].tolist())) == 1
                    assert len(W) == per or hi == len(count) or count[hi] != count[lo]
                    # no chunk buffer holds more than 2 MiB, unless it holds one front
                    assert len(W) == 1 or len(W) * n1 * n2 * dtype.itemsize <= 2**21
                    assert W.shape == (len(W), 2 * g.ns, 2 * g.ns) and Y.shape == (len(W), 2 * g.ns, 2 * g.nb)
                    assert X.shape == (len(W), n1 - 2 * g.ns, 2 * g.ns)
                    lo = hi
                assert lo == len(count)


@given(
    N=st.integers(min_value=4, max_value=70),
    M=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_nested_dissection_order_is_bijection(N, M):
    # every grid point is eliminated at exactly one front, and the
    # perimeter points of a front are eliminated higher up the tree
    tree = ocp_mod._DissectionTree(N, M)
    half = N * (M + 1)
    depth_of = np.full(half, -1)
    for g in tree.groups:
        depth_of[g.points(N)[:, : g.ns]] = g.depth
    eliminated = np.concatenate([g.points(N)[:, : g.ns].ravel() for g in tree.groups])
    assert np.array_equal(np.sort(eliminated), np.arange(half))
    for g in tree.groups:
        rim = g.points(N)[:, g.ns :]
        assert np.all(depth_of[rim] < g.depth)
        # the perimeter holds every later-eliminated neighbour of the points
        # eliminated here
        for pts in g.points(N)[:3]:
            k, i = np.divmod(pts[: g.ns], N)
            near = {
                (kk * N + (ii % N))
                for kk0, ii0 in zip(k, i)
                for kk in (kk0 - 1, kk0, kk0 + 1)
                for ii in (ii0 - 1, ii0, ii0 + 1)
                if 0 <= kk <= M and depth_of[kk * N + ii % N] < g.depth
            }
            assert near <= set(pts[g.ns :].tolist())


# (N, M) on both sides of N = 2 (M + 1), and the field-solve and test_07 shapes
SEPARATOR_SHAPES = [
    *[(2 * (M + 1) + d, M) for M in (7, 30) for d in (-1, 0, 1)],
    (256, 200),
    *[(128 * L, 400) for L in (1, 2, 4, 8)],
]


@pytest.mark.parametrize("N, M", SEPARATOR_SHAPES)
def test_root_is_the_smaller_separator(N, M):
    # the root eliminates the middle level (N points) while N < 2 (M + 1),
    # else the ring's nodes 0 and N/2 of every level (2 (M + 1) points)
    tree = ocp_mod._DissectionTree(N, M)
    root = tree.groups[0]
    assert root.ns == min(N, 2 * (M + 1))
    k, i = np.divmod(root.points(N)[0, : root.ns], N)
    if N < 2 * (M + 1):
        assert np.all(k == (M + 1) // 2) and np.array_equal(i, np.arange(N))
    else:
        assert set(i.tolist()) == {0, N // 2}
    # every grid point is eliminated exactly once
    eliminated = np.concatenate([g.points(N)[:, : g.ns].ravel() for g in tree.groups])
    assert np.array_equal(np.sort(eliminated), np.arange(N * (M + 1)))
    # every group's node-origin slots hold the same number of members
    for g in tree.groups:
        assert len(set(np.bincount(g.slot).tolist())) == 1


def test_refinement_rescues_inexact_factor(monkeypatch):
    # a factor of a slightly scaled matrix misses the gate on the first
    # solve; refinement brings it back under
    exact = ocp_mod._factor_fronts
    monkeypatch.setattr(
        ocp_mod,
        "_factor_fronts",
        lambda kst, tree, dtype: exact(kst * (1 + 1e-6), tree, dtype),
    )
    cfg = make_config(N=32, M=16, alpha=0.3)
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection"
    assert sol.residual <= 1e-10


def test_refinement_runs_to_the_rounding_floor():
    # a benchmark field-solve draw whose second step lands at 6.0e-11, just
    # under the 1e-10 gate: refinement goes on to the rounding floor, so
    # where it stops does not hang on BLAS threads or summation order
    grid = Grid1D(2.0, 256)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(5.0, 200),
        velocity=VelocityField.constant(2.0),
        alpha=0.125,
        control_domain=IntervalUnion(tail=(0.567182, ((0.0, 0.095387), (0.446055, 0.504261)))),
        x0=bump_initial(0.69039, 0.483182, grid),
    )
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection"
    assert sol.residual <= 1e-13
    assert sol.refine_steps == 3


def test_solve_reports_refinement_steps_and_factor_bytes():
    cfg = make_config(N=32, M=16, alpha=0.3)
    sol = solve_ocp(cfg)
    assert sol.ordering == "nested-dissection"
    assert 1 <= sol.refine_steps <= 8
    # the float32 factor keeps 4 bytes per entry of each of its slots' fronts,
    # fewer than the dissection tree counts with one per node-origin slot
    tree = ocp_mod._DissectionTree(32, 16)
    slots = ocp_mod._front_slots(ocp_mod._kkt_stencil(cfg), tree, np.dtype(np.float32))
    assert sol.factor_bytes == 4 * sum((int(slot.max()) + 1) * g.kept for g, slot in zip(tree.groups, slots))
    assert sol.factor_bytes < 4 * tree.entries()
    assert tree.entries() < _unshared_entries(tree)
    # the fields are optional, so solutions made elsewhere need not name them
    bare = OCPSolution(x=sol.x, lam=sol.lam, u=sol.u, objective=0.0, residual=0.0, ordering="nested-dissection")
    assert bare.refine_steps == 0 and bare.factor_bytes == 0


class _ConstantFactor:
    nbytes = 0

    def __init__(self, value):
        self.value = value

    def solve(self, rhs):
        return np.full_like(rhs, self.value)


def _singular(kst, tree, dtype):
    raise np.linalg.LinAlgError("singular pivot block")


@pytest.mark.parametrize(
    "fake",
    [
        _singular,
        lambda kst, tree, dtype: _ConstantFactor(0.0),
        lambda kst, tree, dtype: _ConstantFactor(np.nan),
    ],
    ids=["raises", "wrong", "nan"],
)
def test_both_rungs_missing_the_gate_exit_2_without_files(monkeypatch, tmp_path, fake):
    # no third rung follows the two front factors: when both miss the gate
    # the solve fails, and the CLI exits 2 before it makes its directory
    monkeypatch.setattr(ocp_mod, "_factor_fronts", fake)
    with pytest.raises(NumericError, match="float32 factor: .*; float64 factor: "):
        solve_ocp(make_config(N=32, M=16, alpha=0.3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"L": 1.0, "nodes_per_unit": 16}, "time": {"T": 0.5, "steps": 8}}))
    out = tmp_path / "out"
    assert main(["solve-ocp", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_refinement_ends_when_the_solves_overflow(monkeypatch):
    # with all-ones rows every product with an infinite z is +inf, so the
    # defect is infinite from the first step on and never halves (inf <=
    # 0.5 * inf holds, inf < 0.5 * inf does not): each rung stops after its
    # first solve
    N, M = 8, 2
    kst = np.ones((3 * N, 36))
    rhs = np.ones(2 * N * (M + 1))
    monkeypatch.setattr(ocp_mod, "_factor_fronts", lambda kst, tree, dtype: _ConstantFactor(np.inf))
    with pytest.raises(NumericError, match=r"float32 factor: defect inf after 1 steps \(stalled\); float64 factor: defect inf after 1 steps"):
        ocp_mod._solve_linear(kst, rhs, N, M)


class _Scheduled:
    """A factor whose i-th solve returns gains[i] times the exact correction."""

    nbytes = 0

    def __init__(self, lu, gains):
        self.lu, self.gains, self.solves = lu, gains, 0

    def solve(self, rhs):
        gain = self.gains[self.solves]
        self.solves += 1
        return gain * self.lu.solve(rhs.astype(np.float64))


def test_refinement_returns_its_least_defect_iterate(monkeypatch):
    # the second step lands at 5e-11, under the gate and over the floor, and
    # the third one throws the defect back to 5e-8: the rung returns the
    # second iterate and passes
    cfg = make_config(N=32, M=16, alpha=0.3)
    K, rhs = assemble_kkt(cfg, None)
    lu = splu(K.tocsc())
    gains = [1 - 1e-6, 1 - 1e-4, -1e3]
    monkeypatch.setattr(ocp_mod, "_factor_fronts", lambda kst, tree, dtype: _Scheduled(lu, gains))
    z, ordering, steps, _, defect = ocp_mod._solve_linear(_decode(K, 32), rhs, 32, 16)
    assert ordering == "nested-dissection"
    assert steps == 3
    assert 1e-13 < defect <= 1e-10
    assert _defect(K, z, rhs) == defect


_LEAST_DEFECT = """
import json
import numpy as np
import hyplq.ocp as ocp_mod
from hyplq.characteristics import VelocityField
from hyplq.geometry import Grid1D, IntervalUnion, TimeGrid
seen = []
measure = ocp_mod._kkt_defect
def spy(kst, N, z, rhs):
    r = measure(kst, N, z, rhs)
    seen.append(float(np.max(np.abs(r))) / (1.0 + float(np.max(np.abs(rhs)))))
    return r
ocp_mod._kkt_defect = spy
grid = Grid1D(1.0, 128)
sol = ocp_mod.solve_ocp(ocp_mod.OCPConfig(
    grid=grid, tgrid=TimeGrid(5.0, 100), velocity=VelocityField.constant(50.0), alpha=3e-4,
    control_domain=IntervalUnion(tail=(1.0, ((0.0, 0.2),))), x0=ocp_mod.bump_initial(0.8, 0.6, grid)))
print(json.dumps({"seen": seen, "steps": sol.refine_steps, "residual": sol.residual, "ordering": sol.ordering}))
"""


def test_refinement_keeps_the_better_iterate_of_a_late_rise():
    # on one BLAS thread, the float32 rung of this c = 50 solve runs its
    # defect 1.1e-11 -> 2.957e-13 -> 3.41e-13; it keeps the 2.957e-13 iterate
    proc = subprocess.run(
        [sys.executable, "-c", _LEAST_DEFECT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["ordering"] == "nested-dissection"
    assert report["steps"] == len(report["seen"]) == 10
    assert report["residual"] == min(report["seen"]) < report["seen"][-1]
    assert report["residual"] == pytest.approx(2.957e-13, abs=5e-16)


class _Damped:
    """A factor whose solves return `gain` times the exact correction, so
    each refinement step leaves 1 - gain of the error.  It counts its
    solves and the factors alive at once."""

    live = 0
    most_live = 0

    def __init__(self, lu, gain, steps):
        self.lu, self.gain, self.steps = lu, gain, steps
        self.nbytes = lu.nbytes
        _Damped.live += 1
        _Damped.most_live = max(_Damped.most_live, _Damped.live)

    def __del__(self):
        _Damped.live -= 1

    def solve(self, rhs):
        self.steps[rhs.dtype.name] = self.steps.get(rhs.dtype.name, 0) + 1
        return self.gain * self.lu.solve(rhs)


@pytest.mark.parametrize(
    "gains, want, float32_steps",
    [
        ((1.0, 1.0), "nested-dissection", None),
        # leaves 0.7 of the error: the second step fails to halve the defect
        ((0.3, 1.0), "nested-dissection-f64", 2),
        # leaves 0.4: every step more than halves, so no step count stops
        # it short of the floor
        ((0.6, 1.0), "nested-dissection", 32),
        # both rungs stall at their second step
        ((0.3, 0.3), None, 2),
    ],
    ids=["float32", "stalled", "slow", "both-fail"],
)
def test_precision_ladder(monkeypatch, gains, want, float32_steps):
    exact = ocp_mod._factor_fronts
    steps: dict = {}

    def fake(kst, tree, dtype):
        gain = gains[0] if dtype is np.float32 else gains[1]
        return _Damped(exact(kst, tree, dtype), gain, steps)

    monkeypatch.setattr(ocp_mod, "_factor_fronts", fake)
    monkeypatch.setattr(_Damped, "most_live", 0)
    cfg = make_config(N=32, M=16, alpha=0.3)
    if want is None:
        with pytest.raises(NumericError, match=r"float32 factor: defect .* after 2 steps \(stalled\)"):
            solve_ocp(cfg)
    else:
        sol = solve_ocp(cfg)
        assert sol.ordering == want
        assert sol.residual <= 1e-10
        assert ("float64" in steps) == (want == "nested-dissection-f64")
    # never two factors alive
    if float32_steps is not None:
        assert steps["float32"] == float32_steps
    assert _Damped.most_live == 1
    assert _Damped.live == 0


@pytest.mark.skipif(ocp_mod._LIBC is None, reason="MXCSR is reached on x86-64 glibc only")
def test_float32_factor_holds_no_subnormals():
    # an uncontrolled transport horizon: without the flush, the float32
    # fill of this factor held 25,260 subnormal values
    grid = Grid1D(1.0, 256)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(0.5, 128),
        velocity=VelocityField.constant(1.0),
        alpha=1.0,
        control_domain=IntervalUnion(),
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
    )
    tree = ocp_mod._DissectionTree(grid.N, cfg.tgrid.M)
    factor = ocp_mod._factor_fronts(ocp_mod._kkt_stencil(cfg), tree, np.float32)
    tiny = np.finfo(np.float32).tiny
    for part in factor.arrays():
        assert not np.any((part != 0) & (np.abs(part) < tiny))

    # the flush holds inside the block only, and ends with an exception too
    half_tiny = np.float32(tiny) * np.float32(0.5)
    assert half_tiny > 0
    with pytest.raises(ValueError):
        with ocp_mod._subnormals_as_zero():
            assert np.float32(tiny) * np.float32(0.5) == 0
            raise ValueError("inside")
    assert np.float32(tiny) * np.float32(0.5) == half_tiny


# ------------------------------------------------------------------- rollouts


def test_rollout_unitarity():
    cfg = make_config(N=128, M=256, T=2.5, c=2.0, control=())
    x = rollout_midpoint(cfg)
    norms = np.sqrt(cfg.grid.h * np.sum(x * x, axis=1))
    assert np.max(np.abs(norms - norms[0])) / norms[0] < 1e-10


def test_rollout_uniform_feedback_exact_contraction():
    k = 1.0
    cfg = make_config(
        N=64, M=128, T=2.0, c=2.0, control=((0.0, 1.0),), x0_values=None
    )
    x = rollout_midpoint(cfg, feedback_gain=k)
    dt = cfg.tgrid.dt
    rho = (1 - 0.5 * k * dt) / (1 + 0.5 * k * dt)
    norms = np.sqrt(cfg.grid.h * np.sum(x * x, axis=1))
    m_idx = np.arange(cfg.tgrid.M + 1)
    assert np.max(np.abs(norms / norms[0] - rho**m_idx)) < 1e-12
    # and the contraction factor tracks e^{-k t} at second order in dt
    drift = np.abs(rho**m_idx - np.exp(-k * cfg.tgrid.times))
    assert np.max(drift / np.exp(-k * cfg.tgrid.times)) <= 3 * dt**2


def test_rollout_partial_feedback_decays():
    cfg = make_config(N=64, M=64, T=2.0, c=2.0, control=((0.0, 0.25),))
    x = rollout_midpoint(cfg, feedback_gain=2.0)
    n0 = np.sqrt(cfg.grid.h * np.sum(x[0] ** 2))
    nT = np.sqrt(cfg.grid.h * np.sum(x[-1] ** 2))
    assert nT < 0.75 * n0


def test_rollout_rejects_conflicting_modes():
    cfg = make_config(N=16, M=4)
    with pytest.raises(ValueError):
        rollout_midpoint(cfg, controls=np.zeros((4, 16)), feedback_gain=1.0)


# -------------------------------------------------------------- perturbations


def random_perturbation(cfg, seed):
    rng = np.random.default_rng(seed)
    M, N = cfg.tgrid.M, cfg.grid.N
    return PerturbationSpec(
        eps1=0.1 * rng.standard_normal((M + 1, N)),
        eps2=0.1 * rng.standard_normal(N),
        eps3=0.1 * rng.standard_normal((M + 1, N)),
        eps4=0.1 * rng.standard_normal(N),
    )


def test_error_system_zero_is_zero():
    cfg = make_config(N=16, M=8)
    M, N = cfg.tgrid.M, cfg.grid.N
    eps = PerturbationSpec(
        eps1=np.zeros((M + 1, N)),
        eps2=np.zeros(N),
        eps3=np.zeros((M + 1, N)),
        eps4=np.zeros(N),
    )
    sol = solve_error_system(cfg, eps)
    assert np.max(np.abs(sol.x)) == 0.0
    assert np.max(np.abs(sol.lam)) == 0.0


def test_error_system_linearity():
    cfg = make_config(N=16, M=8)
    e1 = random_perturbation(cfg, 1)
    e2 = random_perturbation(cfg, 2)
    esum = PerturbationSpec(
        eps1=e1.eps1 + e2.eps1,
        eps2=e1.eps2 + e2.eps2,
        eps3=e1.eps3 + e2.eps3,
        eps4=e1.eps4 + e2.eps4,
    )
    a = solve_error_system(cfg, e1)
    b = solve_error_system(cfg, e2)
    c = solve_error_system(cfg, esum)
    assert np.max(np.abs(c.x - a.x - b.x)) < 1e-11
    assert np.max(np.abs(c.lam - a.lam - b.lam)) < 1e-11


def test_perturbation_error_identity():
    cfg = make_config(N=24, M=12, alpha=0.3)
    eps = random_perturbation(cfg, 7)
    base = solve_ocp(cfg)
    pert = solve_perturbed(cfg, eps)
    delta = solve_error_system(cfg, eps)
    assert np.max(np.abs(pert.x - base.x - delta.x)) < 1e-9
    assert np.max(np.abs(pert.lam - base.lam - delta.lam)) < 1e-9
    assert np.max(np.abs(pert.u - base.u - delta.u)) < 1e-9
    # the perturbed boundary rows hold exactly
    assert np.allclose(pert.x[0], cfg.x0.values + eps.eps4, atol=1e-12)
    assert np.allclose(pert.lam[-1], eps.eps2, atol=1e-12)


def test_perturbation_lists_solve_like_arrays():
    # nested lists are stored as float arrays, so they solve bit for bit
    # like the arrays they were made from
    cfg = make_config(N=16, M=8, alpha=0.3)
    eps = random_perturbation(cfg, 3)
    lists = PerturbationSpec(eps.eps1.tolist(), eps.eps2.tolist(), eps.eps3.tolist(), eps.eps4.tolist())
    assert all(isinstance(getattr(lists, n), np.ndarray) for n in ("eps1", "eps2", "eps3", "eps4"))
    for solve in (solve_perturbed, solve_error_system):
        a, b = solve(cfg, eps), solve(cfg, lists)
        for name in ("x", "lam", "u"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.objective == b.objective


@pytest.mark.parametrize("sine", [False, True], ids=["constant", "sinusoidal"])
def test_solve_with_references_and_forcing_is_the_optimum(sine):
    # x_ref, u_ref, forcing and an observation domain all enter: the
    # recovered control reproduces the state when marched alone, and no
    # other control has a lower objective
    N, M = 24, 20
    grid = Grid1D(1.0, N)
    rng = np.random.default_rng(11)
    cfg = OCPConfig(
        grid=grid,
        tgrid=TimeGrid(1.0, M),
        velocity=sinusoidal_velocity(2.0, 0.5, 1.0) if sine else VelocityField.constant(2.0),
        alpha=0.3,
        control_domain=PREFIX,
        x0=GridFunction(grid, np.sin(2 * np.pi * grid.nodes)),
        observation_domain=FINITE,
        x_ref=GridFunction(grid, rng.standard_normal(N)),
        u_ref=GridFunction(grid, rng.standard_normal(N)),
        forcing=rng.standard_normal((M + 1, N)),
    )
    sol = solve_ocp(cfg)
    v = ocp_mod._midpoints(sol.u)
    x = rollout_midpoint(cfg, controls=v)
    assert np.max(np.abs(x - sol.x)) <= 1e-10 * np.max(np.abs(sol.x))
    for _ in range(4):
        w = v + 0.05 * rng.standard_normal(v.shape)
        assert discrete_objective(cfg, rollout_midpoint(cfg, controls=w), w) >= sol.objective


# ----------------------------------------------------------------- bump data


def test_bump_values():
    grid = Grid1D(4.0, 400)
    b = bump_initial(0.8, 0.6, grid)
    at = lambda w: b.values[int(round(w / grid.h))]
    assert at(0.6) == pytest.approx(1.0, abs=1e-15)
    assert at(0.8) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-12)
    assert at(0.2) == 0.0
    assert at(1.0) == 0.0
    assert at(1.5) == 0.0


def test_bump_window_must_fit():
    grid = Grid1D(1.0, 64)
    with pytest.raises(ValueError):
        bump_initial(0.8, 0.1, grid)


# ------------------------------------------------------------------- configs


def test_config_validation():
    grid = Grid1D(1.0, 16)
    tgrid = TimeGrid(1.0, 4)
    x0 = GridFunction(grid, np.zeros(16))
    with pytest.raises(ValueError):
        OCPConfig(
            grid=grid,
            tgrid=tgrid,
            velocity=VelocityField.constant(1.0),
            alpha=0.0,
            control_domain=IntervalUnion(),
            x0=x0,
        )
    other = GridFunction(Grid1D(1.0, 32), np.zeros(32))
    with pytest.raises(ValueError):
        OCPConfig(
            grid=grid,
            tgrid=tgrid,
            velocity=VelocityField.constant(1.0),
            alpha=0.5,
            control_domain=IntervalUnion(),
            x0=other,
        )
