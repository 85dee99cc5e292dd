"""Linear-quadratic optimal control on the periodic grid.

The continuous problem: steer the advection state x_t = -c(w) x_w + B u + f
over a horizon [0, T], paying 1/2 ||C x - x_ref||^2 + alpha^2/2 ||u - u_ref||^2
per unit time.  B restricts the control to the control domain, C restricts
observation.  Instead of iterating forward/backward sweeps, the first-order
optimality conditions for the midpoint-in-time discretization are assembled
as one sparse linear system in the stacked state and adjoint trajectories and
solved directly; the control is recovered pointwise from the adjoint.

All time-dependent data live on the M+1 grid levels; the scheme consumes
them through midpoint averages, so the assembled rows are exactly the
stationarity conditions of the discrete objective (see discrete_objective).
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .characteristics import NumericError, VelocityField
from .geometry import Grid1D, GridFunction, IntervalUnion, TimeGrid, indicator_on_grid, smooth_bump

__all__ = [
    "OCPConfig",
    "OCPSolution",
    "PerturbationSpec",
    "assemble_kkt",
    "build_advection_matrix",
    "bump_initial",
    "check_bump_window",
    "discrete_objective",
    "rollout_midpoint",
    "solve_error_system",
    "solve_ocp",
    "solve_perturbed",
]


@dataclass(frozen=True, eq=False)
class OCPConfig:
    """Problem data for one linear-quadratic control solve.

    x_ref, u_ref and forcing default to zero.  forcing is stored on the
    time levels, shape (M+1, N), and enters the scheme through midpoint
    averages like every other time-dependent quantity.
    """

    grid: Grid1D
    tgrid: TimeGrid
    velocity: VelocityField
    alpha: float
    control_domain: IntervalUnion
    x0: GridFunction
    observation_domain: Optional[IntervalUnion] = None
    x_ref: Optional[GridFunction] = None
    u_ref: Optional[GridFunction] = None
    forcing: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"control weight must be positive, got {self.alpha}")
        if self.x0.grid.N != self.grid.N or self.x0.grid.L != self.grid.L:
            raise ValueError("initial state lives on a different grid")
        for name in ("x_ref", "u_ref"):
            gf = getattr(self, name)
            if gf is not None and (
                gf.grid.N != self.grid.N or gf.grid.L != self.grid.L
            ):
                raise ValueError(f"{name} lives on a different grid")
        if self.forcing is not None:
            f = np.asarray(self.forcing, dtype=float)
            want = (self.tgrid.M + 1, self.grid.N)
            if f.shape != want:
                raise ValueError(f"forcing must have shape {want}, got {f.shape}")
            object.__setattr__(self, "forcing", f)


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """Residuals injected into the optimality system.

    eps1 perturbs the adjoint equation and eps3 the state equation (both on
    time levels, shape (M+1, N)); eps2 shifts the terminal adjoint value and
    eps4 the initial state (shape (N,)).
    """

    eps1: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    eps4: np.ndarray

    def validated(self, grid: Grid1D, tgrid: TimeGrid) -> "PerturbationSpec":
        levels = (tgrid.M + 1, grid.N)
        for name, want in (
            ("eps1", levels),
            ("eps2", (grid.N,)),
            ("eps3", levels),
            ("eps4", (grid.N,)),
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
        return self


@dataclass(frozen=True, eq=False)
class OCPSolution:
    """Stacked solution trajectories plus solve diagnostics.

    x and lam hold the state and adjoint on the M+1 time levels; u is the
    recovered control u = alpha^-2 B* lam + u_ref on the same levels.
    residual is the relative sup-norm defect of the assembled linear system.
    ordering names the factorization that produced the solution:
    "nested-dissection" (pivot-free float32 factor refined in float64),
    "nested-dissection-f64" (the same with a float64 factor) or "colamd"
    (the fallback).
    """

    x: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    objective: float
    residual: float
    ordering: str


def build_advection_matrix(grid: Grid1D, vel: VelocityField) -> sparse.csr_matrix:
    """Sparse A_h = -diag(c(w_i)) D_h with the periodic central quotient D_h.

    For constant velocity the matrix is exactly skew-symmetric, which is what
    makes the midpoint step an isometry of the grid l2 norm.
    """
    N, h = grid.N, grid.h
    coef = vel.eval(grid.nodes) / (2.0 * h)
    rows = np.concatenate([np.arange(N), np.arange(N)])
    cols = np.concatenate([(np.arange(N) + 1) % N, (np.arange(N) - 1) % N])
    data = np.concatenate([-coef, coef])
    return sparse.csr_matrix((data, (rows, cols)), shape=(N, N))


def _indicator(dom: Optional[IntervalUnion], grid: Grid1D) -> np.ndarray:
    if dom is None:
        return np.ones(grid.N)
    return indicator_on_grid(dom, grid).values


def _level_field(arr: Optional[np.ndarray], M: int, N: int) -> np.ndarray:
    if arr is None:
        return np.zeros((M + 1, N))
    return np.asarray(arr, dtype=float)


def _midpoints(levels: np.ndarray) -> np.ndarray:
    return 0.5 * (levels[:-1] + levels[1:])


def assemble_kkt(
    config: OCPConfig, perturbation: Optional[PerturbationSpec] = None
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Assemble the condensed optimality system K z = r.

    Unknowns are z = (x^0..x^M, lam^0..lam^M), 2N(M+1) scalars.  Row blocks,
    in order: the initial condition on x^0, the M midpoint state equations,
    the M midpoint adjoint equations, and the terminal condition on lam^M.
    Every interior row touches at most 8 nonzeros: two time levels of a
    three-point spatial stencil plus the diagonal coupling to the other
    variable.
    """
    grid, tgrid = config.grid, config.tgrid
    N, M, dt = grid.N, tgrid.M, tgrid.dt
    A = build_advection_matrix(grid, config.velocity)
    ind_c = _indicator(config.control_domain, grid)
    ind_o = _indicator(config.observation_domain, grid)

    if perturbation is not None:
        perturbation = perturbation.validated(grid, tgrid)

    # difference and average operators across consecutive time levels
    ones = np.ones(M)
    Ed = sparse.diags([-ones, ones], [0, 1], shape=(M, M + 1))
    Ea = sparse.diags([0.5 * ones, 0.5 * ones], [0, 1], shape=(M, M + 1))
    I_N = sparse.identity(N, format="csr")

    state_x = sparse.kron(Ed, I_N) / dt - sparse.kron(Ea, A)
    state_l = -sparse.kron(Ea, sparse.diags(ind_c)) / config.alpha**2
    adj_x = sparse.kron(Ea, sparse.diags(ind_o))
    adj_l = -sparse.kron(Ed, I_N) / dt - sparse.kron(Ea, A.T)

    pick_first = sparse.csr_matrix((np.ones(1), ([0], [0])), shape=(1, M + 1))
    pick_last = sparse.csr_matrix((np.ones(1), ([0], [M])), shape=(1, M + 1))
    init_x = sparse.kron(pick_first, I_N)
    term_l = sparse.kron(pick_last, I_N)

    K = sparse.bmat(
        [
            [init_x, None],
            [state_x, state_l],
            [adj_x, adj_l],
            [None, term_l],
        ],
        format="csc",
    )

    state_rhs = _midpoints(_level_field(config.forcing, M, N))
    if config.u_ref is not None:
        state_rhs = state_rhs + np.sqrt(ind_c) * config.u_ref.values
    adj_rhs = np.tile(
        ind_o * (config.x_ref.values if config.x_ref is not None else 0.0), (M, 1)
    )
    if perturbation is not None:
        state_rhs = state_rhs + _midpoints(perturbation.eps3)
        adj_rhs = adj_rhs + _midpoints(perturbation.eps1)

    rhs = np.empty(2 * N * (M + 1))
    rhs[:N] = config.x0.values
    if perturbation is not None:
        rhs[:N] += perturbation.eps4
    rhs[N : N * (M + 1)] = state_rhs.ravel()
    rhs[N * (M + 1) : N * (2 * M + 1)] = adj_rhs.ravel()
    rhs[N * (2 * M + 1) :] = perturbation.eps2 if perturbation is not None else 0.0
    return K, rhs


# Relative defect a pivot-free solve must reach to be accepted.
_DEFECT_GATE = 1e-10

# Refinement steps (triangular solves) allowed to one factor.
_REFINE_STEPS = 8

# Rectangles of at most this many grid points are not dissected further.
_ND_LEAF = 32


def _nested_dissection_order(N: int, M: int) -> np.ndarray:
    """Symmetric permutation of K's unknowns in nested-dissection order.

    Unknown x^k_i sits in column k*N + i and lam^k_i in column N(M+1) + k*N + i;
    both are paired with rows of the same index.  The grid points (k, i) of
    the (M+1) x N level-by-node grid couple only to neighbours with |dk|, |di|
    <= 1 (periodically in i), so one grid line separates a rectangle.  The
    ring is cut at nodes 0 and N/2 and those two columns go last; each
    remaining rectangle is bisected along its longer side with the separator
    line ordered after both halves, down to leaves of at most _ND_LEAF points
    kept in natural order.  x and lam alternate at every grid point.
    """
    half = N * (M + 1)
    blocks: list[np.ndarray] = []

    def points(k0: int, k1: int, i0: int, i1: int) -> np.ndarray:
        return (np.arange(k0, k1)[:, None] * N + np.arange(i0, i1)).ravel()

    def dissect(k0: int, k1: int, i0: int, i1: int) -> None:
        nk, ni = k1 - k0, i1 - i0
        if nk <= 0 or ni <= 0:
            return
        if nk * ni <= _ND_LEAF or max(nk, ni) < 3:
            blocks.append(points(k0, k1, i0, i1))
        elif nk >= ni:
            km = k0 + nk // 2
            dissect(k0, km, i0, i1)
            dissect(km + 1, k1, i0, i1)
            blocks.append(points(km, km + 1, i0, i1))
        else:
            im = i0 + ni // 2
            dissect(k0, k1, i0, im)
            dissect(k0, k1, im + 1, i1)
            blocks.append(points(k0, k1, im, im + 1))

    cuts = sorted({0, N // 2})
    for a, b in zip(cuts, cuts[1:] + [N]):
        dissect(0, M + 1, a + 1, b)
    for c in cuts:
        blocks.append(points(0, M + 1, c, c + 1))
    g = np.concatenate(blocks)
    p = np.empty(2 * half, dtype=np.intp)
    p[0::2] = g
    p[1::2] = g + half
    return p


class _Fenv(ctypes.Structure):
    """glibc's fenv_t on x86-64: the x87 environment, then MXCSR."""

    _fields_ = [("x87", ctypes.c_uint16 * 14), ("mxcsr", ctypes.c_uint32)]


def _mxcsr_libc():
    """The C library on x86-64 glibc, whose fegetenv/fesetenv reach MXCSR;
    None on other platforms."""
    try:
        if os.uname().machine != "x86_64" or not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    libc = ctypes.CDLL(None)
    for call in (libc.fegetenv, libc.fesetenv):
        call.argtypes = [ctypes.POINTER(_Fenv)]
        call.restype = ctypes.c_int
    return libc


_LIBC = _mxcsr_libc()

# MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6).
_FTZ_DAZ = 0x8040


@contextlib.contextmanager
def _subnormals_as_zero():
    """Run the block with subnormal results and operands taken as zero on
    this thread (x86-64 with glibc; a no-op elsewhere).

    Across long uncontrolled gaps the fill of a float32 factor decays below
    float32's normal range, and x86 cores take a slow microcode path on
    every subnormal operand, which made such factors slower than float64
    ones.  Refinement against the float64 K corrects what the flush drops.
    """
    env = _Fenv()
    if _LIBC is None or _LIBC.fegetenv(env) != 0:
        yield
        return
    saved = env.mxcsr
    env.mxcsr |= _FTZ_DAZ
    _LIBC.fesetenv(env)
    try:
        yield
    finally:
        env.mxcsr = saved
        _LIBC.fesetenv(env)


def _factor_pivot_free(K: sparse.csc_matrix, p: np.ndarray, dtype):
    """LU in `dtype` of the symmetrically permuted K, every pivot on the
    diagonal, with subnormals flushed to zero."""
    Kp = K.astype(dtype, copy=False)[p][:, p]
    with _subnormals_as_zero():
        return splu(
            Kp, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
        )


def _defect(K: sparse.csc_matrix, z: np.ndarray, rhs: np.ndarray) -> float:
    """Relative sup-norm defect of K z = rhs; NaN when z is not finite."""
    return _relative(rhs - K @ z, rhs)


def _relative(r: np.ndarray, rhs: np.ndarray) -> float:
    """Relative sup-norm defect of the residual r of K z = rhs."""
    return float(np.max(np.abs(r))) / (1.0 + float(np.max(np.abs(rhs))))


def _refine(
    K: sparse.csc_matrix, rhs: np.ndarray, p: np.ndarray, lu, dtype
) -> Optional[np.ndarray]:
    """Iterative refinement of K z = rhs in float64 from z = 0 with the
    factor `lu` of K[p][:, p] held in `dtype`.

    Each step solves for the correction of the current float64 residual.
    Returns z once its defect meets _DEFECT_GATE, and None when a step
    after the first fails to halve the defect (NaN included) or
    _REFINE_STEPS steps do not reach the gate.
    """
    z = np.zeros_like(rhs)
    r = rhs
    defect = np.inf
    for _ in range(_REFINE_STEPS):
        z[p] += lu.solve(r[p].astype(dtype, copy=False))
        r = rhs - K @ z
        last, defect = defect, _relative(r, rhs)
        if defect <= _DEFECT_GATE:
            return z
        if not defect <= 0.5 * last:
            return None
    return None


def _solve_linear(
    K: sparse.csc_matrix, rhs: np.ndarray, N: int, M: int
) -> tuple[np.ndarray, str]:
    """Solve K z = rhs; returns z and the ordering that produced it.

    K is factored without pivoting in nested-dissection order, first in
    float32 and refined in float64; if that misses the defect gate the
    float32 factor is freed and the same refinement runs once with a
    float64 factor ("nested-dissection-f64").  COLAMD with partial
    pivoting is the last fallback.  At most one factor is alive at a time.
    """
    p = _nested_dissection_order(N, M)
    for dtype, ordering in (
        (np.float32, "nested-dissection"),
        (np.float64, "nested-dissection-f64"),
    ):
        try:
            lu = _factor_pivot_free(K, p, dtype)
        except RuntimeError:
            continue
        z = _refine(K, rhs, p, lu, dtype)
        del lu  # free this factor before the next one is made
        if z is not None:
            return z, ordering
    try:
        return splu(K).solve(rhs), "colamd"
    except RuntimeError as exc:
        raise NumericError(
            f"sparse factorization failed on a {K.shape[0]}x{K.shape[1]} "
            f"system with {K.nnz} nonzeros: {exc}"
        ) from exc


def discrete_objective(
    config: OCPConfig, x_levels: np.ndarray, controls: np.ndarray
) -> float:
    """Objective of the midpoint scheme for given trajectories.

    x_levels has shape (M+1, N); controls holds the midpoint control values,
    shape (M, N).  Both quadratic terms are evaluated at the time midpoints
    with the grid l2 norm, so this is the exact function whose stationarity
    conditions assemble_kkt writes down.
    """
    grid, tgrid = config.grid, config.tgrid
    ind_o = _indicator(config.observation_domain, grid)
    x_ref = config.x_ref.values if config.x_ref is not None else 0.0
    u_ref = config.u_ref.values if config.u_ref is not None else 0.0
    xm = _midpoints(np.asarray(x_levels, dtype=float))
    v = np.asarray(controls, dtype=float)
    track = np.sum(ind_o * (xm - x_ref) ** 2, axis=1)
    effort = np.sum((v - u_ref) ** 2, axis=1)
    return float(
        0.5 * tgrid.dt * grid.h * np.sum(track + config.alpha**2 * effort)
    )


def _solve(
    config: OCPConfig, perturbation: Optional[PerturbationSpec]
) -> OCPSolution:
    """Assemble, solve and recover the control; the one path behind the solves."""
    K, rhs = assemble_kkt(config, perturbation)
    N, M = config.grid.N, config.tgrid.M
    z, ordering = _solve_linear(K, rhs, N, M)
    residual = _defect(K, z, rhs)
    half = N * (M + 1)
    x = z[:half].reshape(M + 1, N)
    lam = z[half:].reshape(M + 1, N)
    ind_c = _indicator(config.control_domain, config.grid)
    u = np.sqrt(ind_c) * lam / config.alpha**2
    if config.u_ref is not None:
        u = u + config.u_ref.values
    obj = discrete_objective(config, x, _midpoints(u))
    return OCPSolution(
        x=x, lam=lam, u=u, objective=obj, residual=residual, ordering=ordering
    )


def solve_ocp(config: OCPConfig) -> OCPSolution:
    """Solve the optimality system in one shot and recover the control."""
    return _solve(config, None)


def solve_perturbed(
    config: OCPConfig, perturbation: PerturbationSpec
) -> OCPSolution:
    """Solve the optimality system with injected residuals."""
    return _solve(config, perturbation)


def solve_error_system(
    config: OCPConfig, perturbation: PerturbationSpec
) -> OCPSolution:
    """Response of the optimality system to the residuals alone.

    The problem data (initial state, references, forcing) are zeroed; by
    linearity solve_perturbed(config, eps) - solve_ocp(config) equals
    solve_error_system(config, eps) trajectory by trajectory.
    """
    zero = dataclasses.replace(
        config,
        x0=GridFunction(config.grid, np.zeros(config.grid.N)),
        x_ref=None,
        u_ref=None,
        forcing=None,
    )
    return solve_perturbed(zero, perturbation)


def rollout_midpoint(
    config: OCPConfig,
    controls: Optional[np.ndarray] = None,
    feedback_gain: Optional[float] = None,
) -> np.ndarray:
    """March the state equation alone with the midpoint rule.

    controls: midpoint control values, shape (M, N), entering through the
    control-domain restriction like in the optimality system.  feedback_gain:
    close the loop with u = -gain * x on the control domain instead.  With
    neither, the free evolution.

    When the closed-loop damping is spatially uniform (the control domain
    covers the whole circle) it commutes exactly with the transport part, so
    the step is taken as the scalar contraction (1 - g dt/2)/(1 + g dt/2)
    composed with the undamped midpoint step; that keeps the per-step decay
    factor exact instead of mixing it into the stencil.  Non-uniform profiles
    use the coupled matrix.
    """
    if controls is not None and feedback_gain is not None:
        raise ValueError("pass midpoint controls or a feedback gain, not both")
    grid, tgrid = config.grid, config.tgrid
    N, M, dt = grid.N, tgrid.M, tgrid.dt
    A = build_advection_matrix(grid, config.velocity)
    ind_c = _indicator(config.control_domain, grid)
    I_N = sparse.identity(N, format="csc")

    if controls is not None:
        v = np.asarray(controls, dtype=float)
        if v.shape != (M, N):
            raise ValueError(f"controls must have shape {(M, N)}, got {v.shape}")

    uniform = feedback_gain is not None and bool(np.all(ind_c == 1.0))
    if feedback_gain is not None and not uniform:
        A_eff = (A - feedback_gain * sparse.diags(ind_c)).tocsc()
    else:
        A_eff = A.tocsc()

    lu = splu((I_N - 0.5 * dt * A_eff).tocsc())
    plus = (I_N + 0.5 * dt * A_eff).tocsr()
    rho = 1.0
    if uniform:
        rho = (1.0 - 0.5 * feedback_gain * dt) / (1.0 + 0.5 * feedback_gain * dt)

    f = _level_field(config.forcing, M, N)
    f_mid = _midpoints(f)
    sq = np.sqrt(ind_c)

    out = np.empty((M + 1, N))
    out[0] = config.x0.values
    for m in range(M):
        rhs = plus @ out[m] + dt * f_mid[m]
        if controls is not None:
            rhs = rhs + dt * sq * v[m]
        out[m + 1] = rho * lu.solve(rhs)
    return out


def check_bump_window(width: float, center: float, L: float) -> None:
    """Raise ValueError unless the width is positive and the support window
    [center - width/2, center + width/2] sits inside [0, L]."""
    if width <= 0:
        raise ValueError(f"bump width must be positive, got {width}")
    lo, hi = center - 0.5 * width, center + 0.5 * width
    if lo < 0.0 or hi > L:
        raise ValueError(f"bump window [{lo:.4g}, {hi:.4g}] escapes the domain [0, {L}]")


def bump_initial(width: float, center: float, grid: Grid1D) -> GridFunction:
    """Smooth compactly supported initial state on the grid.

    The support window must sit inside [0, L] (check_bump_window); the
    profile is 1 at the center and vanishes to all orders at the window
    edges.
    """
    check_bump_window(width, center, grid.L)
    vals = np.array([smooth_bump(w, center, width) for w in grid.nodes])
    return GridFunction(grid, vals)
