"""Linear-quadratic optimal control on the periodic grid.

The continuous problem: steer the advection state x_t = -c(w) x_w + B u + f
over a horizon [0, T], paying 1/2 ||C x - x_ref||^2 + alpha^2/2 ||u - u_ref||^2
per unit time.  B restricts the control to the control domain, C restricts
observation.  Instead of iterating forward/backward sweeps, the first-order
optimality conditions for the midpoint-in-time discretization form one
sparse linear system in the stacked state and adjoint trajectories, whose
rows are written in closed form and solved directly with numpy alone; the
control is recovered pointwise from the adjoint.

All time-dependent data live on the M+1 grid levels; the scheme consumes
them through midpoint averages, so the assembled rows are exactly the
stationarity conditions of the discrete objective (see discrete_objective).
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .characteristics import NumericError, VelocityField
from .geometry import Grid1D, GridFunction, IntervalUnion, TimeGrid, indicator_on_grid, smooth_bump

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "OCPConfig",
    "OCPSolution",
    "PerturbationSpec",
    "assemble_kkt",
    "build_advection_matrix",
    "bump_initial",
    "check_bump_window",
    "discrete_objective",
    "factor_plan",
    "rollout_midpoint",
    "solve_error_system",
    "solve_bytes",
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
    eps4 the initial state (shape (N,)).  Each is stored as a float array.
    """

    eps1: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    eps4: np.ndarray

    def __post_init__(self):
        for name in ("eps1", "eps2", "eps3", "eps4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def validated(self, grid: Grid1D, tgrid: TimeGrid) -> "PerturbationSpec":
        levels, nodes = (tgrid.M + 1, grid.N), (grid.N,)
        for name, want in (("eps1", levels), ("eps2", nodes), ("eps3", levels), ("eps4", nodes)):
            arr = getattr(self, name)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
        return self


@dataclass(frozen=True, eq=False)
class OCPSolution:
    """Stacked solution trajectories plus solve diagnostics.

    x and lam hold the state and adjoint on the M+1 time levels; u is the
    recovered control u = alpha^-2 B* lam + u_ref on the same levels.
    residual is the relative sup-norm defect of the assembled linear system,
    as the last refinement step measured it.  ordering names the factor
    that produced the solution: "nested-dissection" (float32 front factor
    refined in float64) or "nested-dissection-f64" (the same with a
    float64 factor).  refine_steps counts the solves with that factor and
    factor_bytes the bytes of its W, Y and X blocks, each distinct front once,
    without its int32 unknown indices (15.9 beside 60.4 MiB of blocks at
    L=8, N=1024, M=400 on a layout of period 1).  Neither goes into any artifact.
    """

    x: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    objective: float
    residual: float
    ordering: str
    refine_steps: int = 0
    factor_bytes: int = 0


def build_advection_matrix(grid: Grid1D, vel: VelocityField) -> sparse.csr_matrix:
    """Sparse A_h = -diag(c(w_i)) D_h with the periodic central quotient D_h.

    For constant velocity the matrix is exactly skew-symmetric, which is what
    makes the midpoint step an isometry of the grid l2 norm.
    """
    from scipy import sparse
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
    variable.  The solvers read these rows in closed form (_kkt_stencil).
    """
    from scipy import sparse
    grid, tgrid = config.grid, config.tgrid
    N, M, dt = grid.N, tgrid.M, tgrid.dt
    A = build_advection_matrix(grid, config.velocity)
    ind_c = _indicator(config.control_domain, grid)
    ind_o = _indicator(config.observation_domain, grid)

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
    return K, _kkt_rhs(config, perturbation)


def _kkt_rhs(config: OCPConfig, perturbation: Optional[PerturbationSpec]) -> np.ndarray:
    """The right-hand side r of assemble_kkt's system K z = r."""
    grid, tgrid = config.grid, config.tgrid
    N, M = grid.N, tgrid.M
    if perturbation is not None:
        perturbation = perturbation.validated(grid, tgrid)
    state_rhs = _midpoints(_level_field(config.forcing, M, N))
    if config.u_ref is not None:
        state_rhs = state_rhs + np.sqrt(_indicator(config.control_domain, grid)) * config.u_ref.values
    ind_o = _indicator(config.observation_domain, grid)
    adj_rhs = np.tile(ind_o * (config.x_ref.values if config.x_ref is not None else 0.0), (M, 1))
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
    return rhs


# Relative defect a solve with a front factor must reach to be accepted.
_DEFECT_GATE = 1e-10

# Relative defect at which refinement stops: float64 rounding, which later steps do not improve on.
_DEFECT_FLOOR = 1e-13

# Rectangles of at most this many grid points are not dissected further.
_ND_LEAF = 8

# Bytes of the fronts assembled and factored by one stacked call (at least one front).
_CHUNK_BYTES = 1 << 21

# Pivot blocks of at most this order are inverted by one LAPACK call; larger
# ones by 2x2 blocks (_inverse), whose products run at matmul speed.
_INV_LEAF = 128


# The 3x3 stencil offsets (dk, di), numbered o = 3 (dk + 1) + di + 1.
_OFFSETS = np.array([(dk, di) for dk in (-1, 0, 1) for di in (-1, 0, 1)])

# The 16 of the 36 stencil codes tr*18 + o*2 + tc that _kkt_stencil writes:
# state rows (tr = 0) reach levels k - 1 and k, adjoint rows (tr = 1) k and
# k + 1, and a row reaches the other type (tc != tr) only at its own node.
_USED = np.array(
    [dk in (tr - 1, tr) and (di == 0 or tc == tr) for tr in (0, 1) for dk, di in _OFFSETS for tc in (0, 1)]
)


def _rectangle(nk: int, ni: int, top: bool, bottom: bool):
    """Local geometry of an nk x ni rectangle of the level-by-node grid.

    Coordinates are (row, column) in the rectangle's box, which starts one
    level and one node before it; top/bottom say that the rectangle touches
    level 0/M, so that no perimeter row lies beyond it.  Returns the points
    eliminated at its front (every point of a leaf, else the grid line that
    bisects the longer side), its perimeter and the two halves as (nk, ni,
    top, bottom) shapes with the shift of their boxes.  Every line of points
    runs in increasing level or node: the perimeter is the row above, the
    row below, then the left and the right column with their corners.  A
    half's perimeter then falls on its parent's front in a few runs of
    consecutive positions, so its update is added by a few slices.
    """
    if nk * ni <= _ND_LEAF or max(nk, ni) < 3:
        sep = [(r, c) for r in range(1, nk + 1) for c in range(1, ni + 1)]
        halves = []
    elif nk >= ni:
        h = nk // 2
        sep = [(h + 1, c) for c in range(1, ni + 1)]
        halves = [((h, ni, top, False), 0, 0), ((nk - h - 1, ni, False, bottom), h + 1, 0)]
    else:
        h = ni // 2
        sep = [(r, h + 1) for r in range(1, nk + 1)]
        halves = [((nk, h, top, bottom), 0, 0), ((nk, ni - h - 1, top, bottom), 0, h + 1)]
    rim = [] if top else [(0, c) for c in range(1, ni + 1)]
    if not bottom:
        rim += [(nk + 1, c) for c in range(1, ni + 1)]
    rows = range(1 if top else 0, nk + 1 if bottom else nk + 2)
    rim += [(r, 0) for r in rows] + [(r, ni + 1) for r in rows]
    return sep, rim, halves


def _cylinder(nk: int, top: bool, bottom: bool, N: int):
    """Local geometry of nk levels of the whole ring of N >= 4 nodes, as
    _rectangle's; its box starts one level before it at node 0 and its
    perimeter is the row above and the row below (none beyond level 0/M).
    It is cut by the smaller separator (A. George, SIAM J. Numer. Anal. 10,
    1973): while N < 2 nk the middle level, into two cylinders on whose
    perimeter it lies, else nodes 0 and N/2 of every level, into two
    rectangles."""
    if N < 2 * nk:
        h = nk // 2
        sep = [(h + 1, c) for c in range(N)]
        halves = [((h, top, False), 0, 0), ((nk - h - 1, False, bottom), h + 1, 0)]
    else:
        sep = [(r, c) for c in (0, N // 2) for r in range(1, nk + 1)]
        halves = [((nk, b - a - 1, top, bottom), 0, a) for a, b in ((0, N // 2), (N // 2, N))]
    rows = ([] if top else [0]) + ([] if bottom else [nk + 1])
    return sep, [(r, c) for r in rows for c in range(N)], halves


def _per_chunk(slots: int, entries: int, itemsize: int) -> int:
    """Fronts of `entries` entries of `itemsize` bytes that one stacked
    call assembles and factors: _CHUNK_BYTES of them, at least one and at
    most `slots`."""
    return min(slots, max(1, _CHUNK_BYTES // (itemsize * entries)))


def _runs(pos: np.ndarray, steps=(1,)) -> list:
    """Cut the parent-front positions of a child's perimeter into maximal
    runs of one step, each step one of `steps` (a run of one has step 1):
    (child start, parent start, length, step)."""
    pos = pos.tolist()
    runs, a = [], 0
    while a < len(pos):
        step = pos[a + 1] - pos[a] if a + 1 < len(pos) and pos[a + 1] - pos[a] in steps else 1
        b = a + 1
        while b < len(pos) and pos[b] - pos[b - 1] == step:
            b += 1
        runs.append((a, pos[a], b - a, step))
        a = b
    return runs


@dataclass(eq=False)
class _Fronts:
    """The fronts of one rectangle or cylinder shape at one depth of the
    dissection tree.

    Every member has the same local points, translated (periodically in the
    node index): ns eliminated points, then nb perimeter points.  Its local
    unknowns are x and lam of each local point in turn.  `table` maps each
    cell of the shared box to its local point (-1 outside the front);
    `origin` holds each member's box origin (level, node).

    A front is rectangular.  Its columns are all its local unknowns; its
    rows are the equations of its eliminated unknowns, then its inward
    perimeter equations (`inward`, positions among the 2 nb perimeter
    unknowns, in perimeter order; see rows).  A state equation reaches
    levels k - 1 and k and an adjoint one k and k + 1, so the state
    equations of the row above and the adjoint ones of the row below,
    corners included, couple neither to a point of the rectangle nor to
    its fill, and are no rows of it.  `children` lists (child group, its
    first member, row runs, column runs) per child, whose members follow
    this group's members in order: the child's update rows (its inward
    equations) land on this front's rows in runs of step 1, or of step 2
    where only one unknown of a point is a row here, and its columns (its
    perimeter points, two unknowns each) on this front's points in runs of
    step 1.

    Members whose fronts hold the same matrix share a slot, which the
    factor decides from K (_front_slots).  The members of one node origin
    always do: `slot` maps each member to its node origin's slot, and
    `slots` counts them.  Every origin has the same number of members;
    where fronts touch level 0 or M that number is one.  Cylinders all have
    node origin 0, so a group of them has one slot.
    """

    depth: int
    ns: int
    nb: int
    local: np.ndarray
    table: np.ndarray
    origin: tuple
    slot: np.ndarray
    slots: int
    inward: np.ndarray
    kept: int  # entries the factor keeps per slot, s^2 + s b + b_in s
    children: list = dataclasses.field(default_factory=list)
    frees: list = dataclasses.field(default_factory=list)  # children whose updates die after this group's last chunk

    @property
    def count(self) -> int:
        return len(self.origin[0])

    def rows(self) -> np.ndarray:
        """The front row of each local unknown, -1 where its equation is no
        row of the front (an outward perimeter equation)."""
        s = 2 * self.ns
        row = np.full(s + 2 * self.nb, -1, dtype=np.intp)
        row[:s] = np.arange(s)
        row[s + self.inward] = np.arange(s, s + len(self.inward))
        return row

    def points(self, N: int) -> np.ndarray:
        """Grid point k*N + i of every local point of every member."""
        k = self.origin[0][:, None] + self.local[:, 0]
        i = (self.origin[1][:, None] + self.local[:, 1]) % N
        return k * N + i

    def template(self):
        """Where the entries of K that these fronts own land in them.

        A front owns the entries with one end at a point it eliminates and
        the other inside the front.  Returns (local point, stencil code,
        flat index in the front, rows by columns) per entry, the same for
        every member; only the stencil codes _kkt_stencil writes (_USED) are
        kept, and they hold no outward perimeter equation.
        """
        ns, nb = self.ns, self.nb
        n2 = 2 * (ns + nb)
        row = self.rows()
        # every 3x3 neighbour q of every eliminated point a, by offset o
        box = self.local[:ns, None, :] + _OFFSETS
        q = self.table[box[..., 0], box[..., 1] % self.table.shape[1]]
        a, o = np.nonzero(q >= 0)
        q = q[a, o]
        tr, tc = np.divmod(np.arange(4), 2)  # the four (row, column) types
        # K[(a, tr), (q, tc)], and K[(q, tr), (a, tc)] when q lies outside;
        # local unknown 2p + t is x (t = 0) or lam (t = 1) of local point p
        out = q >= ns
        fwd = (tr * 18 + tc) + 2 * o[:, None]
        rev = (tr * 18 + tc) + 2 * (8 - o[out])[:, None]
        src = np.concatenate([np.repeat(a, 4), np.repeat(q[out], 4)])
        code = np.concatenate([fwd.ravel(), rev.ravel()])
        dest = np.concatenate(
            [
                (row[2 * a[:, None] + tr] * n2 + 2 * q[:, None] + tc).ravel(),
                (row[2 * q[out, None] + tr] * n2 + 2 * a[out, None] + tc).ravel(),
            ]
        )
        keep = _USED[code]
        return src[keep], code[keep], dest[keep]


class _DissectionTree:
    """Nested dissection of the (M+1) x N level-by-node grid, by front shape.

    Unknown x^k_i sits in column k*N + i of K and lam^k_i in column
    N(M+1) + k*N + i; the grid points couple only to neighbours with |dk|,
    |di| <= 1 (periodically in i), so one grid line separates a rectangle.
    The root is the whole grid as a cylinder, nk = M + 1 levels of the ring
    (_cylinder); a cylinder is cut by its smaller separator: one level of N
    points while N < 2 nk, into cylinders of about half the levels, else
    the nodes 0 and N/2 of its nk levels, into two rectangles.  Each
    rectangle is bisected along its longer side by a grid line, down to
    leaves of at most _ND_LEAF points.  A front holds the points eliminated
    there and the perimeter of its cylinder or rectangle, the only points
    outside it that it couples to.  Its rows are the equations of the
    points it eliminates and its inward perimeter equations, its columns
    the unknowns of all its points (see _Fronts): s + b_in rows by s + b
    columns, with s = 2 ns, b = 2 nb and b_in the inward equations, which
    the tree derives once per group from the box (rows 0 and nk + 1 are the
    rows above and below).  Fronts of one shape at one depth form a group
    that is assembled and factored by stacked calls.  `groups` runs from
    the root down.

    _kkt_stencil holds one row per node and level class, so the fronts of a
    group that share a node origin read the same class rows and hold the
    same matrix (a group touching level 0 or M has one member per origin).
    The tree does not depend on K, so it keeps only these node-origin slots
    (see _Fronts); the factor shares fronts across space as K allows
    (_front_slots), never in more slots than these.  The tree is also the
    factor's plan: _FrontFactor runs it, and entries and peak_entries
    count it with one front per node-origin slot, a bound on any factor of it.
    """

    def __init__(self, N: int, M: int):
        self.N, self.M = N, M
        sep, rim, parts = _cylinder(M + 1, True, True, N)
        root = self._group(0, sep, rim, (np.array([-1]), np.array([0])), (M + 3, N))
        self.groups = [root]
        frontier = [(root, parts)]
        while frontier:
            depth = frontier[0][0].depth + 1
            sources: dict = {}
            for parent, parts in frontier:
                for shape, dr, dc in parts:
                    sources.setdefault(shape, []).append((parent, dr, dc))
            frontier = []
            for shape, parents in sources.items():
                if len(shape) == 4:  # a rectangle (nk, ni, top, bottom)
                    sep, rim, parts = _rectangle(*shape)
                    box = (shape[0] + 2, shape[1] + 2)
                else:  # a cylinder (nk, top, bottom)
                    sep, rim, parts = _cylinder(*shape, N)
                    box = (shape[0] + 2, N)
                origin = (
                    np.concatenate([p.origin[0] + dr for p, dr, _ in parents]),
                    np.concatenate([(p.origin[1] + dc) % N for p, _, dc in parents]),
                )
                g = self._group(depth, sep, rim, origin, box)
                first = 0
                for p, dr, dc in parents:
                    cell = g.local[g.ns :] + (dr, dc)
                    pos = p.table[cell[:, 0], cell[:, 1] % p.table.shape[1]]
                    # the parent's row of each of the child's update rows
                    rows = p.rows()[2 * pos[g.inward // 2] + g.inward % 2]
                    p.children.append((g, first, _runs(rows, (1, 2)), _runs(pos)))
                    first += p.count
                parents[0][0].frees.append(g)  # its first parent root down is the last factored
                self.groups.append(g)
                frontier.append((g, parts))

    @staticmethod
    def _group(depth, sep, rim, origin, box) -> _Fronts:
        local = np.array(sep + rim, dtype=np.intp).reshape(-1, 2)
        table = np.full(box, -1, dtype=np.intp)
        table[local[:, 0], local[:, 1]] = np.arange(len(local))
        _, slot = np.unique(origin[1], return_inverse=True)
        s, b = 2 * len(sep), 2 * len(rim)  # unknowns eliminated and on the perimeter
        # a state equation of box row r reaches rows r - 1 and r, an adjoint
        # one (t = 1) r and r + 1: inward where one of them is a row of the
        # rectangle or cylinder, 1..box[0] - 2
        reach = np.repeat(local[len(sep) :, 0], 2) + np.tile([0, 1], len(rim))
        inward = np.flatnonzero((reach >= 1) & (reach <= box[0] - 1))
        kept = s * s + s * b + len(inward) * s
        return _Fronts(depth, len(sep), len(rim), local, table, origin, slot, int(slot.max()) + 1, inward, kept)

    def entries(self) -> int:
        """Entries of the blocks a factor keeps with one front per node-origin
        slot: each slot's inverse pivot block W and its Schur multipliers Y
        and X, s^2 + s b + b_in s with s = 2 ns eliminated unknowns, b = 2 nb
        perimeter unknowns and b_in inward perimeter equations.  A factor
        that shares fronts across space keeps fewer.  Not counted here: the
        unknown indices the factor keeps, s + b int32 per member (see
        peak_entries)."""
        return sum(g.slots * g.kept for g in self.groups)

    def peak_entries(self) -> int:
        """Most float64 entries alive at once while _FrontFactor runs the
        plan with one front per node-origin slot and solves (index arrays
        one entry per index, the kept int32 ones half an entry); a factor
        that shares fronts across space, or holds float32 in the same chunk
        bytes, holds no more bytes.  Kept: the blocks (entries) and each
        member's unknown indices, s + b int32.  Assembling a chunk: what is
        kept, the live updates (b_in by b per slot), the chunk buffer (its
        largest chunk yet of s + b_in by s + b fronts, _CHUNK_BYTES unless
        one front is larger) and one gathered child update; inverting it,
        after `frees`, the pivot blocks' float64 copy instead, which
        _inverse inverts in place beside one temporary of half their order
        (left to _SOLVE_SCALE).  Solving: what is kept, one group's pushes
        with their indices and one chunk's gathered vectors, at most
        4 (s + b) per member."""
        kept = peak = solve = buffer = 0
        pending: dict = {}
        for g in reversed(self.groups):
            s, b, bi = 2 * g.ns, 2 * g.nb, len(g.inward)
            m = _per_chunk(g.slots, (s + bi) * (s + b), 8)
            kept += g.slots * g.kept + g.count * (g.ns + g.nb)  # and s + b int32 indices per member
            pending[g] = g.slots * bi * b
            buffer = max(buffer, m * (s + bi) * (s + b))
            gathered = max((m * len(c.inward) * 2 * c.nb for c, *_ in g.children), default=0)
            peak = max(peak, kept + buffer + sum(pending.values()) + gathered)
            for c in g.frees:
                del pending[c]
            peak = max(peak, kept + buffer + sum(pending.values()) + m * s * s)
            solve = max(solve, 4 * g.count * (s + b))
        return max(peak, kept + solve)


def _level_class(k, M):
    """The level class of level k (0..M): 0 at k = 0, 2 at k = M and 1
    between, which no level takes at M = 1.  A, B and C do not depend on
    time, so every level of one class has the same rows of K."""
    return np.minimum(k, 1) + (k == M)


def _kkt_stencil(config: OCPConfig) -> np.ndarray:
    """assemble_kkt's K by row unknown in closed form, float64 stored by
    column: row c*N + i holds node i of level class c (_level_class), column
    tr*18 + o*2 + tc the row type tr (0 x, 1 lam), the 3x3 offset o and the
    column type tc.  Each entry is the sparse assembly's float64 operation,
    bit for bit: scipy divides by alpha^2 as a product with 1/alpha^2, and
    0 - v (not -v) is the +0.0 of a missing entry at v = 0."""
    grid, N, inv_dt = config.grid, config.grid.N, 1.0 / config.tgrid.dt
    half_c = 0.5 * (config.velocity.eval(grid.nodes) / (2.0 * grid.h))
    kst = np.zeros((2, 3, 3, 2, 3, N))  # tr, dk + 1, di + 1, tc, level class, node
    # state rows, levels 1..M: (x^k - x^(k-1)) / dt - A_h x^(k-1/2) - ind_c lam^(k-1/2) / alpha^2
    state = kst[0, ..., 1:, :]
    state[:2, 0, 0], state[:2, 2, 0] = np.subtract(0.0, half_c), half_c
    state[0, 1, 0], state[1, 1, 0] = -inv_dt, inv_dt
    state[:2, 1, 1] = np.subtract(0.0, 0.5 * _indicator(config.control_domain, grid) * (1.0 / config.alpha**2))
    # adjoint rows, levels 0..M-1: (lam^k - lam^(k+1)) / dt - A_h^T lam^(k+1/2) + ind_o x^(k+1/2)
    adj = kst[1, ..., :2, :]
    adj[1:, 0, 1], adj[1:, 2, 1] = np.roll(half_c, 1), np.subtract(0.0, np.roll(half_c, -1))
    adj[1, 1, 1], adj[2, 1, 1] = inv_dt, -inv_dt
    adj[1:, 1, 0] = 0.5 * _indicator(config.observation_domain, grid)
    kst[0, 1, 1, 0, 0] = kst[1, 1, 1, 1, 2] = 1.0  # x^0 = x0 and lam^M = 0
    return kst.reshape(36, 3 * N).T


def _kkt_defect(kst: np.ndarray, N: int, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - K z for the K whose rows kst holds on N nodes, bit for bit as
    scipy's CSC `K @ z`: each row sums from 0.0 in increasing column order
    (x, lam; level; node: di = -1, 0, 1 but node 0 takes node N - 1 last and
    node N - 1 takes node 0 first), over the offsets _kkt_stencil writes (an
    entry that is 0 adds a zero product, which leaves the sum as it is).
    Each level multiplies by the rows of its level class; the defect is
    returned in the array that summed K z."""
    lv = kst.T.reshape(2, 3, 3, 2, 3, N)  # tr, dk + 1, di + 1, tc, level class, node
    used = _USED.reshape(2, 3, 3, 2)
    zl = z.reshape(2, -1, N)
    kz = np.zeros_like(zl)
    cls = _level_class(np.arange(len(kz[0])), len(kz[0]) - 1)
    for tr, tc, dk in itertools.product((0, 1), (0, 1), (-1, 0, 1)):
        k0, k1 = max(0, -dk), len(kz[0]) - max(0, dk)  # the rows whose level k + dk exists
        for i0, i1 in ((1, N - 1), (0, 1), (N - 1, N)):
            for d in sorted((d for d in (-1, 0, 1) if used[tr, dk + 1, d + 1, tc]), key=lambda d: (i0 + d) % N):
                zs = zl[tc, k0 + dk : k1 + dk, (i0 + d) % N :][:, : i1 - i0]
                kz[tr, k0:k1, i0:i1] += lv[tr, dk + 1, d + 1, tc, :, i0:i1][cls[k0:k1]] * zs
    kz = kz.ravel()
    return np.subtract(rhs, kz, out=kz)


def _inverse(A: np.ndarray) -> np.ndarray:
    """The inverses of a stack of square blocks A, in A's dtype; A is left
    as it is.

    Blocks of order at most _INV_LEAF go to np.linalg.inv (partial pivoting
    inside the block).  Larger ones are inverted by 2x2 blocks in one
    float64 copy of A, in place (_block_inverse), so that most of the work
    is matrix products and the workspace is that copy plus one temporary of
    half A's order.  The recursion pivots only inside its leaves.  Run in
    float64, the accuracy that costs stays below a float32 factor's
    rounding; run in float32, it changed the rung or the refinement steps
    of most solves tried (BENCH_24.json).  When a leading block is singular
    or the result is not finite, the whole stack goes to np.linalg.inv,
    which raises LinAlgError when A itself is singular.
    """
    if A.shape[-1] <= _INV_LEAF:
        return np.linalg.inv(A)
    W = A.astype(np.float64)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _block_inverse(W)
            W = W.astype(A.dtype, copy=False)
    except np.linalg.LinAlgError:
        return np.linalg.inv(A)
    return W if np.isfinite(W).all() else np.linalg.inv(A)


def _block_inverse(A: np.ndarray) -> None:
    """_inverse's float64 recursion, in place on a stack of blocks A =
    [[A11, A12], [A21, A22]]: W11 = A11^-1 into A11, Y = W11 A12 into A12,
    S = A22 - A21 Y and then Z = S^-1 into A22, V = Z A21 W11 into A21, then
    W11 + Y V into A11, -Y Z into A12 and -V into A21.  Each product is one
    temporary of at most half A's order a side."""
    n = A.shape[-1]
    if n <= _INV_LEAF:
        A[...] = np.linalg.inv(A)
        return
    h = n // 2
    A11, A12, A21, A22 = A[..., :h, :h], A[..., :h, h:], A[..., h:, :h], A[..., h:, h:]
    _block_inverse(A11)
    A12[...] = A11 @ A12
    A22 -= A21 @ A12
    _block_inverse(A22)
    np.matmul(A22, A21 @ A11, out=A21)
    A11 += A12 @ A21
    np.negative(A12 @ A22, out=A12)
    np.negative(A21, out=A21)


def _front_slots(kst: np.ndarray, tree: _DissectionTree, dtype) -> list:
    """Each group's slot of each member (groups root first, as tree.groups)
    for a factor of kst's K held in `dtype`: members whose fronts hold the
    same matrix in dtype share one.  Slots are numbered by member count,
    fewest first, so that slots of equal count run together.

    A front reads the rows of K at the points of its box, and its
    children's boxes lie inside it.  The members of a group have the same
    level classes across their box rows (they all touch level 0, level M
    or neither, at the same box rows), so two members whose box columns
    hold nodes of equal class, node by node, hold the same front, their
    children too.  A node's class is its three level-class rows rounded to
    dtype, compared bit for bit; the class of the w columns from a node is
    the pair of classes of the 2^j columns from its two ends, 2^j <= w <
    2^(j+1), and those come from doubling j times (R. M. Karp, R. E.
    Miller and A. L. Rosenberg, STOC 1972).  Where every node is its own
    class, the slots are the tree's node-origin slots.
    """
    N = tree.N
    bits = kst[:, _USED].astype(dtype).view(f"u{np.dtype(dtype).itemsize}")
    rows = np.ascontiguousarray(bits.reshape(3, N, -1).transpose(1, 0, 2)).reshape(N, -1)
    cls = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(), return_inverse=True)[1]
    if cls.max() == N - 1:
        return [g.slot for g in tree.groups]
    span = [cls]  # span[j][i]: the class of the 2^j nodes from node i, for every 2^j <= N
    while 2 ** len(span) <= N:
        c = span[-1]
        span.append(np.unique(c * N + np.roll(c, -(2 ** (len(span) - 1))), return_inverse=True)[1])
    slots = []
    for g in tree.groups:
        w = g.table.shape[1]  # at most N
        c, step = span[w.bit_length() - 1], w - 2 ** (w.bit_length() - 1)
        node = np.empty(g.slots, dtype=np.intp)
        node[g.slot] = g.origin[1]
        key = np.unique(c[node] * N + c[(node + step) % N], return_inverse=True)[1][g.slot]
        count = np.bincount(key)
        rank = np.empty_like(count)
        rank[np.argsort(count, kind="stable")] = np.arange(len(count))
        slots.append(rank[key])
    return slots


class _FrontFactor:
    """Multifrontal LU of K on the dissection tree, held in `dtype`.

    Every front is assembled from K's entries in kst, rounded to `dtype`,
    and its children's update matrices; the pivot block F_SS of the unknowns
    it eliminates is inverted by _inverse (np.linalg.inv up to order
    _INV_LEAF, float64 2x2 blocks above), and the update
    F_BB - F_BS F_SS^-1 F_SB goes to its parent (J. W. H. Liu, SIAM Review
    34, 1992).  Fronts are rectangular (see _Fronts): rows S and the inward
    perimeter equations B_in, columns S and every perimeter unknown B, so
    X = F_BS is b_in x s and the update b_in x b; the rows dropped are 0 in
    every X and update of a square front (T. A. Davis, I. S. Duff, SIAM J.
    Matrix Anal. Appl. 18, 1997, give each front its own row and column
    sets for such patterns).  It runs the tree's plan on its own slots
    (_front_slots): the slots of one member count in chunks stacked as
    (slots, s + b_in, s + b), _CHUNK_BYTES at a time (_per_chunk).
    Children's updates are read through their slot maps (a slice where the
    slots run in order) and added by slices, one call per pair of a row run
    and a column run for a whole chunk; those of `frees` die after the
    group's last chunk is assembled, before its pivot blocks are inverted.
    Kept: per chunk W = F_SS^-1, Y = W F_SB and X = F_BS, each an array of
    its own; per group the unknowns of each member's eliminated points and
    perimeter (int32 below 2^31), by slot, and the inward equations'
    positions among the perimeter unknowns, which the solve pushes X y
    into.  Its other storage is bounded:
    one chunk buffer (the largest chunk yet) and, while pivot blocks are
    inverted, their float64 copy plus one temporary of half their order
    (_inverse).  The root has no perimeter, so its pivot block is copied
    out of the buffer and the buffer freed before the inverse.

    Only the first member of each slot is assembled and factored, exactly:
    the members of a slot read the same rows of kst, rounded to `dtype`,
    at the same front positions, their children's updates are equal by
    induction up the tree, and their fronts are equal bit for bit.  The
    solve applies each slot's W, Y and X to all of its members, a chunk's
    members stacked as (slots, members per slot, unknowns).
    """

    def __init__(self, kst: np.ndarray, tree: _DissectionTree, dtype):
        N, M = tree.N, tree.M
        half = N * (M + 1)  # x^k_i is unknown k*N + i, lam^k_i unknown half + k*N + i
        index = np.int32 if 2 * half < 2**31 else np.intp
        self.dtype = np.dtype(dtype)
        self.groups: list = []
        updates: dict = {}  # each factored group's slot of each member and its slots' updates
        scratch = np.empty(0, dtype=dtype)  # the fronts of one chunk, reused
        for g, slot in zip(reversed(tree.groups), reversed(_front_slots(kst, tree, self.dtype))):
            src, code, dest = g.template()
            order = np.argsort(slot, kind="stable")  # the members by slot
            count = np.bincount(slot)
            start = np.concatenate(([0], np.cumsum(count)))  # each slot's first place in order
            lead = order[start[:-1]]  # each slot's first member
            points = g.points(N)[order]
            k, i = np.divmod(points[start[:-1]], N)
            rows = _level_class(k, M) * N + i  # the stencil rows of each slot's first member
            # the unknowns x, lam of each eliminated point, then of each perimeter point
            parts = np.split(points.astype(index), [g.ns], axis=1)
            here, rim = (np.stack((p, p + half), axis=-1).reshape(len(p), -1) for p in parts)
            del points, parts  # so that only the unknowns stay alive while the group is factored
            s, n2 = 2 * g.ns, 2 * (g.ns + g.nb)
            n1 = s + len(g.inward)  # rows: the eliminated unknowns, then the inward perimeter equations
            upd = np.empty((len(count), len(g.inward), 2 * g.nb), dtype=dtype)
            per = _per_chunk(len(count), n1 * n2, self.dtype.itemsize)
            ends = [*(np.flatnonzero(np.diff(count)) + 1).tolist(), len(count)]  # of the runs of equal count
            chunks = [(lo, min(b, lo + per)) for a, b in zip([0, *ends], ends) for lo in range(a, b, per)]
            blocks = []
            for lo, hi in chunks:
                m = hi - lo
                if scratch.size < m * n1 * n2:
                    scratch = np.empty(m * n1 * n2, dtype=dtype)
                F = scratch[: m * n1 * n2].reshape(m, n1, n2)
                F.fill(0)
                F.reshape(m, n1 * n2)[:, dest] = kst[rows[lo:hi, src], code]
                for child, first, row_runs, col_runs in g.children:
                    held, done = updates[child]
                    at = held[first + lead[lo:hi]]
                    if np.array_equal(at, np.arange(at[0], at[0] + m)):
                        at = slice(at[0], at[0] + m)
                    U = done[at]
                    for ur, vr, lr, sr in row_runs:
                        for uc, vc, lc, _ in col_runs:
                            F[:, vr : vr + sr * lr : sr, 2 * vc : 2 * (vc + lc)] += U[
                                :, ur : ur + lr, 2 * uc : 2 * (uc + lc)
                            ]
                    del U  # a slice of it would keep the whole array alive
                if hi == len(count):
                    for child in g.frees:
                        del updates[child]
                if not g.nb:  # the root, with no perimeter: free the buffer before the inverse
                    F, scratch = F.copy(), np.empty(0, dtype=dtype)
                W = _inverse(F[:, :s, :s])
                # one refinement step gives Y = F_SS^-1 F_SB the accuracy of
                # a solve with the block's LU; W alone loses it on
                # ill-conditioned blocks, and that error grows up the tree.
                # Nothing reads F_SB after it, so the defect overwrites it
                Y = W @ F[:, :s, s:]
                np.subtract(F[:, :s, s:], F[:, :s, :s] @ Y, out=F[:, :s, s:])
                Y += W @ F[:, :s, s:]
                # BLAS worker threads do not share this thread's subnormal
                # flush; a pass through a ufunc here zeroes what they left
                np.multiply(W, 1, out=W)
                np.multiply(Y, 1, out=Y)
                X = F[:, s:, :s].copy()  # owned: at the root a view of no entries would keep F alive
                np.matmul(X, Y, out=upd[lo:hi])
                np.subtract(F[:, s:, s:], upd[lo:hi], out=upd[lo:hi])
                blocks.append((int(start[lo]), int(start[hi]), W, Y, X))
            updates[g] = (slot, upd)
            self.groups.append((here, rim, g.inward, blocks))
        self.nbytes = sum(a.nbytes for a in self.arrays())

    def arrays(self):
        """The blocks this factor keeps, W, Y and X of every chunk; not its unknown indices."""
        return (a for *_, blocks in self.groups for block in blocks for a in block[2:])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """K^-1 r in this factor's dtype, r given in K's unknown order; an r
        already in that dtype is overwritten with the result."""
        z = np.asarray(r, dtype=self.dtype)
        # forward, up the tree: y_S = W r_S, then r_B -= X y_S on the inward
        # equations, a slot's blocks acting on its members side by side; one
        # scatter per group, in slot order
        for here, rim, inward, blocks in self.groups:
            push = np.empty((len(rim), len(inward)), dtype=self.dtype)
            for a, b, W, Y, X in blocks:
                at = here[a:b].reshape(len(W), -1, here.shape[1])  # (slots, members per slot, s)
                y = np.matmul(W[:, None], z[at][..., None])
                z[at] = y[..., 0]
                np.matmul(X[:, None], y, out=push[a:b].reshape(*at.shape[:2], len(inward), 1))
            np.subtract.at(z, rim[:, inward], push)
        # backward, down the tree: z_S = y_S - Y z_B
        for here, rim, _, blocks in reversed(self.groups):
            for a, b, W, Y, X in blocks:
                at = here[a:b].reshape(len(W), -1, here.shape[1])
                z[at] -= np.matmul(Y[:, None], z[rim[a:b].reshape(*at.shape[:2], rim.shape[1])][..., None])[..., 0]
        return z


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


# Peak RSS of one solve_ocp call above the RSS before it, per byte of the
# float64 entries _DissectionTree.peak_entries counts, on the float64 rung (a
# float32 factor that missed its gate, then the float64 one, which peaks
# above a solve that stays on float32): at most 1.127 over the sizes of
# BENCH_18.json, 25,856 to 821,248 unknowns, and three sinusoidal-speed
# sizes, whose fronts are not shared across space (BENCH_34.json).
_SOLVE_SCALE = 1.39


def factor_plan(config: OCPConfig) -> _DissectionTree:
    """The dissection tree that plans the front factor of config's grids.
    Pass it to solve_bytes and solve_ocp to build it once for several calls
    on one grid."""
    return _DissectionTree(config.grid.N, config.tgrid.M)


def _plan_of(config: OCPConfig, tree: Optional[_DissectionTree]) -> _DissectionTree:
    """tree, checked against config's grids, or config's own when None."""
    if tree is None:
        return factor_plan(config)
    if (tree.N, tree.M) != (config.grid.N, config.tgrid.M):
        raise ValueError(
            f"a factor plan of N={tree.N}, M={tree.M} for grids of N={config.grid.N}, M={config.tgrid.M}"
        )
    return tree


def solve_bytes(config: OCPConfig, plan: Optional[_DissectionTree] = None) -> float:
    """Estimated peak memory one solve of config adds, in bytes: _SOLVE_SCALE
    times the float64 entries its front factor holds at once, which the
    dissection tree (`plan`, or one built here) counts before anything is
    factored."""
    return _SOLVE_SCALE * 8 * _plan_of(config, plan).peak_entries()


def _factor_fronts(kst: np.ndarray, tree: _DissectionTree, dtype) -> _FrontFactor:
    """The front factor of kst's K in `dtype`, made with subnormals flushed to zero."""
    with _subnormals_as_zero():
        return _FrontFactor(kst, tree, dtype)


def _sup_norm(v: np.ndarray) -> float:
    """max |v| (NaN if v holds one), without an array of |v|."""
    return abs(float(np.maximum(v.max(), -v.min())))


def _refine(
    kst: np.ndarray, N: int, rhs: np.ndarray, factor, dtype
) -> tuple[np.ndarray, int, float]:
    """Iterative refinement of K z = rhs in float64 from z = 0 with a
    factor of K held in `dtype`; K's rows are kst's, on N nodes.

    Each step solves for the correction of the current float64 residual
    and measures z's relative sup-norm defect.  Refinement ends once the
    defect meets _DEFECT_FLOOR or a step fails to strictly halve it (an
    infinite or NaN defect included), so at most about log2(first defect /
    floor) steps run; it returns the iterate of least defect, the number of
    steps and that defect.  Stopping at the floor, not at _DEFECT_GATE,
    keeps z from hanging on rounding that differs with BLAS threads or
    summation order.
    """
    z = np.zeros_like(rhs)
    r = rhs
    scale = 1.0 + _sup_norm(rhs)
    defect = np.inf
    for step in itertools.count(1):
        z = z + factor.solve(r.astype(dtype))  # a copy, which the solve overwrites
        r = _kkt_defect(kst, N, z, rhs)
        last, defect = defect, _sup_norm(r) / scale
        if step == 1 or defect < least:
            best, least = z, defect
        if defect <= _DEFECT_FLOOR or not defect < 0.5 * last:
            return best, step, least


def _solve_linear(
    kst: np.ndarray, rhs: np.ndarray, N: int, M: int, tree: Optional[_DissectionTree] = None
) -> tuple[np.ndarray, str, int, int, float]:
    """Solve K z = rhs, K's rows in kst, on the dissection tree of N and M
    (`tree`, or one built here); returns z, the ordering that produced it,
    the number of solves with its factor, the factor's bytes and z's defect.

    K is factored on the nested-dissection fronts, first in float32 and
    refined in float64; if that misses the defect gate the float32 factor
    is freed and the same refinement runs once with a float64 factor
    ("nested-dissection-f64"), so at most one factor is alive at a time.
    When neither meets the gate, raises NumericError naming how each
    failed: a singular pivot block, or its last defect and step count.
    """
    if tree is None:
        tree = _DissectionTree(N, M)
    missed = []
    for dtype, ordering in (
        (np.float32, "nested-dissection"),
        (np.float64, "nested-dissection-f64"),
    ):
        rung = f"{np.dtype(dtype).name} factor"
        try:
            factor = _factor_fronts(kst, tree, dtype)
        except np.linalg.LinAlgError:
            missed.append(f"{rung}: singular pivot block")
            continue
        nbytes = factor.nbytes
        z, steps, defect = _refine(kst, N, rhs, factor, dtype)
        del factor  # free this factor before the next one is made
        if defect <= _DEFECT_GATE:
            return z, ordering, steps, nbytes, defect
        missed.append(f"{rung}: defect {defect:.3e} after {steps} steps (stalled)")
    raise NumericError(
        f"no front factor of the {len(rhs)}x{len(rhs)} system met the "
        f"defect gate {_DEFECT_GATE:.0e}: " + "; ".join(missed)
    )


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
    config: OCPConfig, perturbation: Optional[PerturbationSpec], plan: Optional[_DissectionTree] = None
) -> OCPSolution:
    """Write the system's rows, solve and recover the control; the one path behind the solves."""
    N, M = config.grid.N, config.tgrid.M
    rhs = _kkt_rhs(config, perturbation)
    tree = _plan_of(config, plan)
    z, ordering, steps, factor_bytes, residual = _solve_linear(_kkt_stencil(config), rhs, N, M, tree)
    x, lam = z.reshape(2, M + 1, N)
    u = np.sqrt(_indicator(config.control_domain, config.grid)) * lam / config.alpha**2
    if config.u_ref is not None:
        u = u + config.u_ref.values
    obj = discrete_objective(config, x, _midpoints(u))
    return OCPSolution(
        x=x, lam=lam, u=u, objective=obj, residual=residual,
        ordering=ordering, refine_steps=steps, factor_bytes=factor_bytes,
    )


def solve_ocp(config: OCPConfig, plan: Optional[_DissectionTree] = None) -> OCPSolution:
    """Solve the optimality system in one shot and recover the control; the
    front factor runs `plan` (factor_plan(config)) or a plan built here."""
    return _solve(config, None, plan)


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
    from scipy import sparse
    from scipy.sparse.linalg import splu
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
