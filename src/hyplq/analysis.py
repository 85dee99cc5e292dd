"""Measurement layer: weighted space-time norms and decay-rate estimates.

Everything here consumes trajectories produced elsewhere (shape (M+1, N)
arrays on a Grid1D / TimeGrid pair) and reduces them to scalars: mixed
space-time norms against exponential weights, per-node time norms, fitted
exponential decay profiles, and a boundedness verdict for a family of runs
on growing domains.

Space integrals use the same midpoint quadrature as GridFunction.l2_norm;
time integrals use the trapezoid rule on the stored levels.  The norm pair
(two_and_inf, one_or_two) is built so the discrete space-time pairing obeys
|<<v, w>>| <= two_and_inf(v) * one_or_two(w) with the same quadrature on
both sides, which the tests exercise directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import ExpWeight, Grid1D, GridFunction, TimeGrid, exp_weight_on_grid

__all__ = [
    "DecayFit",
    "LocalizationCertificate",
    "NormReport",
    "fit_decay_rate",
    "localization_certificate",
    "spacetime_pairing",
    "time_sliced_l2",
    "weighted_spacetime_norms",
]

# Largest growth of the weighted norm per doubling of the domain that
# localization_certificate still counts as bounded.
GROWTH_PER_DOUBLING = 0.1


@dataclass(frozen=True)
class NormReport:
    """Mixed space-time norms of one weighted trajectory.

    l2l2 is L^2 in time of the spatial L^2 norm, cl2 the max over time of
    the same, two_and_inf their maximum and one_or_two the minimum of the
    L^1- and L^2-in-time reductions.
    """

    l2l2: float
    cl2: float
    two_and_inf: float
    one_or_two: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential profile y ~ amplitude * e^{-rate |center - w|}.

    window holds the node indices that were above the fitting floor;
    residual is the RMS misfit of log y on those nodes.
    """

    amplitude: float
    rate: float
    center: float
    residual: float
    window: tuple[int, ...]


class LocalizationCertificate(NamedTuple):
    """Boundedness verdict for weighted norms over a family of domain sizes.

    trend is the fitted change of log-norm per doubling of the domain
    length; bounded means the norms grow less than the configured fraction
    per doubling.  sizes records exactly which lengths were tested: the
    verdict speaks for this finite family, nothing more.
    """

    bounded: bool
    sup: float
    trend: float
    mu: float
    sizes: tuple[float, ...]


def _check_field(field: np.ndarray, grid: Grid1D, tgrid: TimeGrid) -> np.ndarray:
    f = np.asarray(field, dtype=float)
    want = (tgrid.M + 1, grid.N)
    if f.shape != want:
        raise ValueError(f"field must have shape {want}, got {f.shape}")
    return f


def _trapezoid_weights(M: int) -> np.ndarray:
    theta = np.ones(M + 1)
    theta[0] = theta[-1] = 0.5
    return theta


def weighted_spacetime_norms(
    field: np.ndarray, weight: ExpWeight, grid: Grid1D, tgrid: TimeGrid
) -> NormReport:
    """Norms of the weighted trajectory w_i * v(t_m, w_i).

    The spatial norm of each time slice is sqrt(h * sum w_i^2 v_i^2); the
    time direction is reduced by the trapezoid rule (L^1, L^2) and by the
    exact maximum (C-norm).
    """
    f = _check_field(field, grid, tgrid)
    w = exp_weight_on_grid(weight, grid).values
    slice_sq = grid.h * np.sum((w[None, :] * f) ** 2, axis=1)
    slice_norm = np.sqrt(slice_sq)
    theta = _trapezoid_weights(tgrid.M)
    l2l2 = math.sqrt(float(np.sum(theta * tgrid.dt * slice_sq)))
    l1l2 = float(np.sum(theta * tgrid.dt * slice_norm))
    cl2 = float(np.max(slice_norm))
    return NormReport(
        l2l2=l2l2,
        cl2=cl2,
        two_and_inf=max(l2l2, cl2),
        one_or_two=min(l1l2, l2l2),
    )


def spacetime_pairing(
    v: np.ndarray, w: np.ndarray, grid: Grid1D, tgrid: TimeGrid
) -> float:
    """Discrete space-time inner product with the trapezoid time weights."""
    a = _check_field(v, grid, tgrid)
    b = _check_field(w, grid, tgrid)
    theta = _trapezoid_weights(tgrid.M)
    return float(np.sum(theta * tgrid.dt * grid.h * np.sum(a * b, axis=1)))


def time_sliced_l2(field: np.ndarray, grid: Grid1D, tgrid: TimeGrid) -> GridFunction:
    """Per-node L^2([0, T]) norm of the trajectory (trapezoid ends)."""
    f = _check_field(field, grid, tgrid)
    theta = _trapezoid_weights(tgrid.M)
    vals = np.sqrt(np.sum(theta[:, None] * tgrid.dt * f * f, axis=0))
    return GridFunction(grid, vals)


def fit_decay_rate(
    profile: GridFunction, P: float, floor: float = 1e-8
) -> DecayFit:
    """Fit amplitude * e^{-rate |P - w|} to a nonnegative profile.

    Nodes at or below the floor are dropped before taking logs; anything
    that close to zero is solver noise rather than signal.  Fewer than four
    usable nodes cannot anchor a two-parameter line and raise ValueError.
    """
    if not floor > 0:
        raise ValueError(f"floor must be positive, got {floor}")
    y = profile.values
    if np.any(y < 0):
        raise ValueError("profile must be nonnegative")
    keep = np.flatnonzero(y > floor)
    if keep.size < 4:
        raise ValueError(
            f"only {keep.size} nodes above the floor {floor}; need at least 4"
        )
    d = np.abs(P - profile.grid.nodes[keep])
    logy = np.log(y[keep])
    slope, intercept = np.polyfit(d, logy, 1)
    pred = intercept + slope * d
    residual = math.sqrt(float(np.mean((logy - pred) ** 2)))
    return DecayFit(
        amplitude=math.exp(intercept),
        rate=-float(slope),
        center=float(P),
        residual=residual,
        window=tuple(int(i) for i in keep),
    )


def localization_certificate(
    reports: Sequence[tuple[float, NormReport]],
    mu: float,
) -> LocalizationCertificate:
    """Decide whether weighted norms stay bounded as the domain grows.

    The trend is the least-squares slope of log(norm) against log2(L): the
    average factor (in log) the norm picks up per doubling of the domain.
    bounded holds when that factor stays below 1 + GROWTH_PER_DOUBLING.
    Zero norms are clamped away from log(0); a family that collapses to
    zero is trivially bounded.
    """
    if len(reports) < 3:
        raise ValueError(f"need at least 3 domain sizes, got {len(reports)}")
    sizes = np.array([float(L) for L, _ in reports])
    norms = np.array([rep.two_and_inf for _, rep in reports])
    if np.any(sizes <= 0):
        raise ValueError("domain sizes must be positive")
    x = np.log2(sizes)
    ylog = np.log(np.maximum(norms, 1e-300))
    trend = float(np.polyfit(x, ylog, 1)[0])
    return LocalizationCertificate(
        bounded=bool(trend < math.log1p(GROWTH_PER_DOUBLING)),
        sup=float(np.max(norms)),
        trend=trend,
        mu=float(mu),
        sizes=tuple(float(L) for L in sizes),
    )
