import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplq.domain_check import make_equidistant
from hyplq.geometry import (
    ExpWeight,
    Grid1D,
    GridFunction,
    IntervalUnion,
    TimeGrid,
    exp_weight_on_grid,
    format_domain,
    indicator_on_grid,
    measure_intersection,
    parse_domain,
    periodize_eval,
    restrict_domain,
)

EQUI = make_equidistant(0.0, 0.2, 1.0)


def in_equidistant(x):
    # membership oracle straight from the definition, no library calls
    r = x - math.floor(x)
    return 0.0 <= r <= 0.2 and x >= 0.0


def grid_measure_oracle(member, p, q, n=2_000_000):
    """Brute-force measure of {x in [p,q] : member(x)} by midpoint sampling."""
    xs = p + (np.arange(n) + 0.5) * (q - p) / n
    hits = sum(1 for x in xs if member(float(x)))
    return hits * (q - p) / n


# ---------------------------------------------------------------- periodize


def test_periodize_identity_window():
    f = lambda w: w * w + 1.0
    for w in [0.0, 0.3, 0.999]:
        assert periodize_eval(f, w, 1.0) == f(w)


def test_periodize_negative_shift():
    f = lambda w: w
    assert periodize_eval(f, -0.25, 1.0) == pytest.approx(0.75, abs=1e-15)


def test_periodize_indicator_one_period():
    f = lambda w: 1.0 if 0.2 <= w <= 0.4 else 0.0
    assert periodize_eval(f, 1.3, 1.0) == 1.0


def test_periodize_rejects_nonfinite():
    with pytest.raises(ValueError):
        periodize_eval(lambda w: w, float("nan"), 1.0)
    with pytest.raises(ValueError):
        periodize_eval(lambda w: w, float("inf"), 1.0)


@given(
    w=st.floats(-50, 50, allow_nan=False),
    k=st.integers(min_value=-20, max_value=20),
    L=st.floats(0.5, 7.0),
)
def test_periodize_periodicity(w, k, L):
    # representatives agree up to modulo rounding, measured on the circle
    # (at exact multiples of L the representative may legitimately land on
    # either side of the seam)
    ident = lambda r: r
    a = periodize_eval(ident, w, L)
    b = periodize_eval(ident, w + k * L, L)
    gap = abs(a - b)
    circ = min(gap, L - gap)
    assert circ <= 1e-9 * (1 + abs(w) + abs(k) * L)


# ------------------------------------------------------------------ restrict


def test_restrict_equidistant():
    r = restrict_domain(EQUI, 2.5)
    assert r.prefix == ((0.0, 0.2), (1.0, 1.2), (2.0, 2.2))
    assert r.tail is None


def test_restrict_clips_boundary():
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    assert restrict_domain(dom, 0.1).prefix == ((0.0, 0.1),)


def test_restrict_merges_copies_that_overlap_by_rounding():
    # 12 * 0.1 + 0.1 rounds above 13 * 0.1: the copies of a pattern that
    # fills its period overlap by an ulp, which restrict_domain merges
    dom = IntervalUnion(tail=(0.1, ((0.0, 0.1),)))
    assert restrict_domain(dom, 3.0).prefix[0][0] == 0.0
    assert sum(b - a for a, b in restrict_domain(dom, 3.0).prefix) == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(indicator_on_grid(dom, Grid1D(3.0, 30)).values, 1.0, rtol=0.0, atol=1e-13)


def test_restrict_disjoint_is_empty():
    dom = IntervalUnion(prefix=((3.0, 4.0),))
    assert restrict_domain(dom, 2.0).prefix == ()


# ------------------------------------------------------------------- measure


def test_measure_ten_periods():
    assert measure_intersection(EQUI, (0.0, 10.0)) == pytest.approx(2.0, abs=1e-12)


def test_measure_clipped_single():
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    assert measure_intersection(dom, (0.1, 5.0)) == pytest.approx(0.1, abs=1e-14)


def test_measure_partial_period_against_grid_oracle():
    # frozen expectation 0.1, cross-checked by a brute-force sampling oracle
    got = measure_intersection(EQUI, (0.5, 1.1))
    assert got == pytest.approx(0.1, abs=1e-12)
    brute = grid_measure_oracle(in_equidistant, 0.5, 1.1)
    assert got == pytest.approx(brute, abs=1e-5)


def test_measure_prefix_plus_tail():
    dom = IntervalUnion(
        prefix=((0.0, 0.5),),
        tail=(2.0, ((0.25, 0.75),)),  # period 2, pattern [0.25,0.75], start 0.5
        start=0.5,
    )
    # intervals: [0,0.5], [0.75,1.25], [2.75,3.25], ...
    assert measure_intersection(dom, (0.0, 1.0)) == pytest.approx(0.75, abs=1e-12)
    assert measure_intersection(dom, (0.0, 4.6)) == pytest.approx(1.5, abs=1e-12)


@given(
    p=st.floats(0.0, 20.0),
    d1=st.floats(0.01, 5.0),
    d2=st.floats(0.01, 5.0),
)
@settings(max_examples=60)
def test_measure_additive_and_monotone(p, d1, d2):
    mid, q = p + d1, p + d1 + d2
    a = measure_intersection(EQUI, (p, mid))
    b = measure_intersection(EQUI, (mid, q))
    tot = measure_intersection(EQUI, (p, q))
    assert tot == pytest.approx(a + b, abs=1e-10)
    assert tot + 1e-12 >= a  # monotone in the probe interval


# ----------------------------------------------------------------- indicator


def test_indicator_full_and_empty():
    g = Grid1D(1.0, 16)
    full = IntervalUnion(prefix=((0.0, 1.0),))
    empty = IntervalUnion(prefix=())
    assert np.all(indicator_on_grid(full, g).values == 1.0)
    assert np.all(indicator_on_grid(empty, g).values == 0.0)


def test_indicator_cell_averaged_values():
    g = Grid1D(1.0, 10)
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    v = indicator_on_grid(dom, g).values
    # cells are [w_i - h/2, w_i + h/2); node 0 wraps to [0.95,1.0)+[0,0.05)
    expect = np.array([0.5, 1.0, 0.5, 0, 0, 0, 0, 0, 0, 0])
    assert np.allclose(v, expect, atol=1e-14)
    assert g.h * v.sum() == pytest.approx(0.2, abs=1e-14)


@given(
    edges=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
    n=st.sampled_from([8, 16, 33]),
)
@settings(max_examples=60)
def test_indicator_mass_matches_measure(edges, n):
    pts = sorted(set(round(e, 6) for e in edges))
    ivs = [(a, b) for a, b in zip(pts[::2], pts[1::2]) if b - a > 1e-9]
    if not ivs:
        return
    dom = IntervalUnion(prefix=tuple(ivs))
    g = Grid1D(1.0, n)
    mass = g.h * indicator_on_grid(dom, g).values.sum()
    assert mass == pytest.approx(measure_intersection(dom, (0.0, 1.0)), rel=1e-12, abs=1e-12)


# ------------------------------------------- references for the window measure


def reference_measure(dom, p, q):
    """measure_intersection as it was before periodized_measure: the tail
    by a scalar measure of the periodized pattern inside [0, y]."""

    def overlap(a, b, lo, hi):
        return max(0.0, min(b, hi) - max(a, lo))

    total = sum(overlap(a, b, p, q) for a, b in dom.prefix)
    if dom.tail is not None:
        period, pattern = dom.tail

        def upto(y):
            if y <= 0:
                return 0.0
            full, rest = divmod(y, period)
            return full * sum(b - a for a, b in pattern) + sum(overlap(a, b, 0.0, rest) for a, b in pattern)

        total += upto(q - dom.start) - upto(p - dom.start)
    return total


def reference_indicator(dom, grid):
    """indicator_on_grid as it was: one or two measures per cell, cell 0
    split at 0 and wrapped to [L - h/2, L]."""
    restricted = restrict_domain(dom, grid.L)
    h = grid.h
    vals = np.empty(grid.N)
    for i in range(grid.N):
        lo, hi = grid.nodes[i] - 0.5 * h, grid.nodes[i] + 0.5 * h
        if lo < 0.0:
            m = reference_measure(restricted, 0.0, hi) + reference_measure(restricted, grid.L + lo, grid.L)
        else:
            m = reference_measure(restricted, lo, min(hi, grid.L))
        vals[i] = m / h
    return np.clip(vals, 0.0, 1.0)


@st.composite
def window_layouts(draw):
    """(domain, L, N): a prefix, an optional tail with an offset start, a
    length L and a node count that need not be powers of two.  Breakpoints
    snap now and then to 0, to L and to cell edges, so intervals meet the
    wrapped cell 0 and the seam at L."""
    L = draw(st.floats(0.3, 6.0))
    N = draw(st.integers(4, 97))
    h = L / N

    def point(top):
        kind = draw(st.sampled_from(["free", "free", "zero", "L", "edge"]))
        if kind == "zero":
            return 0.0
        if kind == "L":
            return L
        if kind == "edge":
            return (draw(st.integers(0, N)) + 0.5) * h
        return draw(st.floats(0.0, top))

    pts = sorted({point(1.5 * L) for _ in range(draw(st.integers(0, 8)))})
    prefix = tuple((a, b) for a, b in zip(pts[::2], pts[1::2]) if b > a)
    if not draw(st.booleans()):
        return IntervalUnion(prefix=prefix), L, N
    period = draw(st.floats(0.05, 2.0))
    cuts = sorted({draw(st.floats(0.0, period)) for _ in range(draw(st.integers(2, 6)))})
    pattern = tuple((a, b) for a, b in zip(cuts[::2], cuts[1::2]) if b > a)
    if not pattern:
        pattern = ((0.0, 0.5 * period),)
    end = prefix[-1][1] if prefix else 0.0
    start = end + draw(st.sampled_from([0.0, 0.0, draw(st.floats(0.0, 2.0 * L))]))
    return IntervalUnion(prefix=prefix, tail=(period, pattern), start=start), L, N


@given(layout=window_layouts(), p=st.floats(-1.0, 40.0), width=st.floats(0.0, 20.0))
@settings(max_examples=300, deadline=None)
def test_window_measure_matches_the_references(layout, p, width):
    dom, L, N = layout
    grid = Grid1D(L, N)
    got = indicator_on_grid(dom, grid).values
    assert np.max(np.abs(got - reference_indicator(dom, grid))) <= 1e-13
    # the tail term is a difference of two measures from the tail start,
    # so both forms round relative to the measure of dom ∩ [0, q]
    q = p + width
    err = abs(measure_intersection(dom, (p, q)) - reference_measure(dom, p, q))
    assert err <= 1e-13 * reference_measure(dom, 0.0, q)


# ------------------------------------------------------------------- weights


def test_exp_weight_mu_zero_is_one():
    g = Grid1D(3.0, 12)
    w = exp_weight_on_grid(ExpWeight(0.7, 0.0), g)
    assert np.all(w.values == 1.0)


def test_exp_weight_values():
    g = Grid1D(4.0, 8)  # nodes at 0, 0.5, ..., includes 2.0
    w = exp_weight_on_grid(ExpWeight(0.0, 1.0), g)
    assert w.values[4] == pytest.approx(math.e**2, rel=1e-15)
    wc = exp_weight_on_grid(ExpWeight(0.6, 2.0), Grid1D(1.2, 12))
    assert wc.values[6] == pytest.approx(1.0, abs=1e-15)  # node 6 = 0.6 = center


def test_exp_weight_overflow_guard():
    g = Grid1D(100.0, 16)
    with pytest.raises(ValueError):
        exp_weight_on_grid(ExpWeight(0.0, 10.0), g)


# --------------------------------------------------------------------- types


def test_grid_invariants():
    g = Grid1D(2.0, 8)
    assert g.h * g.N == pytest.approx(g.L, rel=1e-16)
    assert g.nodes.shape == (8,)
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(ValueError):
        Grid1D(1.0, 3)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 8)


def test_timegrid_invariants():
    tg = TimeGrid(2.5, 5)
    assert tg.times.shape == (6,)
    assert tg.times[-1] == pytest.approx(2.5, abs=1e-15)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_gridfunction_checks_and_immutable():
    g = Grid1D(1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(7))
    with pytest.raises(ValueError):
        GridFunction(g, np.full(8, np.nan))
    f = GridFunction(g, np.arange(8.0))
    with pytest.raises(ValueError):
        f.values[0] = 99.0  # read-only storage


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnion(prefix=((0.3, 0.3),))  # zero length
    with pytest.raises(ValueError):
        IntervalUnion(prefix=((0.0, 0.5), (0.4, 0.8)))  # overlap
    with pytest.raises(ValueError):
        IntervalUnion(prefix=(), tail=(1.0, ((0.2, 1.5),)))  # pattern escapes period


# ------------------------------------------------------------ text interface


def test_parse_finite_form():
    dom = parse_domain("finite: [[0, 0.2], [1.0, 1.2]]")
    assert dom.prefix == ((0.0, 0.2), (1.0, 1.2))
    assert dom.tail is None


def test_parse_periodic_form():
    dom = parse_domain("periodic: {prefix: [], period: 1, pattern: [[0, 0.2]]}")
    assert dom.tail == (1.0, ((0.0, 0.2),))
    assert dom.start == 0.0
    assert dom == EQUI


def test_parse_periodic_with_prefix_and_start():
    dom = parse_domain(
        "periodic: {prefix: [[0, 0.5]], period: 2, pattern: [[0.25, 0.75]], start: 0.5}"
    )
    assert dom.prefix == ((0.0, 0.5),)
    assert dom.start == 0.5


def test_format_parse_roundtrip_fixed():
    for dom in [
        EQUI,
        IntervalUnion(prefix=((0.0, 0.2), (3.0, 4.5))),
        IntervalUnion(prefix=((0.0, 0.5),), tail=(2.0, ((0.25, 0.75),)), start=0.5),
    ]:
        assert parse_domain(format_domain(dom)) == dom


@given(
    a=st.floats(0.0, 0.4),
    w=st.floats(0.01, 0.5),
    L0=st.floats(1.0, 3.0),
)
@settings(max_examples=40)
def test_roundtrip_random_equidistant(a, w, L0):
    b = min(a + w, L0)
    if b - a < 1e-6:
        return
    dom = make_equidistant(a, b, L0)
    assert parse_domain(format_domain(dom)) == dom


def test_parse_garbage_rejected():
    with pytest.raises(ValueError):
        parse_domain("intervals: [[0,1]]")
    with pytest.raises(ValueError):
        parse_domain("finite: [[0.5]]")
