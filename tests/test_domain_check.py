import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplq.characteristics import NumericError
from hyplq.domain_check import (
    RateCertificate,
    Verdict,
    certify_rates,
    check_condition_ii,
    check_condition_iii,
    guaranteed_decay,
    make_equidistant,
    worst_pair_value,
)
from hyplq.geometry import IntervalUnion

EQUI = make_equidistant(0.0, 0.2, 1.0)
HALF_LINE = make_equidistant(0.0, 1.0, 1.0)


def enum_worst(dom, k, K, periods=64):
    """Independent brute-force oracle for the pair inequality left side.

    Enumerates max over n > m of k*(a_n - b_m) - K * sum_{m<j<n} (b_j - a_j)
    over all intervals of the prefix plus `periods` tail periods.
    """
    period, pattern = dom.tail
    ivs = list(dom.prefix)
    for j in range(periods):
        base = dom.start + j * period
        ivs.extend((base + a, base + b) for a, b in pattern)
    cum = 0.0
    phi_a, phi_b = [], []
    for a, b in ivs:
        phi_a.append(k * a - K * cum)
        cum += b - a
        phi_b.append(k * b - K * cum)
    best = -math.inf
    run_min = math.inf
    for n in range(1, len(ivs)):
        run_min = min(run_min, phi_b[n - 1])
        best = max(best, phi_a[n] - run_min)
    return best


# ------------------------------------------------------------- condition (ii)


def test_equidistant_known_constants_pass():
    v = check_condition_ii(EQUI, 1.0, 5.0)
    assert v.stabilizable
    assert v.certificate is not None
    assert v.certificate.k == 1.0 and v.certificate.K == 5.0


def test_single_interval_fails_finite_measure():
    v = check_condition_ii(IntervalUnion(prefix=((0.0, 0.2),)), 1.0, 5.0)
    assert not v.stabilizable
    assert v.certificate is None
    assert v.reason == "finite-measure"


def test_half_line_passes_any_constants():
    for k, K in [(0.3, 0.7), (1.0, 5.0), (0.01, 100.0)]:
        assert check_condition_ii(HALF_LINE, k, K).stabilizable


def test_offset_first_interval_rejected():
    dom = make_equidistant(0.5, 0.7, 1.0)
    v = check_condition_ii(dom, 0.1, 1.0)
    assert not v.stabilizable
    assert v.reason == "first-interval-offset"


def test_density_deficit_detected():
    # k*L0 > K*(pattern measure): drift positive, eventually violated
    v = check_condition_ii(EQUI, 2.0, 5.0)
    assert not v.stabilizable
    assert v.reason == "density-deficit"


def test_pair_violation_reported_with_indices():
    # adjacent gap 0.8 with k = 1.5 already breaks k*(a_{m+1}-b_m) <= 1
    v = check_condition_ii(EQUI, 1.5, 100.0)
    assert not v.stabilizable
    assert v.reason.startswith("pair-violation(")


def test_invalid_constant_ordering():
    with pytest.raises(ValueError):
        check_condition_ii(EQUI, 5.0, 1.0)
    with pytest.raises(ValueError):
        check_condition_ii(EQUI, 0.0, 1.0)


@pytest.mark.parametrize(
    "k, K", [(0.1, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.1, math.nan)]
)
def test_non_finite_constants_rejected(k, K):
    with pytest.raises(ValueError, match="inf"):
        check_condition_ii(EQUI, k, K)


def test_overflowing_overshoot_names_the_constant():
    # a 10000-long first interval: M = exp(K * 10000) is not a float
    dom = IntervalUnion(prefix=((0.0, 10000.0),), tail=(1.0, ((0.0, 0.2),)), start=10000.0)
    with pytest.raises(NumericError, match=r"overshoot constant M = exp\(1250\) overflows"):
        check_condition_ii(dom, 0.01875, 0.125)


def test_worst_pair_matches_enumeration_oracle():
    cases = [
        (EQUI, 1.0, 5.0),
        (EQUI, 1.2, 50.0),
        (make_equidistant(0.0, 0.5, 2.0), 0.4, 2.0),
        (
            IntervalUnion(
                prefix=((0.0, 0.3),),
                tail=(1.5, ((0.1, 0.25), (0.7, 1.1))),
                start=0.5,
            ),
            0.5,
            3.0,
        ),
    ]
    for dom, k, K in cases:
        got, pair, _ = worst_pair_value(dom, k, K)
        assert got == pytest.approx(enum_worst(dom, k, K), abs=1e-12)
        n, m = pair
        assert n > m >= 1


@given(
    a=st.floats(0.0, 0.0),  # necessary condition pins a_1 = 0
    w=st.floats(0.05, 0.9),
    L0=st.floats(1.0, 3.0),
    k=st.floats(0.05, 2.0),
    ratio=st.floats(1.5, 20.0),
)
@settings(max_examples=40, deadline=None)
def test_worst_pair_closed_form_random(a, w, L0, k, ratio):
    b = min(a + w, L0)
    dom = make_equidistant(a, b, L0)
    K = k * ratio
    if k * L0 - K * (b - a) > 0:
        # positive drift: the supremum is infinite and the closed form refuses
        with pytest.raises(ValueError):
            worst_pair_value(dom, k, K)
        return
    got, _, _ = worst_pair_value(dom, k, K)
    assert got == pytest.approx(enum_worst(dom, k, K), abs=1e-10)


def test_worst_pair_at_zero_drift_repeats_the_closed_form():
    # k * L0 = K * (b - a): every period has the same potentials, so the
    # 64-period enumeration must agree with the two-period closed form
    dom = make_equidistant(0.0, 0.05, 1.0)
    got, pair, _ = worst_pair_value(dom, 1.0, 20.0)
    assert abs(got - 0.95) <= 4 * math.ulp(0.95)
    assert pair == (2, 1)
    assert check_condition_ii(dom, 1.0, 20.0).stabilizable


def test_pair_violation_names_the_first_worst_pair():
    # every (j + 1, j) pair attains the supremum; the first one is reported,
    # not a later copy that rounding of large potentials has inflated
    assert check_condition_ii(EQUI, 1.5, 100.0).reason == "pair-violation(2,1)"


def test_verdict_invariant():
    for dom, k, K in [(EQUI, 1.0, 5.0), (EQUI, 1.5, 100.0), (HALF_LINE, 0.5, 1.0)]:
        v = check_condition_ii(dom, k, K)
        assert v.stabilizable == (v.certificate is not None)


def test_passing_certificate_bounds_gaps():
    # a_{m+1} - b_m <= 1/k whenever the check passes
    for dom, k, K in [(EQUI, 1.0, 5.0), (make_equidistant(0.0, 0.5, 2.0), 0.4, 2.0)]:
        assert check_condition_ii(dom, k, K).stabilizable
        ivs = dom.intervals_until(dom.start + 5 * dom.tail[0])
        gaps = [n[0] - p[1] for p, n in zip(ivs, ivs[1:])]
        assert max(gaps) <= 1.0 / k + 1e-12


# -------------------------------------------------------------- certify_rates


def test_certify_equidistant():
    cert = certify_rates(EQUI)
    assert cert is not None
    assert cert.k / cert.K <= 0.2 + 1e-12
    ver = check_condition_ii(EQUI, cert.k, cert.K)
    assert ver.stabilizable


def test_certify_respects_density_ceiling():
    # no pair with k/K above the per-period density can pass
    for mult in [1.05, 1.3, 2.0]:
        for i in range(-3, 9):
            K = 2.0**i
            k = mult * 0.2 * K
            if 0 < k < K:
                assert not check_condition_ii(EQUI, k, K).stabilizable


def test_certify_single_interval_none():
    assert certify_rates(IntervalUnion(prefix=((0.0, 0.2),))) is None


def test_certify_half_line():
    cert = certify_rates(HALF_LINE)
    assert cert is not None
    assert cert.k / cert.K == pytest.approx(0.75, abs=1e-12)


def test_certify_keeps_the_first_constants_when_they_pass():
    # K = 1/8 with k = 0.75 * K * rho passes on the equidistant layout
    assert certify_rates(EQUI) == check_condition_ii(EQUI, 0.75 * 0.125 * 0.2, 0.125).certificate


def test_certify_scales_by_the_worst_pair_value():
    # the gap of 999.9 before the tail gives a pair value of about 18.7 at
    # K = 1/8; both constants shrink by it, so the worst pair sits at 1
    dom = IntervalUnion(prefix=((0.0, 0.1),), tail=(1.0, ((0.0, 0.2),)), start=1000.0)
    cert = certify_rates(dom)
    assert cert is not None
    assert cert.K == pytest.approx(0.125 / (0.75 * 0.125 * 0.2 * 999.9), rel=1e-12)
    value, pair, _ = worst_pair_value(dom, cert.k, cert.K)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert pair == (2, 1)


def test_certify_offset_start_none():
    assert certify_rates(make_equidistant(0.5, 0.7, 1.0)) is None


@st.composite
def prefix_tail_layouts(draw):
    """A prefix of 0-3 intervals from 0, then a tail of 1-2 intervals from
    any start; without a prefix the tail starts at 0 with an interval."""
    pos, prefix = 0.0, []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.floats(0.01, 10.0))
        prefix.append((pos, pos + length))
        pos += length + draw(st.floats(0.0, 100.0))
    period = draw(st.floats(0.1, 10.0))
    n = draw(st.integers(1, 2))
    # gap, length, gap, length, ..., slack as shares of the period
    shares = draw(st.lists(st.floats(0.01, 1.0), min_size=2 * n + 1, max_size=2 * n + 1))
    if not prefix:
        shares[0] = 0.0
    cuts = np.cumsum(shares) * (period / sum(shares))
    pattern = tuple((float(cuts[2 * j]), float(cuts[2 * j + 1])) for j in range(n))
    start = pos + draw(st.floats(0.0, 1000.0)) if prefix else 0.0
    return IntervalUnion(prefix=tuple(prefix), tail=(period, pattern), start=start)


@given(dom=prefix_tail_layouts())
@settings(max_examples=200, deadline=None)
def test_certify_every_prefix_tail_layout(dom):
    cert = certify_rates(dom)
    assert cert is not None
    assert check_condition_ii(dom, cert.k, cert.K).stabilizable
    rho = dom.pattern_measure() / dom.tail[0]
    assert cert.k / cert.K == pytest.approx(0.75 * rho, rel=1e-12)
    assert cert.K <= 0.125
    # where the starting constants pass they are the certificate, bit for bit
    first = check_condition_ii(dom, 0.75 * 0.125 * rho, 0.125)
    if first.stabilizable:
        assert cert == first.certificate


# --------------------------------------------------------------condition (iii)


def test_condition_iii_equidistant():
    assert check_condition_iii(EQUI, 0.2, 1.0)


def test_condition_iii_single_interval_fails():
    dom = IntervalUnion(prefix=((0.0, 0.2),))
    assert not check_condition_iii(dom, 0.01, 1.0, probes=[(0.2, 200.0)])


def test_condition_iii_short_probe_trivial():
    # probes no longer than c0/c1 make the right side nonpositive
    assert check_condition_iii(EQUI, 0.2, 1.0, probes=[(0.3, 0.35)])


def test_condition_translation_ii_to_iii():
    # (ii) with (k, K) implies (iii) with c1 = k/K, c0 = 1/K + 2/k
    for dom, k, K in [(EQUI, 1.0, 5.0), (make_equidistant(0.0, 0.5, 2.0), 0.4, 2.0)]:
        assert check_condition_ii(dom, k, K).stabilizable
        assert check_condition_iii(dom, k / K, 1.0 / K + 2.0 / k)


def test_condition_translation_iii_to_ii():
    # (iii) with (c1, c0) implies (ii) with k = c1/c0, K = 1/c0
    c1, c0 = 0.15, 2.0
    assert check_condition_iii(EQUI, c1, c0)
    assert check_condition_ii(EQUI, c1 / c0, 1.0 / c0).stabilizable


# ------------------------------------------------------------ guaranteed_decay


def test_decay_equidistant_reference_rate():
    M, rate = guaranteed_decay(EQUI, 1.0, 2.0)
    assert rate == pytest.approx(0.2, abs=1e-14)
    assert M == pytest.approx(math.exp(0.2 / 2.0), rel=1e-12)


def test_decay_full_domain():
    M, rate = guaranteed_decay(HALF_LINE, 0.7, 3.0)
    assert (M, rate) == (1.0, 0.7)


FULL_TAIL = (1.0, ((0.0, 1.0),))


def test_decay_gap_free_prefix_damps_everywhere():
    # the prefix tiles [0, start] and the pattern fills its period
    dom = IntervalUnion(prefix=((0.0, 0.5), (0.5, 1.25)), tail=FULL_TAIL, start=1.25)
    assert guaranteed_decay(dom, 0.7, 3.0) == (1.0, 0.7)


@pytest.mark.parametrize(
    "prefix, start",
    [(((0.0, 0.3), (0.5, 1.0)), 1.0), (((0.0, 1.0),), 2.0)],
    ids=["gapped-prefix", "prefix-ends-before-start"],
)
def test_decay_prefix_with_a_gap_takes_the_certificate(prefix, start):
    # a gap inside the prefix, or between its end and the tail start,
    # leaves the full rate but an overshoot from the certificate path
    dom = IntervalUnion(prefix=prefix, tail=FULL_TAIL, start=start)
    assert certify_rates(dom) is not None
    M, rate = guaranteed_decay(dom, 0.7, 2.0)
    assert rate == 0.7
    assert M == pytest.approx(math.exp((0.7 / 2.0) * (1.0 + start)), rel=1e-14)
    assert M > 1.0


def test_decay_zero_gain():
    assert guaranteed_decay(EQUI, 0.0, 2.0) == (1.0, 0.0)


def test_decay_rejects_unstabilizable():
    with pytest.raises(ValueError):
        guaranteed_decay(IntervalUnion(prefix=((0.0, 0.2),)), 1.0, 2.0)


def test_decay_overflowing_overshoot_names_the_constant():
    # certified, but the tail start enters M = exp((0.9 / 2) * (1 + 3000))
    dom = IntervalUnion(prefix=((0.0, 0.1),), tail=(1.0, ((0.0, 0.9),)), start=3000.0)
    assert certify_rates(dom) is not None
    with pytest.raises(NumericError, match=r"decay overshoot M = exp\(1350\.45\) overflows"):
        guaranteed_decay(dom, 1.0, 2.0)


# ------------------------------------------------------------ make_equidistant


def test_make_equidistant_layout():
    dom = make_equidistant(0.0, 0.2, 1.0)
    assert dom.tail == (1.0, ((0.0, 0.2),))
    assert dom.prefix == ()


def test_make_equidistant_validation():
    with pytest.raises(ValueError):
        make_equidistant(0.5, 0.4, 1.0)
    with pytest.raises(ValueError):
        make_equidistant(0.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        make_equidistant(-0.1, 0.2, 1.0)
