"""Tests for near-diagonal tuple counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sorted_sums
from primeineq.count import (CountResult, CountSpec, count_tuples_fast, count_tuples_naive,
                             harmonic_V, harmonic_V_naive, window_hits)
from primeineq.reports import rs_scaling_report
from primeineq.sums import LONG, GuardError


def test_anchor_instance():
    spec = CountSpec(2, 1.5, 0.1)
    assert count_tuples_naive(spec).count == 6
    assert count_tuples_fast(spec).count == 6


def test_spec_validation():
    with pytest.raises(ValueError):
        CountSpec(1, 1.5, 0.1)
    with pytest.raises(ValueError):
        CountSpec(4, 1.5, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"delta": -1.0},                  # unchecked: fast 28, naive 44
    {"delta": math.nan},              # fast 0, naive 44
    {"delta": math.inf},
    {"gamma": math.nan},
    {"gamma": math.inf},
    {"c": math.nan},
    {"c": math.inf},
    {"c": -math.inf},
])
def test_spec_rejects_non_finite_and_negative_delta(kwargs):
    with pytest.raises(ValueError):
        CountSpec(**{"Y": 4, "c": 1.5, "gamma": 1.0, **kwargs})


def test_diagonal_always_counted():
    # the 2*Y^2 diagonal tuples (n1,n2)=(n3,n4) or (n4,n3) always qualify
    for Y, c in ((4, 1.7), (8, 2.4)):
        res = count_tuples_fast(CountSpec(Y, c, 1e-6))
        assert res.count >= 2 * Y * Y - Y


def test_fast_equals_naive_small_grid():
    for Y in (3, 5, 8):
        for c in (1.2, 1.5, 2.6):
            for gamma in (0.01, 0.5, 2.0):
                spec = CountSpec(Y, c, gamma)
                assert count_tuples_fast(spec) == count_tuples_naive(spec)


@settings(max_examples=40, deadline=None)
@given(Y=st.integers(2, 12),
       c=st.floats(1.01, 2.99).filter(lambda v: abs(v - 2.0) > 1e-6),
       gamma=st.floats(1e-3, 3.0),
       delta=st.sampled_from([1e-9, 1e-3, 0.5]))
def test_fast_equals_naive_property(Y, c, gamma, delta):
    spec = CountSpec(Y, c, gamma, delta)
    assert count_tuples_fast(spec) == count_tuples_naive(spec)


def test_fast_equals_naive_on_integer_sum_ties():
    # integer c makes every pair-sum difference an integer, so gamma in
    # {1, 2, 7} puts whole runs of ties on the window edge, where the fast
    # counter's re-test decides them
    results = []
    for c in (1.0, 2.0, 3.0):
        for gamma in (1.0, 2.0, 7.0):
            for Y in (4, 8, 16):
                spec = CountSpec(Y, c, gamma, delta=1e-3)
                fast = count_tuples_fast(spec)
                assert fast == count_tuples_naive(spec), spec
                results.append(fast)
    assert any(r.ambiguous > 0 for r in results)


def test_fast_equals_naive_when_delta_reaches_gamma():
    # delta >= gamma leaves the fast counter no sure hits; with gamma < delta
    # even the Y^2 diagonal tuples (d = 0) are ambiguous
    wide = CountSpec(6, 1.5, 0.25, delta=0.5)
    for spec in (CountSpec(5, 2.0, 1.0, delta=1.0), wide):
        assert count_tuples_fast(spec) == count_tuples_naive(spec)
    assert count_tuples_fast(wide).ambiguous >= 6 ** 2


def test_fast_keeps_ambiguity_at_a_rounding_tie():
    # Each spec has pair sums x < y whose exact difference lies halfway
    # between two long doubles: fl(y - x) rounds (to even) down to
    # t = fl(gamma + delta), and x + t rounds (to even) below y.  So y lies
    # past x + (gamma + delta) as the bound search computes it, yet the
    # tuple is ambiguous, |fl(t - gamma)| < delta; only the bounds' ulp
    # slack reaches it.  Found by searching the pair sums for such ties in
    # 80-bit extended precision.
    for spec in (CountSpec(6, 2.252, 302.6728741201896, 1.2656542480726786e-14),
                 CountSpec(9, 1.955, 293.209449311595, 4.3243186809149854e-14)):
        assert count_tuples_fast(spec) == count_tuples_naive(spec)


def _window_retest_count(s: CountSpec) -> CountResult:
    """Every pair of the Y^2 ordered pair sums within gamma + delta, gathered
    by window_hits and re-tested with the exact predicate."""
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(LONG) ** LONG(s.c)
    ps = sorted_sums(powers, 2)[0]
    gamma, delta = LONG(s.gamma), LONG(s.delta)
    count = ambiguous = 0
    for i, j in window_hits(ps, ps, gamma + delta):
        d = np.abs(ps[j] - ps[i])
        count += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(count, ambiguous)


@pytest.mark.parametrize("Y", [64, 128, 256, 512])
def test_fast_equals_window_retest_on_rs_ladder(Y):
    spec = CountSpec(Y, 1.5, 1.0)
    assert count_tuples_fast(spec) == _window_retest_count(spec)


@pytest.mark.parametrize("Y, c", [(256, 2.0), (64, 1.0)])
def test_fast_equals_window_retest_on_dense_ties(Y, c):
    # integer c: every pair sum is an exact integer, shared by many
    # unordered pairs (at c = 1, up to Y of them), and gamma = 1 puts the
    # differences d = +-1 on the window edge, so the sure-hit runs, the
    # re-tested edge and the ambiguity flags all weigh multiplicities
    spec = CountSpec(Y, c, 1.0)
    fast = count_tuples_fast(spec)
    assert fast == _window_retest_count(spec)
    assert fast.ambiguous > 0


def test_guards():
    with pytest.raises(ValueError):
        count_tuples_naive(CountSpec(500, 1.5, 0.1))
    with pytest.raises(ValueError):
        count_tuples_fast(CountSpec(2 * 10 ** 5, 1.5, 0.1))
    # the fast counter holds Y^2 long-double pair sums, so Y = 10001 is
    # refused before anything is allocated
    with pytest.raises(GuardError, match="fast guard"):
        count_tuples_fast(CountSpec(10001, 1.5, 0.1))
    # harmonic_V does Y^4 work, so Y = 178 is refused, well inside the fast
    # counter's Y guard, and Y = 177 is not
    with pytest.raises(GuardError, match="harmonic guard"):
        harmonic_V(CountSpec(178, 1.5, 0.1), 10.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        harmonic_V(CountSpec(177, 1.5, 0.1), 0.0)


def test_scaling_report_shape():
    rep = rs_scaling_report(1.5, 1.0, [16, 32, 64, 128])
    assert rep["reference_slope"] == 2.5
    assert len(rep["counts"]) == 4
    assert not rep["out_of_regime"]
    with pytest.raises(ValueError):
        rs_scaling_report(1.5, 1.0, [16, 32])


def test_scaling_out_of_regime():
    # a window wider than the whole range counts all Y^4 tuples
    rep = rs_scaling_report(1.5, 1e9, [4, 8, 16, 32])
    assert rep["out_of_regime"]
    assert not rep["pass"]


def test_harmonic_sum_matches_naive():
    spec = CountSpec(6, 1.5, 1.0)
    total, buckets = harmonic_V(spec, 10.0)
    assert total == pytest.approx(harmonic_V_naive(spec, 10.0), rel=1e-9)
    assert total == pytest.approx(float(buckets.sum()))


def test_harmonic_sum_empty_when_cut_high():
    spec = CountSpec(4, 1.5, 1.0)
    total, buckets = harmonic_V(spec, 1e-9)
    assert total == 0.0
    assert buckets.size == 0


def _harmonic_buckets_exact(Y: int, c: int) -> list[float]:
    """Brute-force buckets of harmonic_V at integer c and tau = 1: every
    ordered 4-tuple with integer difference d > 1 adds 1/d to the bucket k
    with 2^k < d <= 2^(k+1)."""
    powers = [n ** c for n in range(Y + 1, 2 * Y + 1)]
    terms = {}
    for a, b, u, v in itertools.product(powers, repeat=4):
        d = abs(a + b - u - v)
        if d > 1:
            terms.setdefault((d - 1).bit_length() - 1, []).append(1.0 / d)
    return [math.fsum(terms.get(k, [])) for k in range(max(terms) + 1)]


@pytest.mark.parametrize("Y, c", [(4, 2), (6, 1), (5, 3)])
def test_harmonic_buckets_match_brute_force_at_integer_c(Y, c):
    # integer differences put whole runs of d on the bucket edges 2^(k+1)
    total, buckets = harmonic_V(CountSpec(Y, float(c), 1.0), 1.0)
    want = _harmonic_buckets_exact(Y, c)
    assert buckets == pytest.approx(want, rel=1e-12)
    assert total == pytest.approx(math.fsum(want), rel=1e-12)
    if (Y, c) == (4, 2):
        assert list(buckets[:3]) == [4.0, 2.0, 0.0]


def test_ambiguity_flag_fires_on_boundary():
    # gamma equal to an attained difference sits on the comparison boundary
    spec = CountSpec(2, 1.0, 1.0, delta=1e-6)
    fast = count_tuples_fast(spec)
    naive = count_tuples_naive(spec)
    assert fast == naive
    assert fast.ambiguous > 0
