"""Tests for near-diagonal tuple counting."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import harmonic_V_naive, naive_long_double_count, sorted_sums, window_hits
from primeineq import count
from primeineq.count import (CountResult, CountSpec, _pair_band, count_tuples_fast,
                             count_tuples_naive, harmonic_V, window_pairs, window_reach)
from primeineq.reports import _SLOPE_ALLOWANCE, rs_slope_report
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


def test_fast_counter_retests_in_chunks(monkeypatch):
    # wide delta makes most tuples ambiguous, but only the 40 pairs of pair
    # sums within the slack of gamma - delta, gamma or gamma + delta (exact
    # differences of sums of integer roots) are re-tested; 7 candidates at a
    # time re-test them in 6 chunks, whose ends split the candidates of one
    # pair sum
    spec = CountSpec(40, 0.5, 1.0, 0.5)
    want = count_tuples_naive(spec)
    assert count_tuples_fast(spec) == want
    monkeypatch.setattr(count, "_RETEST_CHUNK", 7)
    assert count_tuples_fast(spec) == want
    assert want.ambiguous > 100 * 1000


@pytest.mark.parametrize("Y, band", [(200, None), (100, 4)])
def test_fast_counts_every_tuple_in_a_window_past_every_difference(monkeypatch, Y, band):
    # at c = -1 diagonal sums 2/m tie off-diagonal sums 1/a + 1/b in
    # float64 across band edges: such a tail sum comes after every owner of
    # its key, or the owners before it miss it
    if band:
        monkeypatch.setattr(count, "_FAST_BAND", band)
    spec = CountSpec(Y, -1.0, 1.0)
    assert count_tuples_fast(spec) == CountResult(Y ** 4, 0)


def test_fast_counter_orders_flat_indices_only_to_retest(monkeypatch):
    # at the rs-slope specs no pair sum lies within the slack of gamma from
    # another, so no band needs the flat indices of its sorted keys
    ordered = []
    sorted_flat = count._sorted_flat

    def recorded(*args):
        ordered.append(args)
        return sorted_flat(*args)

    monkeypatch.setattr(count, "_sorted_flat", recorded)
    assert count_tuples_fast(CountSpec(1024, 1.5, 1.0)).count == 26177836
    assert not ordered
    count_tuples_fast(CountSpec(40, 0.5, 1.0, 0.5))   # re-tests 40 candidates
    assert ordered


@settings(max_examples=300, deadline=None, derandomize=True)
@given(Y=st.integers(2, 12),
       c=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(-2.0, 3.0),
       share=st.floats(1e-3, 2.0),
       narrow=st.sampled_from([0.0, 1e-9, None]), wide=st.floats(0.5, 3.0),
       band=st.integers(4, 64), chunk=st.integers(1, 7))
def test_fast_equals_naive_in_any_bands_and_chunks(Y, c, share, narrow, wide, band, chunk):
    # gamma a share of the sum span, and delta either narrow or (None) at
    # least gamma / 2, so that the three re-test zones of a wide delta are
    # apart
    gamma = share * (_sum_span(Y, c) or 1.0)
    spec = CountSpec(Y, c, gamma, wide * gamma if narrow is None else narrow)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(count, "_FAST_BAND", band)
        patch.setattr(count, "_RETEST_CHUNK", chunk)
        assert count_tuples_fast(spec) == count_tuples_naive(spec), spec


def _sum_span(Y: int, c: float) -> float:
    """The distance from the smallest to the largest pair sum."""
    ends = LONG(Y + 1) ** LONG(c), LONG(2 * Y) ** LONG(c)
    return float(2 * abs(ends[1] - ends[0]))


_BAND_EDGE_CS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]


def _check_fast_across_band_edges(monkeypatch, c):
    """The fast counter equals the naive one at Y = 12 in bands of about 4
    pair sums, so band edges fall between equal sums at integer c (at c = 0
    every sum is equal and there is one band), and gamma reaches from much
    less than one band to past every band."""
    monkeypatch.setattr(count, "_FAST_BAND", 4)
    Y = 12
    powers = count._powers(CountSpec(Y, c, 1.0))
    assert len(count._band_edges(powers)) > (2 if c == 0 else 10)
    span = _sum_span(Y, c) or 1.0
    for share in (1e-3, 0.02, 0.3, 2.0):
        for delta in (1e-9, 1e-3 * share * span):
            spec = CountSpec(Y, c, share * span, delta)
            assert count_tuples_fast(spec) == count_tuples_naive(spec), spec
    for gamma in (1.0, 2.0, 7.0):   # on the integer differences at integer c
        spec = CountSpec(Y, c, gamma, 1e-3)
        assert count_tuples_fast(spec) == count_tuples_naive(spec), spec


@pytest.mark.parametrize("c", _BAND_EDGE_CS)
def test_fast_equals_naive_across_band_edges(monkeypatch, c):
    _check_fast_across_band_edges(monkeypatch, c)


@pytest.mark.parametrize("c", _BAND_EDGE_CS)
def test_fast_equals_naive_across_band_and_retest_chunk_edges(monkeypatch, c):
    # re-test chunks of 3 candidates end inside an owner's run of
    # candidates, so the long-double sums re-formed from flat indices are
    # checked across chunk ends as well as band edges
    monkeypatch.setattr(count, "_RETEST_CHUNK", 3)
    _check_fast_across_band_edges(monkeypatch, c)


@pytest.mark.parametrize("c", [-1.0, 0.5, 1.0, 1.5, 3.0])
def test_fast_counter_forms_only_the_rows_of_each_band(monkeypatch, c):
    # each band gets the run of rows that can hold one of its sums, and the
    # rows left out form none: the band is the one all rows give
    monkeypatch.setattr(count, "_FAST_BAND", 64)
    formed = []

    def recorded(powers, rows, lo, hi):
        got = _pair_band(powers, rows, lo, hi)
        if len(rows) < len(powers):
            want = _pair_band(powers, range(len(powers)), lo, hi)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (lo, hi)
            formed.append(len(rows))
        return got

    monkeypatch.setattr(count, "_pair_band", recorded)
    Y = 60
    spec = CountSpec(Y, c, 0.01 * (_sum_span(Y, c) or 1.0))
    assert count_tuples_fast(spec) == count_tuples_naive(spec)
    assert len(formed) > 10 and min(formed) < Y // 2


@pytest.mark.parametrize("c", [1.5, 1.0, 0.0])
def test_pair_band_is_the_full_range_masked(c):
    # k = 2: bands ending on sums (ties at both ends at integer c), one
    # ulp off sums, below and above every sum, and an empty band
    P = np.arange(20, 44, dtype=np.int64).astype(LONG) ** LONG(c)
    n = len(P)
    i, j = np.triu_indices(n)
    sums, flat = P[i] + P[j], i * n + j   # in order of flat index
    s = np.sort(sums)
    m = len(s)
    up, down = LONG(np.inf), LONG(-np.inf)
    for lo, hi in [(s[m // 5], s[m // 2]), (s[0], s[-1]),
                   (np.nextafter(s[m // 4], up), np.nextafter(s[3 * m // 4], down)),
                   (-np.inf, s[m // 3]), (s[2 * m // 3], np.inf),
                   (-np.inf, np.inf), (s[0] - 1, s[0]), (s[m // 2], s[m // 2])]:
        got_sums, got_flat = _pair_band(P, range(n), lo, hi)
        by_flat = np.argsort(got_flat)
        keep = (sums >= lo) & (sums < hi)
        assert got_flat.dtype == np.int32
        assert np.array_equal(got_flat[by_flat], flat[keep]), (lo, hi)
        assert np.array_equal(got_sums[by_flat], sums[keep]), (lo, hi)


@pytest.mark.parametrize("sign", [1, -1])
def test_window_reach_covers_float64_rounding(sign):
    # A long-double hit |v - t| < w one float64 ulp past the unwidened
    # reach: near 2^20 the float64 ulp is 2^-32, w lies a quarter ulp off
    # that grid, t rounds down (by 3/8 ulp) and v = t + w - 2^-43 rounds up
    # (by 3/8 ulp), so fl(v) - fl(t) = w + 3/4 ulp, while fl(t) + w rounds
    # down to the grid point below fl(v).  sign = -1 mirrors the case to the
    # lower end of the window.
    ulp = LONG(2.0 ** -32)
    w = LONG(0.5) + ulp / 4
    t = LONG(2.0 ** 20) + 3 * ulp / 8
    v = t + w - LONG(2.0 ** -43)
    assert abs(v - t) < w
    assert float(t) == 2.0 ** 20 and float(v) == float(LONG(2.0 ** 20 + 0.5) + ulp)
    values = np.sort(sign * np.array([t - 1, v, t + 2], dtype=LONG))
    keys, target = values.astype(float), np.array([float(sign * t)])
    assert len(window_pairs(target - float(w), target + float(w), keys)[0]) == 0
    reach = window_reach(values[0], values[-1], w)
    k, win = window_pairs(target - reach, target + reach, keys)
    assert list(zip(k.tolist(), win.tolist())) == [(1, 0)]


def _every_key_in_every_window(lo, hi, keys):
    """(k, w) of every key k inside every window w, by comparing each key
    with each window, in order of k and then of w."""
    return np.nonzero((keys[:, None] >= lo) & (keys[:, None] <= hi))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=30),
       st.lists(st.integers(-25, 25), max_size=40), st.integers(0, 4))
def test_window_pairs_is_every_key_in_every_window(targets, keys, reach):
    # integer targets, keys and reach: every bound is exact, so many keys
    # fall on bounds; the keys come unsorted, and often outside every window
    t = np.sort(np.array(targets, dtype=float))
    keys = np.array(keys, dtype=float)
    got = window_pairs(t - reach, t + reach, keys)
    for a, b in zip(got, _every_key_in_every_window(t - reach, t + reach, keys)):
        assert np.array_equal(a, b)


def test_window_pairs_edges_and_empty_results():
    lo, hi = np.array([0.0, 1.0, 5.0]), np.array([2.0, 3.0, 7.0])
    keys = np.array([3.0, 2.0, 0.0, 4.0, 7.0, 8.0, -1.0, 1.0])
    k, w = window_pairs(lo, hi, keys)
    assert list(zip(k.tolist(), w.tolist())) == [(0, 1), (1, 0), (1, 1), (2, 0), (4, 2),
                                                 (7, 0), (7, 1)]
    for a, b, c in [(lo, hi, np.array([4.0, 8.0, -1.0])), (lo, hi, np.zeros(0)),
                    (np.zeros(0), np.zeros(0), keys)]:
        k, w = window_pairs(a, b, c)
        assert len(k) == len(w) == 0


def test_fast_bounds_cover_float64_rounding():
    # n in (12, 24], c = 1.5: the pairs (14, 17) and (14, 19) differ by
    # d = 19^c - 17^c, 3.4e-16 below gamma, a hit; their float64 keys lie
    # one key ulp (2.8e-14) past key[p] + gamma, beyond the outer bound
    # unless the bound reaches over the keys' rounding.  The same tuples
    # pin the naive counter's float64 screen: their |d64| lies 1.8e-14 above
    # gamma, a sure miss unless the screen's margin reaches over it
    spec = CountSpec(12, 1.5, 12.726284291772568, 0.0)
    n = np.array([14, 17, 19], dtype=LONG) ** LONG(1.5)
    assert (n[0] + n[2]) - (n[0] + n[1]) < LONG(spec.gamma)
    assert float(n[0] + n[2]) > float(n[0] + n[1]) + spec.gamma
    assert count_tuples_fast(spec) == count_tuples_naive(spec) == CountResult(4514, 0)


# every fixed spec of this module, plus sums that straddle the float64 range
_FIXED_SPECS = [
    CountSpec(2, 1.5, 0.1),
    CountSpec(6, 2.252, 302.6728741201896, 1.2656542480726786e-14),
    CountSpec(9, 1.955, 293.209449311595, 4.3243186809149854e-14),
    CountSpec(12, 1.5, 12.726284291772568, 0.0),
    CountSpec(5, 2.0, 1.0, delta=1.0),
    CountSpec(6, 1.5, 0.25, delta=0.5),
    CountSpec(2, 1.0, 1.0, delta=1e-6),
    *(CountSpec(Y, c, gamma, delta=1e-3) for c in (1.0, 2.0, 3.0)
      for gamma in (1.0, 2.0, 7.0) for Y in (4, 8, 16)),
    *(CountSpec(Y, c, gamma) for Y in (3, 5, 8) for c in (1.2, 1.5, 2.6)
      for gamma in (0.01, 0.5, 2.0)),
    # 2 * 4^c rounds to inf in float64 and lies within gamma of 3^c + 4^c
    CountSpec(2, math.log(0.899e308) / math.log(4), 1e308),
    # a hit whose |d64| lies 1.63 * 2^-53 max ps above gamma, so a screen
    # margin of one float64 rounding of the largest sum misses it (696, not
    # 704); found by searching the pair sums for roundings that add up
    CountSpec(8, 1.0633271415109362, 1.247740299836096, 0.0),
]


@pytest.mark.parametrize("spec", _FIXED_SPECS,
                         ids=lambda s: f"{s.Y}-{s.c!r}-{s.gamma!r}-{s.delta!r}")
def test_naive_equals_long_double_oracle(spec):
    # the float64 screen of count_tuples_naive decides every tuple as the
    # all-long-double loop does, ambiguity flags included
    assert count_tuples_naive(spec) == naive_long_double_count(spec)


@pytest.mark.parametrize("chunk", [1, 7, 64, 200])
@pytest.mark.parametrize("spec", [
    *(CountSpec(Y, 1.5, 1.0) for Y in (2, 3, 8, 16)),
    CountSpec(8, 2.0, 7.0, delta=1e-3),    # integer d falls on integer gamma
    CountSpec(16, 1.0, 3.0, delta=1e-3),
    CountSpec(6, 1.5, 0.25, delta=0.5),    # delta >= gamma: the diagonal is ambiguous
    CountSpec(5, 2.0, 1.0, delta=1.0),
    CountSpec(8, 1.0633271415109362, 1.247740299836096, 0.0),
], ids=lambda s: f"{s.Y}-{s.c!r}-{s.gamma!r}-{s.delta!r}")
def test_naive_equals_long_double_oracle_in_any_chunks(monkeypatch, spec, chunk):
    # the naive counter's rows are the Y diagonal sums (weight 1), then the
    # sums a < b (weight 2); a chunk of _NAIVE_CHUNK // (Y(Y+1)/2) rows, at
    # least one, stops at the weight boundary.  1 comparison gives one row
    # per chunk, 64 comparisons at Y = 2 and Y = 3 give chunks longer than
    # the diagonal, cut at the weight boundary, and 200 comparisons at Y = 8
    # give chunks of 5 rows, one ending inside the 8 diagonal sums
    monkeypatch.setattr(count, "_NAIVE_CHUNK", chunk)
    assert count_tuples_naive(spec) == naive_long_double_count(spec)


@settings(max_examples=60, deadline=None)
@given(Y=st.integers(2, 16),
       c=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
       gamma=st.floats(1e-3, 3.0),
       delta=st.sampled_from([0.0, 1e-9, 1e-3, 0.5, "2 gamma"]))
def test_naive_equals_long_double_oracle_property(Y, c, gamma, delta):
    spec = CountSpec(Y, c, gamma, 2 * gamma if delta == "2 gamma" else delta)
    assert count_tuples_naive(spec) == naive_long_double_count(spec)


def test_guards():
    with pytest.raises(ValueError):
        count_tuples_naive(CountSpec(500, 1.5, 0.1))
    with pytest.raises(ValueError):
        count_tuples_fast(CountSpec(2 * 10 ** 5, 1.5, 0.1))
    # the fast counter forms Y^2 long-double pair sums, so Y = 10001 is
    # refused before anything is allocated
    with pytest.raises(GuardError, match="fast guard"):
        count_tuples_fast(CountSpec(10001, 1.5, 0.1))
    # harmonic_V does Y^4 work, so Y = 178 is refused, well inside the fast
    # counter's Y guard, and Y = 177 is not
    with pytest.raises(GuardError, match="harmonic guard"):
        harmonic_V(CountSpec(178, 1.5, 0.1), 10.0)
    with pytest.raises(ValueError, match="tau must be positive"):
        harmonic_V(CountSpec(177, 1.5, 0.1), 0.0)


@pytest.mark.parametrize("spec, naive", [(CountSpec(8, 300.0, 1.0), 328),
                                         (CountSpec(4, 400.0, 1.0), 60)])
def test_pair_index_refuses_sums_past_the_float64_range(spec, naive):
    # the fast counter searches the pair sums by their float64 roundings,
    # so a spec whose largest sum 2 (2Y)^c overflows is refused; the naive
    # counter decides such a spec in long double
    with pytest.raises(ValueError, match="float64 range"):
        count_tuples_fast(spec)
    assert count_tuples_naive(spec).count == naive


def test_naive_count_refuses_sums_past_the_long_double_range():
    # every power of CountSpec(2, 1e6, 1.0) is inf in long double, where its
    # 6 ordered tuples with {n1, n2} = {n3, n4} would have d = inf - inf
    with pytest.raises(ValueError, match="long-double range"):
        count_tuples_naive(CountSpec(2, 1e6, 1.0))
    # 2 * 4^c is finite in long double at c = 8191 and not at c = 8192
    assert count_tuples_naive(CountSpec(2, 8191.0, 1.0)) == CountResult(6, 0)
    with pytest.raises(ValueError, match="long-double range"):
        count_tuples_naive(CountSpec(2, 8192.0, 1.0))


def test_harmonic_sum_refuses_sums_past_the_float64_range():
    with pytest.raises(ValueError, match="float64 range"):
        harmonic_V(CountSpec(6, 300.0, 1.0), 1.0)


def test_harmonic_sum_refuses_differences_below_the_rounding_of_the_sums():
    # the sums reach 2 * 12^200, about 1.4e216, while the differences that
    # dominate the exact total (9.88e-180) lie near 1e179: long double
    # rounds them away, and harmonic_V gave 4.1e-180
    with pytest.raises(ValueError, match="rounding bound"):
        harmonic_V(CountSpec(6, 200.0, 1.0), 1.0)
    # the cut is tested against 8 long-double ulps of the largest sum
    spec = CountSpec(6, 1.5, 1.0)
    top = 2 * LONG(12) ** LONG(1.5)
    bound = 8 * np.finfo(LONG).eps * top
    with pytest.raises(ValueError, match="rounding bound"):
        harmonic_V(spec, float(1 / bound) * 2)
    assert harmonic_V(spec, float(1 / bound) / 2)[0] > 0


def test_pair_index_float64_range_edge():
    # the fast counter's float64 roundings of the pair sums: 2 * 8^c is
    # finite in float64 for c < 341 and not at c = 341
    for c in (340.0, 340.99):
        spec = CountSpec(4, c, 1.0)
        assert count_tuples_fast(spec).count == count_tuples_naive(spec).count == 60
    spec = CountSpec(4, 341.0, 1.0)
    with pytest.raises(ValueError, match="float64 range"):
        count_tuples_fast(spec)
    assert count_tuples_naive(spec).count == 60


def test_scaling_report_shape():
    rep = json.loads(rs_slope_report(1.5, 1.0, (16, 32, 64, 128)))
    assert rep["report"] == "rs-slope"
    assert rep["reference_slope"] == 2.5
    assert rep["config"]["slope_cap"] == 2.65
    assert len(rep["counts"]) == 4
    assert rep["pass"]
    with pytest.raises(ValueError):
        rs_slope_report(1.5, 1.0, (16, 32))


@pytest.mark.parametrize("c, reference", [(1.2, 2.8), (2.5, 2.0)])
def test_slope_cap_follows_the_reference_slope(c, reference):
    # the cap is max(4 - c, 2) plus the allowance, not 2.65 at every c
    rep = json.loads(rs_slope_report(c, 1.0, (16, 32, 64, 128)))
    assert rep["reference_slope"] == pytest.approx(reference)
    assert rep["config"]["slope_cap"] == rep["reference_slope"] + _SLOPE_ALLOWANCE
    assert rep["config"]["slope_cap"] != 2.65
    assert rep["pass"] == (rep["slope"] <= rep["config"]["slope_cap"])


def test_scaling_out_of_regime():
    # a window wider than the whole range counts all Y^4 tuples; at c = 0.1
    # the slope 4 is under the cap 4.05, so only the regime check fails it
    for c in (1.5, 0.1):
        rep = json.loads(rs_slope_report(c, 1e9, (4, 8, 16, 32)))
        assert rep["counts"] == [Y ** 4 for Y in (4, 8, 16, 32)]
        assert not rep["pass"]


def test_harmonic_sum_matches_naive():
    spec = CountSpec(6, 1.5, 1.0)
    total, buckets = harmonic_V(spec, 10.0)
    assert total == pytest.approx(harmonic_V_naive(spec, 10.0), rel=1e-9)
    assert total == pytest.approx(float(buckets.sum()))


@pytest.mark.parametrize("c, tau", [(-0.5, 1e4), (-1.0, 1e4), (-2.0, 1e6), (0.0, 1e4)])
def test_harmonic_sum_matches_naive_at_c_up_to_zero(c, tau):
    # the powers descend in n for c < 0, and harmonic_V takes them reversed;
    # at c = 0 every pair sum is 2, so no difference passes the cut
    spec = CountSpec(6, c, 1.0)
    total, buckets = harmonic_V(spec, tau)
    assert total == pytest.approx(harmonic_V_naive(spec, tau), rel=1e-9)
    assert total == pytest.approx(float(buckets.sum()))
    assert (total > 0) == (len(buckets) > 0) == (c != 0)


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
