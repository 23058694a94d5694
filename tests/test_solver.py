"""Tests for the triple/sextuple solvers, the main term, and the scan."""

import itertools
import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (decide, gauss_g2, main_term_per_R, mpmath_g2, pair_index, solves,
                     sorted_sums, window_hits)
from primeineq import count, reports, solver
from primeineq.count import _pair_band, triple_band, unordered_pairs
from primeineq.kernel import kernel_from_instance, phi_eval, phi_fourier
from primeineq.reports import exceptional_scan
from primeineq.solver import (SolutionRecord, count_B, find_sextuple, find_triple,
                              full_prime_table,
                              instance_for_theorem1, instance_for_theorem2,
                              main_term_H, sextuple_feasible, triple_counts,
                              weighted_B1)
from primeineq.sums import (LONG, ConvergenceError, GuardError, PrimeTable,
                            ProblemInstance, integral_I, sieve_primes,
                            sieve_range)


@pytest.fixture(scope="module")
def inst_1e5():
    return instance_for_theorem1(1e5, 1.5)


def test_instance_examples():
    inst = instance_for_theorem1(3 * 2 ** 10, 1.0)
    assert inst.X == pytest.approx(1024.0)
    assert inst.k == 3
    inst = instance_for_theorem1(1e5, 1.5)
    assert inst.X == pytest.approx(1035.7, abs=0.1)
    assert inst.eps == pytest.approx(1.0 / math.log(1e5))
    inst = instance_for_theorem2(1e6, 2.05)
    assert inst.X == pytest.approx(192.68, abs=0.05)
    assert inst.k == 6


def test_instance_rejects_empty_range():
    with pytest.raises(ValueError, match="X must be >= 3"):
        instance_for_theorem1(3 * 2.1 ** 1.5, 1.5)   # X = 2.1: (2.1, 4.2] = {3}
    # at c = 1, X = N/3 and N/10 exactly: (X, 2X] = {5} at X = 3 and 3.25,
    # {7} at X = 5 and 5.25
    for X in (3.0, 3.25, 5.0, 5.25):
        with pytest.raises(ValueError, match=r"holds fewer than 2 primes"):
            instance_for_theorem1(3 * X, 1.0)
        with pytest.raises(ValueError, match=r"holds fewer than 2 primes"):
            instance_for_theorem2(10 * X, 1.0)


def test_instance_two_prime_check_agrees_with_the_sieve():
    # the builders sieve (X, 2X] only below X = 5.5; past it the second
    # Ramanujan prime, 11, puts two primes in (X, 2X]
    for X in np.arange(3.0, 64.25, 0.25).tolist():
        has_two = len(sieve_primes(X)) >= 2
        for build, N in ((instance_for_theorem1, 3 * X), (instance_for_theorem2, 10 * X)):
            try:
                inst = build(N, 1.0)
            except ValueError:
                assert not has_two, (build.__name__, X)
            else:
                assert has_two and inst.X == X, (build.__name__, X)


def test_count_B_degenerate_c1():
    # c = 1, primes in (5, 10] = {7}; only triple 7+7+7 = 21
    inst = ProblemInstance(c=1.0, X=5.0, eps=0.4, k=3)
    weighted, unweighted, recs = count_B(inst, 21.0, want_records=True)
    assert unweighted == 1
    assert weighted == pytest.approx(math.log(7.0) ** 3)
    assert recs[0].primes == (7, 7, 7)
    assert recs[0].deviation == pytest.approx(0.0, abs=1e-12)
    assert solves(recs[0].primes, 21.0, inst.eps, inst.c)
    # shifted window misses
    _, n, _ = count_B(inst, 22.0)
    assert n == 0


def test_count_B_requires_k3():
    inst = instance_for_theorem2(1e6, 2.05)
    with pytest.raises(ValueError):
        count_B(inst, 1e6)


def test_count_B_weight_bracketing(inst_1e5):
    R = 1.5e5
    weighted, unweighted, _ = count_B(inst_1e5, R)
    assert unweighted > 0
    lo = math.log(inst_1e5.X) ** 3
    hi = math.log(2 * inst_1e5.X) ** 3
    assert unweighted * lo <= weighted <= unweighted * hi


def test_count_B_table_permutation_invariant(inst_1e5):
    R = 1.5e5
    base = count_B(inst_1e5, R)[:2]
    tbl = sieve_primes(inst_1e5.X)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(tbl))
    shuffled = PrimeTable(tbl.primes[perm])
    weighted, unweighted, _ = count_B(inst_1e5, R, table=shuffled)
    assert unweighted == base[1]
    assert weighted == pytest.approx(base[0], rel=1e-12)


def test_records_validate_cleanly(inst_1e5):
    _, n, recs = count_B(inst_1e5, 1.5e5, want_records=True)
    assert len(recs) == n
    for rec in recs:
        assert rec.deviation < inst_1e5.eps
        assert solves(rec.primes, 1.5e5, inst_1e5.eps, inst_1e5.c)
        assert rec.value == pytest.approx(
            sum(p ** inst_1e5.c for p in rec.primes), rel=1e-12)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _check_against_brute_force(inst: ProblemInstance, tbl: PrimeTable, R: float):
    # long-double deviations (p_i^c + p_j^c) - (R - p_l^c) of every ordered
    # triple, indexed [i, j, l], each decided at 40 digits near the edge
    P = tbl.powers(inst.c)
    dev = (P[:, None] + P[None, :])[:, :, None] - (LONG(R) - P)[None, None, :]
    i, j, l = np.nonzero(decide(dev, R, inst.eps, inst.c, lambda e: tbl.primes[list(e)]))
    logs = tbl.logs
    weighted, unweighted, recs = count_B(inst, R, table=tbl, want_records=True)
    assert unweighted == len(i), R
    assert weighted == pytest.approx(float(np.sum(logs[i] * logs[j] * logs[l])),
                                     rel=1e-12)
    assert sorted(r.primes for r in recs) == sorted(
        (int(tbl.primes[a]), int(tbl.primes[b]), int(tbl.primes[d]))
        for a, b, d in zip(i, j, l))
    p = kernel_from_instance(inst.eps, inst.X)
    near = np.nonzero(np.abs(dev) < LONG(p.a + p.b))
    phi = phi_eval(p, dev[near].astype(float))
    b1 = math.fsum(logs[near[0]] * logs[near[1]] * logs[near[2]] * phi)
    assert weighted_B1(inst, R, table=tbl) == pytest.approx(b1, rel=1e-12)


# Twelve primes from 60000 up: pair sums near 2.9e7 lie above 2^24, where the
# float64 half-ulp (1.9e-9) of a window edge exceeds a 1e-9 margin.
_EDGE_PRIMES = np.array([p for p in range(60000, 60200) if _is_prime(p)][:12])
_EDGE_TABLE = PrimeTable(_EDGE_PRIMES)
_EDGE_INST = ProblemInstance(c=1.5, X=60000.0, eps=0.1)


@settings(max_examples=150, deadline=None)
@given(i=st.integers(0, 11), j=st.integers(0, 11), l=st.integers(0, 11),
       side=st.sampled_from([-1.0, 1.0]), delta=st.floats(0.0, 1e-8))
def test_count_B_edge_of_window_matches_brute_force(i, j, l, side, delta):
    # R is a float64 at +-(eps - delta) from a real triple sum, stepped one
    # float64 ulp at a time until that triple lies inside the window
    P = _EDGE_TABLE.powers(_EDGE_INST.c)
    eps = LONG(_EDGE_INST.eps)
    s = P[i] + P[j] + P[l]
    R = float(s + LONG(side) * (eps - LONG(delta)))
    while not abs((P[i] + P[j]) - (LONG(R) - P[l])) < eps:
        R = float(np.nextafter(R, float(s)))
    _check_against_brute_force(_EDGE_INST, _EDGE_TABLE, R)


def test_count_B_powers_follow_the_table_object(inst_1e5):
    # two tables over the same (X, 2X] with different primes must not share
    # cached powers
    full = sieve_primes(inst_1e5.X)
    half = PrimeTable(full.primes[::2])
    for R in (1.5e5, 2.1e5):
        for tbl in (full, half, full):
            _check_against_brute_force(inst_1e5, tbl, R)


def _ordered_count_B(inst: ProblemInstance, tbl: PrimeTable, R: float):
    """count_B over the ordered pair index sorted_sums(powers, 2), the
    oracle of the unordered one: (weighted, [(primes, value)]) in
    (third prime, pair sum, i n + j) order."""
    n = len(tbl)
    P = tbl.powers(inst.c)
    sums, order = sorted_sums(P, 2)
    eps = LONG(inst.eps)
    weighted, records = 0.0, []
    for l, pos in window_hits(sums, LONG(R) - P, eps):
        i, j = np.unravel_index(order[pos], (n, n))
        hit = decide(sums[pos] - (LONG(R) - P[l]), R, inst.eps, inst.c,
                     lambda e: tbl.primes[[i[e], j[e], l[e]]])
        i, j, l, pos = i[hit], j[hit], l[hit], pos[hit]
        weighted += float(np.sum(tbl.logs[i] * tbl.logs[j] * tbl.logs[l]))
        records += [((int(tbl.primes[a]), int(tbl.primes[b]), int(tbl.primes[d])),
                     float(v)) for a, b, d, v in zip(i, j, l, sums[pos] + P[l])]
    return weighted, records


def _window_B1(inst: ProblemInstance, tbl: PrimeTable, R: float) -> float:
    """weighted_B1 by a window search of width a + b over the sorted keys
    of every unordered pair sum, the search the candidate pass replaces:
    the same terms in the same order."""
    n = len(tbl)
    P = tbl.powers(inst.c)
    keys, flat = pair_index(P)
    p = kernel_from_instance(inst.eps, inst.X)
    total = 0.0
    for l, pos in window_hits(keys, LONG(R) - P, LONG(p.a + p.b)):
        i, j = np.divmod(flat[pos], n)
        phi = phi_eval(p, (P[i] + P[j] - (LONG(R) - P[l])).astype(float))
        phi[i < j] *= 2.0
        total += float(np.sum(tbl.logs[i] * tbl.logs[j] * phi * tbl.logs[l]))
    return total


def _unscreened_candidates(P: np.ndarray, R: float, reach: float):
    """Every (i, j, l), i <= j, whose key fl(P_i + P_j) lies in
    [fl(t - reach), fl(t + reach)], t = fl(R - P_l), found by comparing
    every key with every window: (i, j, l, pair sums) in (l, pair sum,
    i n + j) order."""
    keys, flat = pair_index(P)
    t = (LONG(R) - P).astype(float)
    l, pos = np.nonzero((keys >= (t - reach)[:, None]) & (keys <= (t + reach)[:, None]))
    i, j = np.divmod(flat[pos], len(P))
    return i, j, l, P[i] + P[j]


def _pair_test_table(kind: str) -> tuple[PrimeTable, ProblemInstance]:
    if kind == "dense":
        # c = 1 near 4e9: P_i + P_j = 8e9 + i + j exactly, so every sum is
        # shared by many pairs, and R and eps put the window edge on a sum
        primes = np.arange(4_000_000_000, 4_000_000_048, dtype=np.int64)
        inst = ProblemInstance(c=1.0, X=4e9, eps=2.0)
    elif kind == "edge":
        # c = 1.25 near 4e9: the pair sums span 3e4, so the screen's buckets
        # are 3.5e-3 wide, and a quarter of the float64 sums fl(P_i) + fl(P_j)
        # differ from their keys by an ulp (2.4e-4)
        primes = np.arange(4_000_000_000, 4_000_000_048, dtype=np.int64)
        inst = ProblemInstance(c=1.25, X=4e9, eps=1e-3)
    else:
        # seeded primes in shuffled table order
        rng = np.random.default_rng(int(kind))
        primes = rng.choice(sieve_range(5_000, 40_000), 160, replace=False)
        inst = ProblemInstance(c=1.5, X=5_000.0, eps=0.5)
    return PrimeTable(primes), inst


def _test_Rs(tbl: PrimeTable, inst: ProblemInstance, kind: str) -> list[float]:
    n = len(tbl)
    P = tbl.powers(inst.c)
    rng = random.Random(kind)
    Rs = []
    for _ in range(6):
        a, b, d = (rng.randrange(n) for _ in range(3))
        Rs.append(float(P[a] + P[b] + P[d]) + rng.choice([0.0, 0.25, -1.0, 1.75]))
    return Rs


@pytest.mark.parametrize("kind", ["0", "1", "dense"])
def test_triple_counts_against_the_ordered_index(kind):
    tbl, inst = _pair_test_table(kind)
    Rs = _test_Rs(tbl, inst, kind)
    batch = solver.triple_counts(inst, Rs, table=tbl, want_records=True)
    hits = 0
    for R, got in zip(Rs, batch):
        # each R's counts are bitwise those of R alone and of the two views;
        # the records, in order, are the oracle's below
        alone = solver.triple_counts(inst, [R], table=tbl)[0]
        assert repr(got._replace(records=None)) == repr(alone)
        assert count_B(inst, R, table=tbl) == (got.weighted, got.count, None)
        assert repr(weighted_B1(inst, R, table=tbl)) == repr(got.B1)
        # every pair i < j stands for two ordered pairs with the same sum,
        # so the records are those of the ordered pair index
        want_weighted, want = _ordered_count_B(inst, tbl, R)
        assert got.count == len(want)
        assert [(r.primes, r.value) for r in got.records] == want
        assert got.weighted == want_weighted   # same terms, same order
        assert got.B1 == _window_B1(inst, tbl, R)
        hits += got.count
    assert hits > 0


@pytest.mark.parametrize("kind", ["0", "1", "dense"])
def test_candidate_pass_matches_the_unscreened_search(kind):
    tbl, inst = _pair_test_table(kind)
    P = tbl.powers(inst.c)
    Rs = _test_Rs(tbl, inst, kind)
    eps = LONG(inst.eps)
    # the counters' reach, and for the dense table reach 2, where the
    # buckets are 4 wide from 8e9: integer sums, window edges and bucket
    # edges coincide
    for reach in (solver._reach(P, eps), 2.0, 0.3):
        got = solver._triple_candidates(P, Rs, reach)
        assert len(got) == len(Rs)
        for R, cands in zip(Rs, got):
            want = _unscreened_candidates(P, R, reach)
            for a, b in zip(cands, want):
                assert np.array_equal(a, b)


def test_candidate_pass_pads_for_the_float64_sums():
    # windows of reach 0 at keys of pairs whose float64 sum differs from
    # the key; one R at a time, so few buckets are marked and a pair whose
    # float64 sum falls in the next bucket is found only through the pad
    tbl, _ = _pair_test_table("edge")
    P = tbl.powers(1.25)
    n = len(P)
    keys, flat = pair_index(P)
    i, j = np.divmod(flat, n)
    p64 = P.astype(float)
    off = np.flatnonzero(p64[i] + p64[j] != keys)
    rng = random.Random(5)
    found = 0
    for pos in rng.sample(list(off), 40):
        R = float(LONG(keys[pos]) + P[rng.randrange(n)])
        for reach in (0.0, 2.0 ** -10):
            cands = solver._triple_candidates(P, [R], reach)[0]
            want = _unscreened_candidates(P, R, reach)
            for a, b in zip(cands, want):
                assert np.array_equal(a, b)
            found += len(want[0])
    assert found > 0


def test_triple_counts_batch_matches_each_R_on_the_edge_table():
    tbl, inst = _pair_test_table("edge")
    P = tbl.powers(inst.c)
    Rs = [float(3 * P[k]) for k in (0, 17, 47)] + _test_Rs(tbl, inst, "edge")
    batch = solver.triple_counts(inst, Rs, table=tbl)
    for R, got in zip(Rs, batch):
        assert repr(got) == repr(solver.triple_counts(inst, [R], table=tbl)[0])
        _check_against_brute_force(inst, tbl, R)
    assert sum(t.count for t in batch) > 0


def test_powers_computed_once_per_table(inst_1e5, monkeypatch):
    # one triple_counts call computes the powers once for all its R, and so
    # does one walk over all primes for the R it decides
    calls = []
    powers = PrimeTable.powers
    monkeypatch.setattr(PrimeTable, "powers",
                        lambda self, c: calls.append(c) or powers(self, c))
    tbl = sieve_primes(inst_1e5.X)
    solver.triple_counts(inst_1e5, [1.5e5, 2.1e5], table=tbl, want_records=True)
    assert calls == [inst_1e5.c]
    assert solver.triple_solvable(inst_1e5, [1.5e5, 2.1e5], [0, 0]) == [True, True]
    assert calls == [inst_1e5.c] * 2


def test_numpy_scalar_R_gives_the_same_records(inst_1e5):
    R = 1.5e5
    want = count_B(inst_1e5, R, want_records=True)
    assert want[1] > 0
    assert count_B(inst_1e5, np.float64(R), want_records=True) == want
    assert find_triple(inst_1e5, np.float64(R)) == find_triple(inst_1e5, R)


def test_B1_bounded_by_sharp_count(inst_1e5):
    for R in (1.3e5, 1.5e5, 1.8e5):
        weighted, _, _ = count_B(inst_1e5, R)
        assert weighted_B1(inst_1e5, R) <= weighted + 1e-9


def test_B1_zero_below_support(inst_1e5):
    # smallest attainable sum is 3 X^c; far below it the kernel sees nothing
    floor = 3 * inst_1e5.X ** inst_1e5.c
    assert weighted_B1(inst_1e5, floor - 1.0) == 0.0


def test_B1_equals_B_in_flat_region(inst_1e5):
    # at this R every contributing triple lands in the kernel's flat top
    # (|dev| <= a - b), so the smoothed and sharp weights coincide
    R = 1.5e5
    p = kernel_from_instance(inst_1e5.eps, inst_1e5.X)
    _, _, recs = count_B(inst_1e5, R, want_records=True)
    assert recs and all(r.deviation <= p.a - p.b for r in recs)
    weighted, _, _ = count_B(inst_1e5, R)
    assert weighted_B1(inst_1e5, R) == pytest.approx(weighted, rel=1e-12)


def test_main_term_degenerate_c1_volume_oracle():
    # c = 1: H(R) reduces to X^3 * int phi(3X + Xs - R) f3(s) ds with f3 the
    # Irwin-Hall density of the sum of three uniforms
    inst = ProblemInstance(c=1.0, X=30.0, eps=0.3, k=3)
    p = kernel_from_instance(inst.eps, inst.X)
    R = 135.0
    got = main_term_H(inst, R)

    s = np.linspace(0.0, 3.0, 60001)
    t = np.clip(s, 0, None) ** 2 - 3 * np.clip(s - 1, 0, None) ** 2 \
        + 3 * np.clip(s - 2, 0, None) ** 2
    f3 = 0.5 * t
    phi = phi_eval(p, 3 * 30.0 + 30.0 * s - R)
    want = 30.0 ** 3 * np.trapezoid(f3 * phi, s)
    assert got == pytest.approx(float(want), rel=1e-2)


def test_main_term_validates_k():
    inst = ProblemInstance(c=1.5, X=1000.0, eps=0.1, k=4)
    with pytest.raises(ValueError, match="k must be 3 or 6"):
        main_term_H(inst, 1.5e5)


def test_main_term_scaling_band(inst_1e5):
    # H / (eps * R^{3/c - 1}) stays within a factor of 4 over mid-range R
    N = 1e5
    ratios = []
    for mult in (1.3, 1.5, 1.7, 2.0):
        R = mult * N
        h = main_term_H(inst_1e5, R)
        ratios.append(h / (inst_1e5.eps * R ** (3.0 / inst_1e5.c - 1.0)))
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 4.0


def test_main_term_k6_floor():
    inst = instance_for_theorem2(1e6, 2.05)
    h = main_term_H(inst, 1e6)
    assert h > 0
    assert h >= 4e-3 * inst.eps * inst.X ** (6 - inst.c)


def _fourier_main_term_H(inst: ProblemInstance, Rs: list[float], k: int) -> np.ndarray:
    """Oracle: the singular integral int I^k(x) Phi(x) e(-Rx) dx at each R in
    Fourier space, as 2 Re of a Simpson sum over [0, T].  T doubles until,
    at every R, the analytic tail bound 2a * X^{-k(c-1)} * T^{1-k} / (k-1),
    from |I| <= 1/(|x| X^{c-1}) and |Phi| <= 2a, is below 1e-3 of the
    value (or of the typical magnitude eps * X^(k-c) near the support's
    edge).  Nodes are multiples of a step fixed by the instance, so each
    doubling keeps the I values of the last level and evaluates I at its
    new nodes in one array call."""
    params = kernel_from_instance(inst.eps, inst.X)
    X, c = inst.X, inst.c
    scale_floor = 0.1 * inst.eps * X ** (k - c)
    n_scale = k * (2 * X) ** c
    step = 1.0 / (16.0 * (n_scale + 2.0 * n_scale))
    T = max(64 * step, 4.0 * X ** (-c))
    ivals = np.zeros(0, dtype=complex)

    for _ in range(24):
        n = int(math.ceil(T / step))
        n += n % 2
        ivals = np.concatenate([ivals, integral_I(inst, np.arange(len(ivals), n + 1) * step)])
        xs = np.arange(n + 1) * step
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        weighted = w * (ivals ** k) * phi_fourier(params, xs)
        values = np.array([2.0 * float(np.real(np.sum(weighted * np.exp(-2j * np.pi * R * xs))))
                           * step / 3.0 for R in Rs])
        tail = 2 * params.a * X ** (-k * (c - 1)) * T ** (1 - k) / (k - 1)
        if np.all(tail < 1e-3 * np.maximum(np.abs(values), scale_floor)):
            return values
        T *= 2.0
    raise AssertionError("Fourier oracle: tail criterion unreachable")


def test_main_term_matches_fourier_oracle_k3():
    # mid-range R and both sides of the kink 2A + B of g_3, half a kernel
    # support away, so the support is split there
    N = 1e4
    inst = instance_for_theorem1(N, 1.5)
    p = kernel_from_instance(inst.eps, inst.X)
    kink = 2 * inst.X ** 1.5 + (2 * inst.X) ** 1.5
    Rs = [1.2 * N, 1.5 * N, 1.9 * N, kink - (p.a + p.b) / 2, kink + (p.a + p.b) / 2]
    for R, want in zip(Rs, _fourier_main_term_H(inst, Rs, 3)):
        assert main_term_H(inst, R) == pytest.approx(want, rel=1e-6), R


def test_main_term_matches_fourier_oracle_k6():
    inst = instance_for_theorem2(1e6, 2.05)
    assert main_term_H(inst, 1e6) == pytest.approx(
        _fourier_main_term_H(inst, [1e6], 6)[0], rel=1e-6)


def _g3_c1(X: float, R: float, t: np.ndarray) -> np.ndarray:
    """g_3(R + t) at c = 1: X^2 IH_3(u), u = (R + t - 3X) / X, with IH_3 the
    density of the sum of three uniforms on [0, 1].  u and 3 - u are formed
    from the exact offsets R - 3X and 6X - R, so each end piece keeps its
    relative precision where it is small."""
    u = ((R - 3 * X) + t) / X
    w = ((6 * X - R) - t) / X   # 3 - u
    return X ** 2 * np.select([(u <= 0) | (w <= 0), u <= 1, w <= 1],
                              [0.0, u ** 2 / 2, w ** 2 / 2],
                              (-2 * u ** 2 + 6 * u - 3) / 2)


@pytest.mark.parametrize("X", [30.0, 3e6])
def test_main_term_c1_irwin_hall_closed_form(X):
    # c = 1: g_3(y) = X^2 IH_3((y - 3X) / X).  In the offset t = y - R the
    # integrand phi(t) g_3(R + t) is a polynomial of degree n + 2 between
    # every breakpoint of both factors, so Gauss-Legendre with n/2 + 2 nodes
    # per piece integrates it exactly: at both ends of the support, on both
    # sides of the kink 4X and inside a piece.  At X = 3e6 a float64 ulp of
    # 6X is 1e-7 of the kernel's support.
    inst = ProblemInstance(c=1.0, X=X, eps=0.3, k=3)
    p = kernel_from_instance(inst.eps, X)
    e = p.a + p.b
    steps = [p.a - p.b + 2 * p.h * j for j in range(p.r + 1)]
    x, w = np.polynomial.legendre.leggauss(p.r // 2 + 2)
    for R in (3 * X, 4 * X - e / 2, 4 * X + e / 2, 4.5 * X, 6 * X - e / 2):
        cuts = sorted({sign * v for v in steps for sign in (-1, 1)}
                      | {q * X - R for q in (3, 4, 5, 6) if abs(q * X - R) < e})
        lo, hi = np.array(cuts[:-1])[:, None], np.array(cuts[1:])[:, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        want = np.sum(0.5 * (hi - lo) * w * phi_eval(p, t) * _g3_c1(X, R, t))
        assert main_term_H(inst, R) == pytest.approx(float(want), rel=1e-9), R


def test_main_term_raises_when_levels_disagree(inst_1e5, monkeypatch):
    # four nodes per panel, then eight: g_3's quadrature has not converged
    monkeypatch.setattr(solver, "_NODES", 4)
    with pytest.raises(ConvergenceError, match="main_term_H") as info:
        main_term_H(inst_1e5, 1.5e5)
    assert info.value.routine == "main_term_H" and info.value.error > 1e-10


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("c", [1.0, 1.2, 1.5, 2.05, 2.9])
def test_g2_series_matches_quadrature(c, upper):
    # near 0, on both sides of the kink D and near 2D, measured from either
    # end; z = w/a peaks at v = D, at (2^c - 1)/(2^c + 1) = 0.76 for c = 2.9
    dens = solver._Densities(1000.0, c, solver._NODES, upper)
    D = dens.D
    v = np.array([1e-9 * D, D - 1e-9 * D, D, D + 1e-9 * D, 2 * D - 1e-9 * D])
    got = dens.g2(v)
    assert got == pytest.approx(gauss_g2(dens, v, 400), rel=1e-14)
    assert got == pytest.approx([mpmath_g2(dens, x) for x in v], rel=3e-15)
    assert dens.g2(np.array([0.0, 2 * D])).tolist() == [0.0, 0.0]


def test_g2_series_raises_past_its_term_cap(inst_1e5, monkeypatch):
    # at c = 1.5 the series needs about 20 terms where z is largest
    monkeypatch.setattr(solver, "_SERIES_TERMS", 4)
    with pytest.raises(ConvergenceError, match="main_term_H") as info:
        main_term_H(inst_1e5, 1.5e5)
    assert info.value.error > 2.0 ** -54


def test_g2_series_refuses_c_at_most_one_half():
    # alpha = 1/c - 1 >= 1: the terms no longer shrink by z^2 each
    inst = ProblemInstance(c=0.5, X=1000.0, eps=0.1)
    with pytest.raises(ConvergenceError, match="main_term_H"):
        main_term_H(inst, 3 * inst.X ** 0.5 + 1.0)


def _main_term_grid(inst: ProblemInstance) -> dict[str, list[float]]:
    """R in the interior of the support [kA, kB] of g_k; half a kernel
    support a + b either side of every kink (k - i)A + iB, so the support is
    split there; and 1e-3, 0.5 and 2 kernel supports inside both ends."""
    k = inst.k
    A, B = inst.X ** inst.c, (2 * inst.X) ** inst.c
    p = kernel_from_instance(inst.eps, inst.X)
    e = p.a + p.b
    kinks = [(k - i) * A + i * B for i in range(1, k)]
    return {"interior": [k * A + share * k * (B - A) for share in (0.37, 0.81)],
            "kinks": [q + side * e / 2 for q in kinks for side in (-1, 1)],
            "ends": [R for s in (1e-3, 0.5, 2.0) for R in (k * A + s * e, k * B - s * e)]}


@pytest.mark.parametrize("c", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("N", [1e4, 1e5])   # 5 and 4 nodes on the kernel's support
def test_main_term_matches_the_per_R_oracle_k3(N, c):
    inst = instance_for_theorem1(N, c)
    Rs = [R for part in _main_term_grid(inst).values() for R in part]
    for R, got in zip(Rs, main_term_H(inst, np.array(Rs))):
        assert got == pytest.approx(main_term_per_R(inst, R), rel=1e-12), R


@pytest.mark.parametrize("where", ["ends", "kinks"])
def test_main_term_matches_the_per_R_oracle_k6(where):
    # g_6 vanishes like d^5 at both ends of its support; 7 nodes per piece
    # of the kernel's support there, against the oracle's 10.  Each kink is
    # straddled by one R, on alternating sides (g_6 costs a second apiece
    # near the middle of its support)
    inst = instance_for_theorem2(1e6, 2.05)
    grid = _main_term_grid(inst)
    Rs = (grid["ends"] if where == "ends"
          else grid["interior"][:1] + [grid["kinks"][2 * i + i % 2] for i in range(5)])
    for R, got in zip(Rs, main_term_H(inst, np.array(Rs))):
        assert got == pytest.approx(main_term_per_R(inst, R), rel=1e-12), R


def test_main_term_grid_is_bitwise_each_R_alone():
    inst = instance_for_theorem1(1e4, 1.5)
    Rs = [R for part in _main_term_grid(inst).values() for R in part]
    random.Random(0).shuffle(Rs)
    Rs += [1e3, 3e4 + 1.0]   # below and above the support: H = 0
    alone = [main_term_H(inst, R) for R in Rs]
    assert main_term_H(inst, np.array(Rs)).tolist() == alone
    for chunks in (2, 3, 7):
        split = np.array_split(np.array(Rs), chunks)
        assert [h for part in split for h in main_term_H(inst, part).tolist()] == alone
    assert all(type(h) is float for h in alone)
    assert alone[-2:] == [0.0, 0.0]
    assert main_term_H(inst, np.zeros(0)).shape == (0,)


def test_main_term_raises_below_k_nodes_on_the_kernel_support(monkeypatch):
    # 4 and then 8 nodes per piece two kernel supports inside the lower end
    # of g_6's support, where g_6 behaves like d^5
    inst = instance_for_theorem2(1e6, 2.05)
    p = kernel_from_instance(inst.eps, inst.X)
    monkeypatch.setattr(solver, "_support_nodes", lambda k, e, scale: 4)
    with pytest.raises(ConvergenceError, match="main_term_H") as info:
        main_term_H(inst, 6 * inst.X ** inst.c + 2 * (p.a + p.b))
    assert info.value.error > 1e-10


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_non_finite_R_is_rejected(inst_1e5, R):
    with pytest.raises(ValueError, match=f"R must be finite, got R = {R}"):
        main_term_H(inst_1e5, R)
    with pytest.raises(ValueError, match=f"R must be finite, got R = {R}"):
        main_term_H(inst_1e5, np.array([1.5e5, R]))
    with pytest.raises(ValueError, match=f"R must be finite, got R = {R}"):
        triple_counts(inst_1e5, [1.5e5, R])
    with pytest.raises(ValueError, match=f"R must be finite, got R = {R}"):
        count_B(inst_1e5, R)
    with pytest.raises(ValueError, match=f"R must be finite, got R = {R}"):
        find_triple(inst_1e5, R)


def test_sextuple_degenerate_c1():
    inst = instance_for_theorem2(42.0, 1.0)
    assert inst.X == pytest.approx(4.2)
    res = find_sextuple(inst, 42.0)
    assert res.found and res.feasible
    assert res.range_used == "dyadic"
    assert res.record.primes == (7, 7, 7, 7, 7, 7)
    assert res.record.deviation == pytest.approx(0.0, abs=1e-12)


def test_sextuple_infeasible_dyadic_range_searches_full_table():
    inst = ProblemInstance(c=2.05, X=50.0, eps=0.1, k=6)
    assert not sextuple_feasible(inst, 100.0, sieve_primes(inst.X))
    # no six primes with p^c <= 100 sum to within 0.1 of 100
    res = find_sextuple(inst, 100.0)
    assert res.feasible is False
    assert res.range_used == "full"
    assert not res.found and res.record is None


def test_sextuple_widens_at_desk_scale():
    # the dyadic sum set near N is too sparse; the full-table fallback
    # finds a deterministic representative.  At 2e6 the first triple is
    # not in ascending order: (3^c + 3^c) + 2^c rounds one long-double ulp
    # below (2^c + 3^c) + 3^c
    for N, primes in ((1e6, (3, 3, 7, 263, 541, 607)),
                      (2e6, (3, 3, 2, 199, 1031, 569)),
                      (5e6, (2, 3, 5, 23, 1181, 1447))):
        inst = instance_for_theorem2(N, 2.05)
        res = find_sextuple(inst, N)
        assert res.found and res.feasible
        assert res.range_used == "full"
        assert res.record.primes == primes, N
        assert res.record.deviation < inst.eps
        assert solves(res.record.primes, N, inst.eps, inst.c)


def _ordered_mitm_search(tbl: PrimeTable, c: float, N: float, eps_f: float):
    """Oracle for solver._mitm_search: the search over all n^3 ordered
    triple sums, sorted by (sum, flat index); the smallest position t that
    takes part in a solution wins, then the smallest position u."""
    n = len(tbl)
    sums3, order = sorted_sums(tbl.powers(c), 3)
    target = LONG(N)

    def primes(t, u):
        idx = np.stack(np.unravel_index(order[[t, u]], (n, n, n)), axis=1)
        return tuple(int(p) for p in tbl.primes[idx.ravel()])

    for t, u in window_hits(sums3, target - sums3, LONG(eps_f)):
        hit = np.flatnonzero(decide(sums3[u] + sums3[t] - target, N, eps_f, c,
                                    lambda e: primes(t[e], u[e])))
        if len(hit):
            t, u = t[hit[0]], u[hit[0]]
            value = float(sums3[t] + sums3[u])
            return SolutionRecord(primes(t, u), value, abs(value - N))
    return None


def _assert_same_record(tbl: PrimeTable, c: float, N: float, eps: float):
    want = _ordered_mitm_search(tbl, c, N, eps)
    got = solver._mitm_search(tbl, c, N, eps)
    assert (got is None) == (want is None), (c, N, eps)
    if want is not None:
        assert got == want, (c, N, eps)
        assert solves(want.primes, N, eps, c), (c, N, eps)
    return want


@pytest.mark.parametrize("c, lo, hi", [(2.05, 1e4, 4e5), (2.5, 1e4, 2e6),
                                       (1.5, 1e3, 1.5e4)])
def test_mitm_search_matches_ordered_oracle(c, lo, hi):
    # seeded N over all primes with p^c <= N, at eps = 1/log N and smaller
    # eps, where most N have no solution
    rng = random.Random(41)
    records = []
    for _ in range(24):
        N = 10 ** rng.uniform(math.log10(lo), math.log10(hi))
        eps = rng.choice([1.0, 1e-2, 1e-4]) / math.log(N)
        records.append(_assert_same_record(full_prime_table(N, c), c, N, eps))
    assert any(r is None for r in records)
    assert any(r is not None for r in records)


def test_mitm_search_keeps_unsorted_record():
    # the pinned 2e6 record's first triple is not in ascending order
    inst = instance_for_theorem2(2e6, 2.05)
    rec = _assert_same_record(full_prime_table(2e6, 2.05), 2.05, 2e6, inst.eps)
    assert rec.primes[:3] == (3, 3, 2)


@pytest.mark.parametrize("primes, c, N, eps, solvable", [
    ([2, 3, 19], 2.05, 869.182881853533, 4.514441450311238e-15, False),
    ([3, 13, 29], 1.5, 374.800182662953, 1.2912149780216263e-14, False),
    ([2, 11, 19], 2.05, 1681.316529045391, 6.959804756596191e-14, True),
    ([3, 13, 23], 2.05, 2250.122971658003, 5.4606373202219845e-14, True),
])
def test_mitm_search_decides_the_window_edge_at_40_digits(primes, c, N, eps, solvable):
    # N is the float64 nearest a sum of six of the primes, and eps lies
    # within two float64 ulps of that sum's distance from N: some pair of
    # ordered triple sums lies inside the window in long double and no six
    # primes do at 40 digits, or the reverse
    tbl = _table(primes)
    sums3, _ = sorted_sums(tbl.powers(c), 3)
    assert np.any(np.abs(sums3[:, None] + sums3[None, :] - LONG(N)) < LONG(eps)) != solvable
    assert (_assert_same_record(tbl, c, N, eps) is not None) == solvable


@pytest.mark.parametrize("chunk", [1, 5, 1 << 14])
@pytest.mark.parametrize("start, count, c, N, eps", [
    (4_000_000_000, 12, 2.0, 9.6000000224e19, 8192.0),
    (4_000_000_000, 12, 2.0, 9.600000019999993e19, 1e5),
    (4_200_000_000, 8, 2.05, 3.2048838649363313e20, 1e5),
    (3_100_000_000, 7, 1.5, 1035604173860394.5, 1e5),
])
def test_mitm_search_near_ties_match_ordered_oracle(monkeypatch, chunk, start,
                                                    count, c, N, eps):
    # consecutive integers from 3e9 up: sums round at pair and triple level
    # and many distinct triples tie or nearly tie, so the record comes from
    # a later candidate than the first confirmed one, in the last two cases
    # from a triple whose canonical sum exceeds the first record's ordered
    # sum; chunk = 1 expands one candidate pair at a time, so the record is
    # the least of solutions confirmed in many chunks of one band
    monkeypatch.setattr(solver, "_PERM_CHUNK", chunk)
    assert _assert_same_record(_table(range(start, start + count)), c, N, eps) is not None


def _all_triples(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical triple sum with its flat index, the band of all
    sums, in (sum, flat index) order."""
    sums, flat = triple_band(P, unordered_pairs(P), -np.inf, np.inf)
    order = np.lexsort((flat, sums))
    return sums[order], flat[order]


def _by_flat(sums: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A band's sums and flat indices in order of flat index, whatever the
    order of its base; each sum has one flat index."""
    order = np.argsort(flat)
    return sums[order], flat[order]


def _table(primes) -> PrimeTable:
    """A table of the given integers, prime or not."""
    return PrimeTable(np.array(primes, dtype=np.int64))


@pytest.fixture
def bands(monkeypatch):
    """Every call of solver.triple_band as (lo, hi, sums, flat);
    _mitm_search builds each t-band and then its u-band."""
    calls = []
    build = solver.triple_band

    def recording(powers, pairs, lo, hi):
        sums, flat = build(powers, pairs, lo, hi)
        calls.append((lo, hi, sums, flat))
        return sums, flat

    monkeypatch.setattr(solver, "triple_band", recording)
    return calls


@pytest.mark.parametrize("N", [1e5, 4e5, 1e6])
def test_mitm_search_without_solution_matches_ordered_oracle(N, bands):
    # at eps = 1e-9 no six primes solve, so the sweep runs to its cap
    tbl = full_prime_table(N, 2.05)
    assert _assert_same_record(tbl, 2.05, N, 1e-9) is None
    assert bands[-2][0] <= LONG(N) / 2 < bands[-2][1]


def test_mitm_search_without_solution_at_5e6():
    # the ordered oracle's 22.7M long-double sums take about 1 GB here, so
    # instead every pair of the 3.8M canonical triples within eps + slack of
    # N is expanded into its orderings and tested, with no bands and no cap
    c, N, eps = 2.05, 5e6, 1e-9
    tbl = full_prime_table(N, c)
    P = tbl.powers(c)
    sums, flat = _all_triples(P)
    assert len(sums) == 3_817_670
    slack = count.rounding(sums[-1] + LONG(eps))
    for t, u in window_hits(sums, LONG(N) - sums, LONG(eps) + slack):
        vt, _ = solver._orderings(flat[t], P)
        vu, _ = solver._orderings(flat[u], P)
        assert not np.any(np.abs(vu[:, None, :] + vt[:, :, None] - LONG(N)) < eps)
    assert solver._mitm_search(tbl, c, N, eps) is None


def _sweep_start(sums: np.ndarray, N: float, eps: float):
    """Where _mitm_search's t-sweep starts over the canonical triple sums
    ``sums`` (ascending): max(bottom, N - top - eps - 2 slack)."""
    bottom, top, eps = sums[0], sums[-1], LONG(eps)
    slack = count.rounding(max(abs(bottom), abs(top)) + eps)
    return max(bottom, LONG(N) - top - eps - 2 * slack)


def test_mitm_search_record_in_a_later_band(monkeypatch, bands):
    # the 2.05 near-tie table, with the first band, from the sweep's start,
    # ending at the record's first triple: a solution is confirmed in the
    # first band, and the record's triple, whose canonical sum exceeds that
    # solution's ordered sum, comes from the second band.  N is one float64
    # ulp (2^16) below the near-tie case of the oracle test above, with the
    # same record: there the record's first triple lies 53648 above the
    # sweep's start, inside the narrowest first band (eps + slack), and
    # here 119184 above it
    c, N, eps = 2.05, 3.204883864936331e20, 1e5
    tbl = _table(range(4_200_000_000, 4_200_000_008))
    P, n = tbl.powers(c), len(tbl)
    sums, flat = _all_triples(P)
    want = _ordered_mitm_search(tbl, c, N, eps)
    a, b, d = sorted(np.searchsorted(tbl.primes, want.primes[:3]))
    record_t = (a * n + b) * n + d
    start = _sweep_start(sums, N, eps)
    share = (sums[flat == record_t][0] - start) / (sums[-1] - sums[0])
    monkeypatch.setattr(solver, "_FIRST_BAND", share)
    bands.clear()
    _assert_same_record(tbl, c, N, eps)
    first, second = bands[0][3], bands[2][3]
    assert record_t not in first and record_t in second
    vt, _ = solver._orderings(first, P)
    vu, _ = solver._orderings(flat, P)
    assert np.any(np.abs(vu[:, None, None, :] + vt[None, :, :, None] - LONG(N)) < eps)


def test_mitm_search_starts_where_a_partner_triple_can_exist(bands):
    # c = 1, primes 3, 17, 67: the triple sums run from 9 to 201, and the
    # only solution of N = 224 pairs 3 + 3 + 17 = 23 = N - top with
    # 67 + 67 + 67 = 201, so the record's t sits exactly at N - top, above
    # the smallest sum.  The sweep starts eps + 2 slack below it, and its
    # first band, eps + slack wide, ends just short of it
    rec = _assert_same_record(_table([3, 17, 67]), 1.0, 224.0, 0.5)
    assert rec.primes == (3, 3, 17, 67, 67, 67)
    assert 9 < bands[0][0] <= 23


@pytest.mark.parametrize("share", [solver._FIRST_BAND, 2.0 ** -5])
def test_mitm_search_finds_a_solution_at_the_cap(monkeypatch, bands, share):
    # c = 1, primes 3, 17, 67: the triple sums run from 9 to 201, and the
    # only solution of N = 102 is 17 six times, with v_t = v_u = N/2.  At
    # share 2^-5 the first band is 6 wide and the fourth starts at 51
    monkeypatch.setattr(solver, "_FIRST_BAND", share)
    rec = _assert_same_record(_table([3, 17, 67]), 1.0, 102.0, 0.5)
    assert rec.primes == (17,) * 6
    assert bands[-2][0] <= 51 < bands[-2][1]


@pytest.mark.parametrize("primes, N, share", [([2, 17, 23], 79.0, 2.0 ** -2),
                                               ([3, 13, 17], 92.0, 2.0 ** -2),
                                               ([2, 11, 37], 111.0, 2.0 ** -4)])
def test_mitm_search_u_band_reaches_eps_below(monkeypatch, primes, N, share):
    # c = 1, eps = 2.5: the record's t lies near the top of its band
    # [lo, hi) and its u below N - hi, within eps
    monkeypatch.setattr(solver, "_FIRST_BAND", share)
    assert _assert_same_record(_table(primes), 1.0, N, 2.5) is not None


def test_mitm_search_builds_few_triples(bands):
    # the 5e6 ladder point's record starts with one of the smallest triple
    # sums, so the full-range search forms under 1% of the triples
    tbl = full_prime_table(5e6, 2.05)
    n = len(tbl)
    assert n * (n + 1) * (n + 2) // 6 == 3_817_670
    rec = solver._mitm_search(tbl, 2.05, 5e6, instance_for_theorem2(5e6, 2.05).eps)
    assert rec.primes == (2, 3, 5, 23, 1181, 1447)
    assert sum(len(sums) for _, _, sums, _ in bands) < 0.01 * 3_817_670


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("c, dense", [(2.05, False), (2.0, True), (1.0, True)])
def test_unordered_pair_and_triple_sums(c, dense, k):
    # dense: consecutive integers from 4e9; at c = 2 many sums share a
    # float64 key but not a long-double value, and distinct tuples tie
    # exactly; at c = 1 every sum is exact and shared by many tuples.  The
    # band of all pair sums comes in flat order, which the stable sort of
    # harmonic_V relies on; the band of all triple sums, searched per power
    # over the value-sorted pairs, holds the same sums in another order
    primes = (np.arange(4_000_000_000, 4_000_000_040, dtype=np.int64) if dense
              else full_prime_table(2e5, c).primes)
    P = primes.astype(LONG) ** LONG(c)
    n = len(P)
    flat, sums = [], []
    for idx in itertools.combinations_with_replacement(range(n), k):
        flat.append(sum(q * n ** (k - 1 - m) for m, q in enumerate(idx)))
        sums.append((P[idx[0]] + P[idx[1]]) + (P[idx[2]] if k == 3 else 0))
    sums = np.array(sums, dtype=LONG)
    pairs = unordered_pairs(P)
    band = (_pair_band(P, range(n), -np.inf, np.inf) if k == 2
            else triple_band(P, pairs, -np.inf, np.inf))
    got_sums, got_flat = _by_flat(*band)
    if k == 2:
        assert np.array_equal(band[1], got_flat)
    else:   # the pairs come in ascending order of sum
        assert np.all(pairs[1][1:] >= pairs[1][:-1])
    # the combinations come in flat order
    assert got_flat.dtype == np.int32
    assert np.array_equal(got_sums, sums)
    assert np.array_equal(got_flat, np.array(flat))


@pytest.mark.parametrize("c, dense", [(2.05, False), (2.0, True), (1.0, True)])
def test_triple_band_is_the_full_range_masked(c, dense):
    # the tables of the test above; band ends on sums (ties at both ends),
    # one ulp off sums, below and above every sum, and an empty band
    primes = (np.arange(4_000_000_000, 4_000_000_040, dtype=np.int64) if dense
              else full_prime_table(2e5, c).primes)
    P = primes.astype(LONG) ** LONG(c)
    sums, flat = _all_triples(P)
    m = len(sums)
    up, down = LONG(np.inf), LONG(-np.inf)
    for lo, hi in [(sums[m // 5], sums[m // 2]), (sums[0], sums[-1]),
                   (np.nextafter(sums[m // 4], up), np.nextafter(sums[3 * m // 4], down)),
                   (-np.inf, sums[m // 3]), (sums[2 * m // 3], np.inf),
                   (sums[0] - 1, sums[0]), (sums[m // 2], sums[m // 2])]:
        got_sums, got_flat = _by_flat(*triple_band(P, unordered_pairs(P), lo, hi))
        keep = (sums >= lo) & (sums < hi)
        want_sums, want_flat = _by_flat(sums[keep], flat[keep])
        assert got_flat.dtype == np.int32
        assert np.array_equal(got_sums, want_sums), (lo, hi)
        assert np.array_equal(got_flat, want_flat), (lo, hi)


@pytest.mark.parametrize("block", [1, 5, 600])
def test_triple_band_in_blocks_is_the_band_in_one_block(monkeypatch, block):
    # the per-power search a few powers at a time, or one power (block 1),
    # gives the band of one block (under 40 x 820 candidates), in the same
    # order
    P = np.arange(4_000_000_000, 4_000_000_040, dtype=np.int64).astype(LONG) ** LONG(2.0)
    pairs = unordered_pairs(P)
    sums, _ = _all_triples(P)
    m = len(sums)
    bounds = [(-np.inf, np.inf), (sums[m // 5], sums[m // 2]), (sums[m // 3], sums[m // 3])]
    wholes = [triple_band(P, pairs, lo, hi) for lo, hi in bounds]
    monkeypatch.setattr(count, "_POWER_BLOCK", block)
    for (lo, hi), whole in zip(bounds, wholes):
        parts = triple_band(P, pairs, lo, hi)
        assert parts[1].dtype == np.int32
        assert all(np.array_equal(a, b) for a, b in zip(parts, whole)), (lo, hi)


def test_triple_counts_pair_guard(monkeypatch, inst_1e5):
    # n^2 ordered pairs one past the guard: refused before any candidate walk
    n = len(sieve_primes(inst_1e5.X))
    monkeypatch.setattr(solver, "_PAIR_GUARD", n * n - 1)
    monkeypatch.setattr(solver, "_candidate_walk", None)
    with pytest.raises(GuardError) as info:
        triple_counts(inst_1e5, [1.5e5])
    assert info.value.guard == "pair"
    assert info.value.limit == n * n - 1


def test_mitm_search_triple_guard(monkeypatch):
    # 465^3 > 1e8 triple sums: refused before the triple sums are built
    monkeypatch.setattr(solver, "unordered_pairs", None)
    monkeypatch.setattr(solver, "triple_band", None)
    tbl = full_prime_table(3310.0, 1.0)
    assert len(tbl) == 465
    with pytest.raises(GuardError) as info:
        solver._mitm_search(tbl, 2.05, 1e9, 0.05)
    assert info.value.guard == "triple"
    assert info.value.limit == 10 ** 8


def test_full_prime_table():
    tbl = full_prime_table(100.0, 2.0)
    assert list(tbl.primes) == [2, 3, 5, 7]


@pytest.mark.parametrize("N, c", [(1.0, 2.0), (4.0, 2.0), (100.0, 2.0), (1e4, 1.0),
                                  (1024.0, 1.0), (1025.0, 1.0), (2e7, 1.5),
                                  (5e6, 2.05)])
def test_full_prime_table_is_the_sieve_to_P(N, c):
    P = math.floor(N ** (1.0 / c))
    while (P + 1) ** c <= N:
        P += 1
    tbl = full_prime_table(N, c)
    assert np.array_equal(tbl.primes, sieve_range(2, P))
    assert np.array_equal(tbl.logs, np.log(tbl.primes.astype(float)))


def _solvable_by_brute_force(N: float, c: float, eps: float, Rs: list) -> list:
    """Whether some triple of primes (any size) satisfies the inequality,
    from float64 sums over all ordered triples; no sum may sit within 1e-9
    of a window edge, so float64 decides every comparison exactly."""
    P = math.floor((2 * N + eps) ** (1.0 / c)) + 1
    primes = [p for p in range(2, P + 1) if _is_prime(p)]
    powers = np.array(primes, dtype=float) ** c
    sums = (powers[:, None, None] + powers[None, :, None]
            + powers[None, None, :]).ravel()
    out = []
    for R in Rs:
        dev = np.abs(sums - R)
        assert not np.any(np.abs(dev - eps) < 1e-9)
        out.append(bool(np.any(dev < eps)))
    return out


def _first_triple_by_brute_force(N: float, c: float, eps: float, R: float):
    """The first triple p1 <= p2 <= p3 of primes (any size), in
    lexicographic order, that lies within eps of R at 40 digits, or None:
    the triples within eps + 1e-6 of R in float64, over a grid walked in
    lexicographic order, each decided by mpmath in turn."""
    P = math.floor((2 * N + eps) ** (1.0 / c)) + 1
    primes = [p for p in range(2, P + 1) if _is_prime(p)]
    powers = np.array(primes, dtype=float) ** c
    sums = powers[:, None, None] + powers[None, :, None] + powers[None, None, :]
    for a, b, d in zip(*np.nonzero(np.abs(sums - R) < eps + 1e-6)):
        if a <= b <= d and solves((primes[a], primes[b], primes[d]), R, eps, c):
            return (primes[a], primes[b], primes[d])
    return None


@pytest.mark.parametrize("N", [1e2, 1e3])
def test_find_triple_matches_brute_force(N):
    inst = instance_for_theorem1(N, 1.5)
    assert inst.eps == pytest.approx(1.0 / math.log(N))
    rng = random.Random(17)
    Rs = [N + rng.random() * N for _ in range(150)]
    want = _solvable_by_brute_force(N, inst.c, inst.eps, Rs)
    assert 0 < sum(want) < len(want)    # both answers occur at this scale
    for R, solvable in zip(Rs, want):
        rec = find_triple(inst, R)
        assert (rec is not None) == solvable, R
        first = _first_triple_by_brute_force(N, inst.c, inst.eps, R)
        assert (None if rec is None else rec.primes) == first, R
        if rec is not None:
            assert rec.deviation < inst.eps and solves(rec.primes, R, inst.eps, inst.c)
            assert rec.value == pytest.approx(sum(p ** inst.c for p in first), abs=1e-9)


@pytest.mark.parametrize("c, X, eps", [(1.0, 10.0, 3.5), (1.2, 8.0, 2.5)])
def test_find_triple_is_first_in_lexicographic_order_on_wide_windows(c, X, eps):
    # windows wider than the gaps between the powers give one pair p1, p2
    # several third primes, which the walk meets from the largest down
    inst = ProblemInstance(c=c, X=X, eps=eps, k=3)
    N = 3 * X ** c
    rng = random.Random(3)
    firsts = []
    for R in (N + rng.random() * N for _ in range(40)):
        rec = find_triple(inst, R)
        firsts.append(_first_triple_by_brute_force(N, c, eps, R))
        assert (None if rec is None else rec.primes) == firsts[-1], R
    assert all(firsts)


@pytest.mark.parametrize("p, c, edge", [(2, 1.5, False), (101, 1.5, False),
                                        (7919, 1.5, False), (1009, 1.9, False),
                                        (9973, 1.3, False), (397, 1.5, True),
                                        (3037, 1.5, True), (953, 1.25, True)])
def test_find_triple_on_the_row_bound(monkeypatch, p, c, edge):
    # R = fl(3 p^c): the record (p, p, p) has its first prime on the row
    # bound, 3 p1^c <= R + eps, and the walk ends with p's row.  At
    # eps = 1e-9 the bound has room; on the edge eps is the next float above
    # 3 p^c - R, so the long-double p^c exceeds (R + eps)/3 and only the
    # bound's rounding pad keeps p's row
    R = float(3 * LONG(p) ** LONG(c))
    eps = 1e-9
    if edge:
        with mpmath.workdps(50):
            gap = 3 * mpmath.mpf(p) ** mpmath.mpf(c) - mpmath.mpf(R)
        eps = float(np.nextafter(float(gap), np.inf))
        assert LONG(p) ** LONG(c) > (LONG(R) + LONG(eps)) / 3
    inst = ProblemInstance(c=c, X=10.0, eps=eps, k=3)
    stops = []
    walk = solver._candidate_walk

    def recording(powers, Rs, reach, stop=None, cols=None):
        stops.append(stop)
        return walk(powers, Rs, reach, stop, cols)

    monkeypatch.setattr(solver, "_candidate_walk", recording)
    rec = find_triple(inst, R)
    assert rec.primes == (p, p, p) and solves(rec.primes, R, eps, c)
    tbl = full_prime_table(R + inst.eps, c)
    assert stops == [int(np.searchsorted(tbl.primes, p)) + 1]


@pytest.mark.parametrize("a, b, c, edge", [(2, 3, 1.5, False), (101, 7919, 1.5, False),
                                           (1009, 1013, 1.9, False), (787, 4253, 1.5, True),
                                           (83, 2963, 1.5, True), (7079, 19031, 1.25, True),
                                           (127, 317, 1.9, True)])
def test_find_triple_on_the_column_bound(monkeypatch, a, b, c, edge):
    # R = fl(a^c + 2 b^c): the record (a, b, b) has its second prime on the
    # column bound of a's row, p1^c + 2 p2^c <= R + eps.  At eps = 1e-9 the
    # bound has room; on the edge eps is the next float above
    # a^c + 2 b^c - R, so the long-double b^c exceeds (R + eps - a^c)/2 and
    # only the bound's rounding pad keeps b's column.  One row per chunk
    # makes the column stop of a's row the one its chunk screens
    Pa, Pb = LONG(a) ** LONG(c), LONG(b) ** LONG(c)
    R = float(Pa + 2 * Pb)
    eps = 1e-9
    if edge:
        with mpmath.workdps(50):
            gap = mpmath.mpf(a) ** mpmath.mpf(c) + 2 * mpmath.mpf(b) ** mpmath.mpf(c) - R
        eps = float(np.nextafter(float(gap), np.inf))
        assert Pb > (LONG(R) + LONG(eps) - Pa) / 2
    inst = ProblemInstance(c=c, X=10.0, eps=eps, k=3)
    monkeypatch.setattr(solver, "_SCREEN_ROWS", 1)
    stops = []
    walk = solver._candidate_walk

    def recording(powers, Rs, reach, stop=None, cols=None):
        stops.append(cols)
        return walk(powers, Rs, reach, stop, cols)

    monkeypatch.setattr(solver, "_candidate_walk", recording)
    rec = find_triple(inst, R)
    assert rec.primes == (a, b, b) and solves(rec.primes, R, eps, c)
    primes = list(full_prime_table(R + inst.eps, c).primes)
    assert stops[0][primes.index(a)] == primes.index(b) + 1


@pytest.mark.parametrize("N", [1e2, 1e3, 1e5])
def test_triple_solvable_batch_matches_each_R_alone(N):
    # one walk over all primes decides every R with dyadic count 0 at once;
    # each R's answer, and each record, is the one it gets alone
    inst = instance_for_theorem1(N, 1.5)
    Rs = solver.sample_R(N, 50, 0)
    counts = [t.count for t in solver.triple_counts(inst, Rs)]
    assert 0 < counts.count(0) < len(Rs)
    batch = solver.triple_solvable(inst, Rs, counts)
    assert batch == [solver.triple_solvable(inst, [R], [n])[0]
                     for R, n in zip(Rs, counts)]
    records = solver._first_triples(inst, Rs)
    assert records == [find_triple(inst, R) for R in Rs]
    assert batch == [rec is not None for rec in records]
    if N < 1e4:
        assert 0 < sum(batch) < len(batch)   # both answers occur at this scale
    assert solver.triple_solvable(inst, [], []) == []


def test_every_triple_solver_decides_the_window_edge_at_40_digits():
    # the six orderings of 31, 37, 59 lie 2.8e-17 inside the window in long
    # double, about one long-double ulp of R, and outside it at 40 digits:
    # the dyadic count, the solvability and the search all say no solution
    inst = ProblemInstance(c=1.5, X=30.0, eps=0.24999999999999353, k=3)
    R = 851.1005079930127
    P = np.array([31, 37, 59]).astype(LONG) ** LONG(inst.c)
    for a, b, d in itertools.permutations(range(3)):
        assert abs((P[a] + P[b]) - (LONG(R) - P[d])) < LONG(inst.eps)
    assert not solves((31, 37, 59), R, inst.eps, inst.c)
    assert count_B(inst, R, want_records=True) == (0.0, 0, [])
    assert solver.triple_solvable(inst, [R], [0]) == [False]
    assert find_triple(inst, R) is None


@settings(max_examples=100, deadline=None)
@given(X=st.floats(3.0, 40.0), c=st.floats(1.1, 2.2),
       picks=st.tuples(*[st.integers(0, 99)] * 3),
       offset=st.floats(1e-12, 2.0), side=st.sampled_from([-1.0, 1.0]),
       steps=st.integers(-3, 3), shares=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_triple_solvable_is_find_triple_at_window_edges(X, c, picks, offset, side, steps,
                                                        shares):
    # R lies offset from the power sum of a dyadic triple, and eps is a few
    # float64 ulps from that distance at 40 digits, so the window's edge
    # passes through the triple; more R are drawn from [3 X^c, 6 X^c]
    tbl = sieve_primes(X)
    triple = [int(tbl.primes[k % len(tbl)]) for k in picks]
    with mpmath.workdps(40):
        exact = mpmath.fsum(mpmath.mpf(p) ** mpmath.mpf(c) for p in triple)
        R = float(exact + side * offset)
        eps = float(abs(exact - mpmath.mpf(R)))
    for _ in range(abs(steps)):
        eps = float(np.nextafter(eps, math.copysign(np.inf, steps)))
    assume(eps > 0)
    inst = ProblemInstance(c=c, X=X, eps=eps, k=3)
    Rs = [R] + [3 * X ** c * (1.0 + share) for share in shares]
    counts = [t.count for t in triple_counts(inst, Rs)]
    assert solver.triple_solvable(inst, Rs, counts) == \
        [find_triple(inst, R) is not None for R in Rs]


@pytest.mark.parametrize("N", [1e2, 1e3])
def test_triple_report_solvable_matches_brute_force(N):
    # dyadic count first, find_triple on a miss
    payload = json.loads(reports.triple_regime_report(N=N, samples=40, seed=5))
    rows = payload["rows"]
    want = _solvable_by_brute_force(N, 1.5, payload["config"]["eps"],
                                    [r["R"] for r in rows])
    assert [r["solvable"] for r in rows] == want
    assert 0 < sum(want) < len(want)
    assert all(r["solvable"] for r in rows if r["count"] > 0)
    assert payload["zero_fraction"] == want.count(False) / len(rows)
    assert payload["dyadic_zero_fraction"] == \
        sum(r["count"] == 0 for r in rows) / len(rows)


@pytest.mark.parametrize("N", [1e3, 1e5])
def test_scan_and_triple_report_share_one_sweep(N):
    # at c = 1.2 these N satisfy 3 X^c == N in float64, so the scan, which
    # samples R from (3 X^c, 6 X^c], draws the report's R
    inst = instance_for_theorem1(N, 1.2)
    assert 3.0 * inst.X ** inst.c == N
    scan = exceptional_scan(inst, 20, seed=4)
    payload = json.loads(reports.triple_regime_report(N=N, c=1.2, samples=20, seed=4))
    rows = payload["rows"]
    assert scan["R_values"] == [r["R"] for r in rows]
    assert scan["counts"] == [r["count"] for r in rows]
    assert scan["solvable"] == [r["solvable"] for r in rows]
    for share in ("zero_fraction", "dyadic_zero_fraction"):
        assert scan[share] == payload[share]


def test_sweep_needs_at_least_one_sample(inst_1e5):
    # zero samples used to divide by zero in the report and give 0.0 shares
    # in the scan
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            exceptional_scan(inst_1e5, samples, seed=0)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            reports.triple_regime_report(N=1e5, samples=samples)


def test_scan_deterministic_across_runs_and_workers(inst_1e5):
    one = exceptional_scan(inst_1e5, 40, seed=5)
    again = exceptional_scan(inst_1e5, 40, seed=5)
    assert reports.render_report(one) == reports.render_report(again)
    assert len(one["counts"]) == 40
    assert sum(one["histogram"].values()) == 40


def test_scan_zero_fraction_shrinks_with_scale(inst_1e5):
    small = exceptional_scan(inst_1e5, 200, seed=9)
    large = exceptional_scan(instance_for_theorem1(4e5, 1.5), 200, seed=9)
    assert large["zero_fraction"] <= small["zero_fraction"] + 0.1
    assert large["dyadic_zero_fraction"] <= small["dyadic_zero_fraction"] + 0.1


@pytest.mark.parametrize("N", [1e2, 1e3])
def test_scan_solvable_matches_brute_force(N):
    # zero_fraction is the unsolvable share over all primes, as in the
    # triple-regime report; the dyadic count's zero share is reported apart
    inst = instance_for_theorem1(N, 1.5)
    rep = exceptional_scan(inst, 40, seed=5)
    want = _solvable_by_brute_force(N, inst.c, inst.eps, rep["R_values"])
    assert rep["solvable"] == want
    assert 0 < sum(want) < len(want)
    assert rep["zero_fraction"] == want.count(False) / 40
    assert rep["dyadic_zero_fraction"] == rep["counts"].count(0) / 40
    payload = json.loads(reports.render_report(rep))
    assert payload["schema"] == 1
    assert payload["solvable"] == want
    assert payload["dyadic_zero_fraction"] == rep["dyadic_zero_fraction"]
