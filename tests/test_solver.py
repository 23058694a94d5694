"""Tests for the triple/sextuple solvers, the main term, and the scan."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sorted_sums
from primeineq import reports, solver
from primeineq.count import unordered_pairs, unordered_sums, window_hits
from primeineq.kernel import kernel_from_instance, phi_eval, phi_fourier
from primeineq.solver import (count_B, exceptional_scan, find_sextuple,
                              find_triple, full_prime_table,
                              instance_for_theorem1, instance_for_theorem2,
                              main_term_H, sextuple_feasible, weighted_B1)
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
    with pytest.raises(ValueError):
        instance_for_theorem1(3 * 2.1 ** 1.5, 1.5)   # X = 2.1: (2.1, 4.2] = {3}


def test_count_B_degenerate_c1():
    # c = 1, primes in (5, 10] = {7}; only triple 7+7+7 = 21
    inst = ProblemInstance(c=1.0, X=5.0, eps=0.4, k=3)
    weighted, unweighted, recs = count_B(inst, 21.0, want_records=True)
    assert unweighted == 1
    assert weighted == pytest.approx(math.log(7.0) ** 3)
    assert recs[0].primes == (7, 7, 7)
    assert recs[0].deviation == pytest.approx(0.0, abs=1e-12)
    assert not recs[0].ambiguous
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
    shuffled = PrimeTable(inst_1e5.X - 1e-6, tbl.primes[perm], tbl.logs[perm])
    weighted, unweighted, _ = count_B(inst_1e5, R, table=shuffled)
    assert unweighted == base[1]
    assert weighted == pytest.approx(base[0], rel=1e-12)


def test_records_validate_cleanly(inst_1e5):
    _, n, recs = count_B(inst_1e5, 1.5e5, want_records=True)
    assert len(recs) == n
    for rec in recs:
        assert rec.deviation < inst_1e5.eps
        assert not rec.ambiguous
        assert rec.value == pytest.approx(
            sum(p ** inst_1e5.c for p in rec.primes), rel=1e-12)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def _check_against_brute_force(inst: ProblemInstance, tbl: PrimeTable, R: float):
    # long-double deviations (p_i^c + p_j^c) - (R - p_l^c) of every ordered
    # triple, indexed [i, j, l]: the arithmetic count_B re-tests with
    P = tbl.powers(inst.c)
    dev = (P[:, None] + P[None, :])[:, :, None] - (LONG(R) - P)[None, None, :]
    i, j, l = np.nonzero(np.abs(dev) < LONG(inst.eps))
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
_EDGE_TABLE = PrimeTable(60000.0, _EDGE_PRIMES, np.log(_EDGE_PRIMES.astype(float)))
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


def test_count_B_index_follows_the_table_object(inst_1e5):
    # two tables with the same X but different primes must not share an index
    full = sieve_primes(inst_1e5.X)
    half = PrimeTable(full.X, full.primes[::2], full.logs[::2])
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
        hit = np.abs(sums[pos] - (LONG(R) - P[l])) < eps
        l, pos = l[hit], pos[hit]
        i, j = np.unravel_index(order[pos], (n, n))
        weighted += float(np.sum(tbl.logs[i] * tbl.logs[j] * tbl.logs[l]))
        records += [((int(tbl.primes[a]), int(tbl.primes[b]), int(tbl.primes[d])),
                     float(v)) for a, b, d, v in zip(i, j, l, sums[pos] + P[l])]
    return weighted, records


def _pair_test_table(kind: str) -> tuple[PrimeTable, ProblemInstance]:
    if kind == "dense":
        # c = 1 near 4e9: P_i + P_j = 8e9 + i + j exactly, so every sum is
        # shared by many pairs, and R and eps put the window edge on a sum
        primes = np.arange(4_000_000_000, 4_000_000_048, dtype=np.int64)
        inst = ProblemInstance(c=1.0, X=4e9, eps=2.0)
    else:
        # seeded primes in shuffled table order
        rng = np.random.default_rng(int(kind))
        primes = rng.choice(sieve_range(5_000, 40_000), 160, replace=False)
        inst = ProblemInstance(c=1.5, X=5_000.0, eps=0.5)
    return PrimeTable(inst.X, primes, np.log(primes.astype(float))), inst


@pytest.mark.parametrize("kind", ["0", "1", "dense"])
def test_pair_index_against_the_ordered_index(kind):
    tbl, inst = _pair_test_table(kind)
    n = len(tbl)
    P = tbl.powers(inst.c)
    index = solver._pair_index(tbl, inst.c)
    assert np.array_equal(index.powers, P)
    # every pair i < j stands for two ordered pairs with the same sum
    i, j = np.divmod(index.flat, n)
    assert np.all(i <= j)
    twice = np.sort(np.concatenate([index.sums, index.sums[i < j]]))
    assert np.array_equal(twice, sorted_sums(P, 2)[0])
    rng = random.Random(kind)
    Rs = []
    for _ in range(6):
        a, b, d = (rng.randrange(n) for _ in range(3))
        Rs.append(float(P[a] + P[b] + P[d]) + rng.choice([0.0, 0.25, -1.0, 1.75]))
    hits = 0
    for R in Rs:
        weighted, count, recs = count_B(inst, R, table=tbl, want_records=True)
        want_weighted, want = _ordered_count_B(inst, tbl, R)
        assert count == len(want)
        assert [(r.primes, r.value) for r in recs] == want
        assert weighted == want_weighted   # same terms, same order
        hits += count
    assert hits > 0


def test_powers_computed_once_per_table(inst_1e5, monkeypatch):
    calls = []
    powers = PrimeTable.powers
    monkeypatch.setattr(PrimeTable, "powers",
                        lambda self, c: calls.append(c) or powers(self, c))
    full = sieve_primes(inst_1e5.X)
    tbl = PrimeTable(full.X, full.primes, full.logs)
    for R in (1.5e5, 2.1e5):
        count_B(inst_1e5, R, table=tbl, want_records=True)
        weighted_B1(inst_1e5, R, table=tbl)
    assert calls == [inst_1e5.c]


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


def test_main_term_validates_k(inst_1e5):
    with pytest.raises(ValueError):
        main_term_H(inst_1e5, 1.5e5, k=4)


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
    steps = [p.a - p.b + 2 * p.h * j for j in range(p.n_boxes + 1)]
    x, w = np.polynomial.legendre.leggauss(p.n_boxes // 2 + 2)
    for R in (3 * X, 4 * X - e / 2, 4 * X + e / 2, 4.5 * X, 6 * X - e / 2):
        cuts = sorted({sign * v for v in steps for sign in (-1, 1)}
                      | {q * X - R for q in (3, 4, 5, 6) if abs(q * X - R) < e})
        lo, hi = np.array(cuts[:-1])[:, None], np.array(cuts[1:])[:, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        want = np.sum(0.5 * (hi - lo) * w * phi_eval(p, t) * _g3_c1(X, R, t))
        assert main_term_H(inst, R) == pytest.approx(float(want), rel=1e-9), R


def test_main_term_raises_when_levels_disagree(inst_1e5, monkeypatch):
    # four nodes per panel, then eight: g_2's quadrature has not converged
    monkeypatch.setattr(solver, "_NODES", 4)
    with pytest.raises(ConvergenceError, match="main_term_H") as info:
        main_term_H(inst_1e5, 1.5e5)
    assert info.value.routine == "main_term_H" and info.value.error > 1e-10


def test_sextuple_degenerate_c1():
    inst = instance_for_theorem2(42.0, 1.0)
    assert inst.X == pytest.approx(4.2)
    res = find_sextuple(inst, 42.0)
    assert res.found and res.feasible
    assert res.range_used == "dyadic"
    assert res.record.primes == (7, 7, 7, 7, 7, 7)
    assert res.record.deviation == pytest.approx(0.0, abs=1e-12)


def test_sextuple_infeasible_without_widening():
    inst = ProblemInstance(c=2.05, X=50.0, eps=0.1, k=6)
    assert not sextuple_feasible(inst, 100.0)
    res = find_sextuple(inst, 100.0, widen=False)
    assert not res.found and not res.feasible
    assert res.record is None
    assert res.range_used == "dyadic"


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
        assert not res.record.ambiguous


def _ordered_mitm_search(tbl: PrimeTable, c: float, N: float, eps_f: float):
    """Oracle for solver._mitm_search: the search over all n^3 ordered
    triple sums, sorted by (sum, flat index); the smallest position t that
    takes part in a solution wins, then the smallest position u."""
    n = len(tbl)
    sums3, order = sorted_sums(tbl.powers(c), 3)
    target, eps = LONG(N), LONG(eps_f)
    for t, u in window_hits(sums3, target - sums3, eps):
        hit = np.flatnonzero(np.abs(sums3[u] + sums3[t] - target) < eps)
        if len(hit):
            t, u = t[hit[0]], u[hit[0]]
            idx = np.stack(np.unravel_index(order[[t, u]], (n, n, n)), axis=1)
            primes = tuple(int(p) for p in tbl.primes[idx.ravel()])
            return solver._validated_record(primes, float(sums3[t] + sums3[u]),
                                            N, eps_f, c)
    return None


def _assert_same_record(tbl: PrimeTable, c: float, N: float, eps: float):
    want = _ordered_mitm_search(tbl, c, N, eps)
    got = solver._mitm_search(tbl, c, N, eps)
    assert (got is None) == (want is None), (c, N, eps)
    if want is not None:
        assert (got.primes, got.value, got.ambiguous) == \
            (want.primes, want.value, want.ambiguous), (c, N, eps)
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
    # sum; chunk = 1 expands one candidate pair at a time, so the stopping
    # rule decides
    monkeypatch.setattr(solver, "_PERM_CHUNK", chunk)
    assert _assert_same_record(_table(range(start, start + count)), c, N, eps) is not None


def _all_triples(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical triple sum, sorted, with its flat index: the band
    of all sums."""
    return solver._triple_band(P, unordered_pairs(P), -np.inf, np.inf)


def _table(primes) -> PrimeTable:
    """A table of the given integers, prime or not."""
    primes = np.array(primes, dtype=np.int64)
    return PrimeTable(1.0, primes, np.log(primes.astype(float)))


@pytest.fixture
def bands(monkeypatch):
    """Every call of solver._triple_band as (lo, hi, sums, flat);
    _mitm_search builds each t-band and then its u-band."""
    calls = []
    build = solver._triple_band

    def recording(powers, pairs, lo, hi):
        sums, flat = build(powers, pairs, lo, hi)
        calls.append((lo, hi, sums, flat))
        return sums, flat

    monkeypatch.setattr(solver, "_triple_band", recording)
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
    slack = solver._PERM_ULPS * np.finfo(LONG).eps * (sums[-1] + LONG(eps))
    for t, u in window_hits(sums, LONG(N) - sums, LONG(eps) + slack):
        vt, _ = solver._orderings(flat[t], P)
        vu, _ = solver._orderings(flat[u], P)
        assert not np.any(np.abs(vu[:, None, :] + vt[:, :, None] - LONG(N)) < eps)
    assert solver._mitm_search(tbl, c, N, eps) is None


def test_mitm_search_record_in_a_later_band(monkeypatch, bands):
    # the 2.05 near-tie table, with the first band ending at the record's
    # first triple: a solution is confirmed in the first band, and the
    # record's triple, whose canonical sum exceeds that solution's ordered
    # sum, comes from the second band
    c, N, eps = 2.05, 3.2048838649363313e20, 1e5
    tbl = _table(range(4_200_000_000, 4_200_000_008))
    P, n = tbl.powers(c), len(tbl)
    sums, flat = _all_triples(P)
    want = _ordered_mitm_search(tbl, c, N, eps)
    a, b, d = sorted(np.searchsorted(tbl.primes, want.primes[:3]))
    record_t = (a * n + b) * n + d
    share = (sums[flat == record_t][0] - sums[0]) / (sums[-1] - sums[0])
    monkeypatch.setattr(solver, "_FIRST_BAND", share)
    bands.clear()
    _assert_same_record(tbl, c, N, eps)
    first, second = bands[0][3], bands[2][3]
    assert record_t not in first and record_t in second
    vt, _ = solver._orderings(first, P)
    vu, _ = solver._orderings(flat, P)
    assert np.any(np.abs(vu[:, None, None, :] + vt[None, :, :, None] - LONG(N)) < eps)


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
def test_unordered_triple_sums_in_stable_long_double_order(c, dense, k):
    # dense: consecutive integers from 4e9; at c = 2 many sums share a
    # float64 key but not a long-double value, and distinct tuples tie
    # exactly; at c = 1 every sum is exact and shared by many tuples
    primes = (np.arange(4_000_000_000, 4_000_000_040, dtype=np.int64) if dense
              else full_prime_table(2e5, c).primes)
    P = primes.astype(LONG) ** LONG(c)
    n = len(P)
    flat, sums = [], []
    for idx in itertools.combinations_with_replacement(range(n), k):
        flat.append(sum(q * n ** (k - 1 - m) for m, q in enumerate(idx)))
        sums.append((P[idx[0]] + P[idx[1]]) + (P[idx[2]] if k == 3 else 0))
    sums = np.array(sums, dtype=LONG)
    order = np.argsort(sums, kind="stable")
    got_sums, got_flat = unordered_sums(P) if k == 2 else _all_triples(P)
    assert got_flat.dtype == np.int32
    assert np.array_equal(got_sums, sums[order])
    assert np.array_equal(got_flat, np.array(flat)[order])


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
        got_sums, got_flat = solver._triple_band(P, unordered_pairs(P), lo, hi)
        keep = (sums >= lo) & (sums < hi)
        assert got_flat.dtype == np.int32
        assert np.array_equal(got_sums, sums[keep]), (lo, hi)
        assert np.array_equal(got_flat, flat[keep]), (lo, hi)


def test_mitm_search_triple_guard(monkeypatch):
    # 465^3 > 1e8 triple sums: refused before the triple sums are built
    monkeypatch.setattr(solver, "unordered_pairs", None)
    monkeypatch.setattr(solver, "_triple_band", None)
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
def test_full_prime_table_slices_one_cached_sieve(N, c):
    P = math.floor(N ** (1.0 / c))
    while (P + 1) ** c <= N:
        P += 1
    tbl = full_prime_table(N, c)
    assert np.array_equal(tbl.primes, sieve_range(2, P))
    assert np.array_equal(tbl.logs, np.log(tbl.primes.astype(float)))
    # the cached sieve reaches the next power of two and is shared
    top = 1 << (max(P, 1) - 1).bit_length()
    assert full_prime_table(float(top) ** c, c).primes.base is tbl.primes.base
    assert not tbl.primes.flags.writeable


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
        if rec is not None:
            assert rec.deviation < inst.eps and not rec.ambiguous
            assert list(rec.primes) == sorted(rec.primes)
            assert all(_is_prime(p) for p in rec.primes)


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


def test_scan_deterministic_across_runs_and_workers(inst_1e5):
    one = exceptional_scan(inst_1e5, 40, seed=5, workers=1)
    again = exceptional_scan(inst_1e5, 40, seed=5, workers=1)
    multi = exceptional_scan(inst_1e5, 40, seed=5, workers=2)
    assert (reports.render_report(one) == reports.render_report(again)
            == reports.render_report(multi))
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
