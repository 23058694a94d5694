"""Direct solvers and counters for the prime-power inequality experiments.

For k = 3 the weighted counting function is

    B(R)  = sum over prime triples with |p1^c + p2^c + p3^c - R| < eps
            of (log p1)(log p2)(log p3),

B1(R) its smoothed companion (kernel weight instead of a sharp window), and
H(R) the singular-integral prediction int I^k(x) Phi(x) e(-Rx) dx, computed
in physical space as int phi(y - R) g_k(y) dy with g_k the density of
t_1^c + ... + t_k^c over [X, 2X]^k.  For k = 6 a meet-in-the-middle search
finds explicit sextuples.

Regime note: triple experiments run at c < 2 (densities are desk-visible
there), sextuple experiments at 2 < c < 26088036/12301745; for c > 2 prime
triples are far too sparse at desk scale for direct counting.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import NamedTuple, Optional

import mpmath
import numpy as np

from ._parallel import det_map
from .count import (run_positions, stable_sorted, unordered_pairs, unordered_sums,
                    window_hits)
from .kernel import KernelParams, kernel_from_instance, phi_eval
from .sums import (_CACHE_SIZE, LONG, ConvergenceError, GuardError, PrimeTable,
                   ProblemInstance, sieve_primes, sieve_range)

_PAIR_GUARD = 10 ** 8


@dataclass(frozen=True)
class SolutionRecord:
    primes: tuple[int, ...]
    value: float
    deviation: float
    ambiguous: bool = False   # set when a 2x-precision recheck flips the window test


@dataclass(frozen=True)
class SextupleSearch:
    found: bool
    feasible: bool
    record: Optional[SolutionRecord] = None
    range_used: str = "dyadic"   # "dyadic" = (X, 2X]; "full" = all p with p^c <= N


def instance_for_theorem1(N: float, c: float, eps: Optional[float] = None,
                          eta: float = 0.05) -> ProblemInstance:
    """Triple experiment at scale X = (N/3)^(1/c); eps defaults to 1/log N."""
    X = (N / 3.0) ** (1.0 / c)
    inst = ProblemInstance(c=c, X=X, eps=eps if eps is not None else 1.0 / math.log(N),
                           k=3, eta=eta)
    if len(sieve_primes(X)) < 2:
        raise ValueError(f"(X, 2X] = ({X}, {2 * X}] holds fewer than 2 primes")
    return inst


def instance_for_theorem2(N: float, c: float, eps: Optional[float] = None,
                          eta: float = 0.05) -> ProblemInstance:
    """Sextuple experiment at scale X = (1/2)(N/5)^(1/c); eps = 1/log N."""
    X = 0.5 * (N / 5.0) ** (1.0 / c)
    inst = ProblemInstance(c=c, X=X, eps=eps if eps is not None else 1.0 / math.log(N),
                           k=6, eta=eta)
    if len(sieve_primes(X)) < 2:
        raise ValueError(f"(X, 2X] = ({X}, {2 * X}] holds fewer than 2 primes")
    return inst


def sextuple_feasible(inst: ProblemInstance, N: float) -> bool:
    """Range check: can six c-th powers of primes in (X, 2X] reach N at all?"""
    table = sieve_primes(inst.X)
    if len(table) == 0:
        return False
    pmin = float(table.primes[0]) ** inst.c
    pmax = float(table.primes[-1]) ** inst.c
    return 6 * pmin - inst.eps < N < 6 * pmax + inst.eps


class PairIndex(NamedTuple):
    """The unordered pair sums of one table at one c (see
    count.unordered_sums), with the powers they were formed from."""

    sums: np.ndarray     # long double, ascending
    flat: np.ndarray     # int32 flat index i n + j, i <= j, of each sum
    powers: np.ndarray   # p^c in long double, in table order


@lru_cache(maxsize=_CACHE_SIZE)
def _pair_index(table: PrimeTable, c: float) -> PairIndex:
    """Sorted pair sums p_i^c + p_j^c over unordered prime pairs i <= j of
    one table object.  The guard still counts all n^2 ordered pairs."""
    n = len(table)
    if n * n > _PAIR_GUARD:
        raise GuardError("pair", _PAIR_GUARD, f"{n}^2 prime pairs")
    powers = table.powers(c)
    return PairIndex(*unordered_sums(powers), powers)


def _triples_near(index: PairIndex, R: float, width):
    """Candidate triples for |(p_i^c + p_j^c) - (R - p_l^c)| < width with
    i <= j, a block at a time (see count.window_hits): index arrays i, j, l
    and the long-double pair sums p_i^c + p_j^c."""
    n = len(index.powers)
    for l, pos in window_hits(index.sums, LONG(R) - index.powers, width):
        i, j = np.divmod(index.flat[pos], n)
        yield i, j, l, index.sums[pos]


def count_B(inst: ProblemInstance, R: float, table: Optional[PrimeTable] = None,
            want_records: bool = False
            ) -> tuple[float, int, Optional[list[SolutionRecord]]]:
    """Sharp-window triple count: (weighted, unweighted, records).

    Ordered triples; one window search looks up all third primes in the
    sorted unordered pair sums, and every candidate is re-tested by the
    strict predicate |value - R| < eps.  Since fl(P_i + P_j) = fl(P_j + P_i),
    a confirmed pair with i < j stands for both of its orderings.  Records
    follow third-prime order, then the order of the ordered pair sums:
    (sum, i n + j).
    """
    if inst.k != 3:
        raise ValueError("count_B needs a k=3 instance")
    tbl = table if table is not None else sieve_primes(inst.X)
    index = _pair_index(tbl, inst.c)
    powers, n = index.powers, len(tbl)
    eps = LONG(inst.eps)
    weighted = 0.0
    unweighted = 0
    records: Optional[list[SolutionRecord]] = [] if want_records else None
    for i, j, l, pair in _triples_near(index, R, eps):
        hit = np.abs(pair - (LONG(R) - powers[l])) < eps
        twin = hit & (i < j)
        i, j = np.concatenate([i[hit], j[twin]]), np.concatenate([j[hit], i[twin]])
        l, pair = np.concatenate([l[hit], l[twin]]), np.concatenate([pair[hit], pair[twin]])
        order = np.lexsort((i * n + j, pair, l))
        i, j, l, pair = i[order], j[order], l[order], pair[order]
        unweighted += len(pair)
        weighted += float(np.sum(tbl.logs[i] * tbl.logs[j] * tbl.logs[l]))
        if records is not None:
            for a, b, d, v in zip(i, j, l, pair + powers[l]):
                primes = (int(tbl.primes[a]), int(tbl.primes[b]), int(tbl.primes[d]))
                records.append(_validated_record(primes, float(v), R, inst.eps, inst.c))
    return weighted, unweighted, records


def _validated_record(primes: tuple[int, ...], value: float, R: float,
                      eps: float, c: float) -> SolutionRecord:
    """Recompute the power sum at twice the working precision; flag the
    record if the window test flips there.  R, eps and c enter as their
    exact binary values, the ones the long-double search used."""
    R, eps, c = float(R), float(eps), float(c)
    with mpmath.workdps(40):
        hv = mpmath.fsum(mpmath.mpf(p) ** mpmath.mpf(c) for p in primes)
        ambiguous = not abs(hv - mpmath.mpf(R)) < mpmath.mpf(eps)
    return SolutionRecord(primes, value, abs(value - R), ambiguous)


def weighted_B1(inst: ProblemInstance, R: float, table: Optional[PrimeTable] = None,
                params: Optional[KernelParams] = None) -> float:
    """Smoothed triple count: kernel weight phi(value - R) instead of the
    sharp window; window of support is |value - R| < a + b."""
    if inst.k != 3:
        raise ValueError("weighted_B1 needs a k=3 instance")
    tbl = table if table is not None else sieve_primes(inst.X)
    p = params if params is not None else kernel_from_instance(inst.eps, inst.X)
    index = _pair_index(tbl, inst.c)
    total = 0.0
    for i, j, l, pair in _triples_near(index, R, LONG(p.a + p.b)):
        phi = phi_eval(p, (pair - (LONG(R) - index.powers[l])).astype(float))
        # a pair i < j stands for both of its orderings
        phi[i < j] *= 2.0
        total += float(np.sum(tbl.logs[i] * tbl.logs[j] * phi * tbl.logs[l]))
    return total


# Gauss-Legendre nodes per panel of g_2, g_3 and g_6 at the first of the two
# levels main_term_H compares; the second doubles every node count.
_NODES = 20
_H_REL_TOL = 1e-10


@cache
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1], read-only; main_term_H
    asks for the same few m at every R."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss(lo, hi, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on each panel [lo, hi],
    along a new trailing axis."""
    x, w = _leggauss(m)
    lo, hi = np.asarray(lo, float)[..., None], np.asarray(hi, float)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (1.0 + x), half * w


class _Densities:
    """g_k for k = 2, 3, 6, the density of t_1^c + ... + t_k^c over
    [X, 2X]^k, at distance d from one end of its support [kA, kB]: from kA,
    or from kB when ``upper``.

    g_1 is f(s) = s^(1/c - 1) / c on [A, B] = [X^c, (2X)^c], the image of dt
    under s = t^c, and g_k is the k-fold convolution of f.  In d, g_k
    vanishes outside [0, kD], D = B - A, and is analytic between its kinks
    at d = iD.  Each convolution is a Gauss-Legendre sum with m nodes per
    panel, exact limits, and panels split at the kinks of its integrand.
    Measuring d from the nearer end keeps panel widths exact where g_k is
    small.
    """

    def __init__(self, X: float, c: float, m: int, upper: bool):
        A, B = X ** c, (2 * X) ** c
        self.end, self.sign = (B, -1.0) if upper else (A, 1.0)
        self.D, self.c, self.m = B - A, c, m
        self.alpha = 1.0 / c - 1.0

    def g2(self, v):
        # f(s) f(s') with s, s' at distances r, v - r from the end is
        # symmetric about r = v/2 on its range [max(0, v - D), min(D, v)],
        # so r = v/2 +- t, 0 <= t <= w
        h = 0.5 * np.asarray(v, float)
        t, wt = _gauss(0.0, np.clip(np.minimum(self.D - h, h), 0.0, None), self.m)
        h = h[..., None]
        end, sign = self.end, self.sign
        prod = (end + sign * (h - t)) * (end + sign * (h + t))
        return 2.0 / self.c ** 2 * np.sum(wt * prod ** self.alpha, axis=-1)

    def g3(self, d):
        # s at distance r from the end, r in [max(0, d - 2D), min(D, d)],
        # split where g_2's argument d - r crosses its kink D
        d = np.asarray(d, float)[..., None]
        lo = np.maximum(0.0, d - 2 * self.D)
        hi = np.maximum(np.minimum(self.D, d), lo)
        mid = np.clip(d - self.D, lo, hi)
        r, wr = _gauss(np.concatenate([lo, mid], -1), np.concatenate([mid, hi], -1),
                       self.m)
        f = (self.end + self.sign * r) ** self.alpha / self.c
        return np.sum(wr * f * self.g2(d[..., None] - r), axis=(-2, -1))

    def g6(self, d: float) -> float:
        # g_3(r) g_3(d - r) is symmetric about r = d/2 on its range
        # [max(0, d - 3D), min(3D, d)]; the lower half is split at the kinks
        # of both factors
        lo, top = max(0.0, d - 3 * self.D), 0.5 * d
        if top <= lo:
            return 0.0
        kinks = [q for i in range(4) for q in (i * self.D, d - i * self.D)]
        cuts = sorted({lo, top, *(q for q in kinks if lo < q < top)})
        r, wr = _gauss(cuts[:-1], cuts[1:], self.m)
        return 2.0 * float(np.sum(wr * self.g3(r) * self.g3(d - r)))

    def smoothed(self, k: int, p: KernelParams, R: float) -> float:
        """int phi(t) g_k(R + t) dt over the kernel's support |t| <= a + b;
        phi is even, so in the offset from either end this is
        int phi(t) g_k(offset + t) dt.

        The support is split at the kinks of g_k.  On each piece g_k, which
        varies on the scale X^c against a support of width 2 eps, is replaced
        by its Legendre interpolant at m/2 Gauss nodes (near the ends of its
        support g_k behaves like a polynomial of degree k - 1).  The kernel
        is a polynomial of degree n between the points +-(a - b + 2hj), and
        the Gauss-Legendre rule on those pieces integrates it against the
        interpolant exactly.
        """
        offset = self.sign * (R - k * self.end)   # R's distance from the end
        e = p.a + p.b
        lo, hi = max(-e, -offset), min(e, k * self.D - offset)
        if hi <= lo:
            return 0.0
        inner = [i * self.D - offset for i in range(1, k)]
        cuts = [lo, *(q for q in inner if lo < q < hi), hi]
        steps = p.a - p.b + 2.0 * p.h * np.arange(p.n_boxes + 1)
        phi_knots = np.concatenate([-steps[::-1], steps])
        m = self.m // 2
        x, w = _leggauss(m)
        scale = np.arange(m) + 0.5
        total = 0.0
        for jlo, jhi in zip(cuts, cuts[1:]):
            mid, half = 0.5 * (jlo + jhi), 0.5 * (jhi - jlo)
            d = offset + mid + half * x
            g = self.g3(d) if k == 3 else np.array([self.g6(v) for v in d])
            coef = scale * (np.polynomial.legendre.legvander(x, m - 1).T @ (w * g))
            edges = [jlo, *phi_knots[(phi_knots > jlo) & (phi_knots < jhi)], jhi]
            t, wt = _gauss(edges[:-1], edges[1:], (p.n_boxes + m) // 2 + 1)
            t, wt = t.ravel(), wt.ravel()
            phi = phi_eval(p, t)
            total += float(np.sum(wt * phi
                                  * np.polynomial.legendre.legval((t - mid) / half, coef)))
        return total


def main_term_H(inst: ProblemInstance, R: float, k: Optional[int] = None) -> float:
    """Singular integral H(R) = int I^k(x) Phi(x) e(-Rx) dx, in physical space.

    By Plancherel H(R) = int phi(y - R) g_k(y) dy, where g_k is the density
    of t_1^c + ... + t_k^c over [X, 2X]^k (whose Fourier transform is I^k).
    g_3 = f * f * f and g_6 = g_3 * g_3 are evaluated by Gauss-Legendre
    with exact limits, split at every kink, and the kernel's support is
    split at the kinks of g_k and of phi (see _Densities).  The whole
    computation is repeated with twice the nodes; ConvergenceError if the
    two differ by more than 1e-10 relative, else the finer value.
    """
    kk = k if k is not None else inst.k
    if kk not in (3, 6):
        raise ValueError("k must be 3 or 6")
    params = kernel_from_instance(inst.eps, inst.X)
    upper = 2 * R > kk * (inst.X ** inst.c + (2 * inst.X) ** inst.c)
    coarse, fine = (_Densities(inst.X, inst.c, m, upper).smoothed(kk, params, R)
                    for m in (_NODES, 2 * _NODES))
    error = abs(fine - coarse)
    if error > _H_REL_TOL * abs(fine):
        raise ConvergenceError("main_term_H", error / abs(fine) if fine else error)
    return fine


# _mitm_search's slack in long-double ulps of max|sum| + eps: an ordering's
# sum lies within 2 of its triple's canonical sum, and the exact test's own
# rounding adds 1 to a pair of triples' 4.  _triple_band widens its bounds
# by as many ulps of the largest sum.
_PERM_ULPS = 8
_PERM_CHUNK = 1 << 14   # candidate pairs of triples expanded at once
_PERMS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
_FIRST_BAND = 2.0 ** -16   # _mitm_search's first band, as a share of the sums' range


def _triple_band(powers: np.ndarray, pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
                 lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The sums (P_i + P_j) + P_l over i <= j <= l, formed left to right,
    that lie in [lo, hi), with the int32 flat index i n^2 + j n + l, in
    stable order (see count.stable_sorted); ``pairs`` is
    unordered_pairs(powers).  The caller keeps n^3 below 2^31.

    Each pair's sums grow with l, so two searchsorted bounds on the powers,
    widened by _PERM_ULPS long-double ulps of the largest sum, give the run
    of l >= j to form; only the sums that lie in [lo, hi) are kept.
    """
    i, j, pair = pairs
    n = len(powers)
    widen = _PERM_ULPS * np.finfo(LONG).eps * 3 * np.abs(powers).max(initial=0)
    first = np.maximum(np.searchsorted(powers, lo - pair - widen), j)
    lengths = np.maximum(np.searchsorted(powers, hi - pair + widen) - first, 0)
    run = np.repeat(np.arange(len(pair)), lengths)
    l = run_positions(first, lengths)
    sums = pair[run] + powers[l]
    flat = ((i * n + j) * n)[run] + l
    del run, l
    keep = (sums >= lo) & (sums < hi)
    sums, flat = sums[keep], flat[keep].astype(np.int32)
    return stable_sorted(sums, flat)


def _orderings(flat: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The six orderings (a, b, d) of each triple, along a new trailing
    axis: their sums (P_a + P_b) + P_d, formed left to right, and their
    flat indices a n^2 + b n + d."""
    n = len(powers)
    idx = np.stack(np.unravel_index(flat, (n, n, n)), axis=-1)[:, _PERMS]
    a, b, d = idx[..., 0], idx[..., 1], idx[..., 2]
    return (powers[a] + powers[b]) + powers[d], (a * n + b) * n + d


def _mitm_search(tbl: PrimeTable, c: float, N: float, eps_f: float
                 ) -> Optional[SolutionRecord]:
    """Meet-in-the-middle over bands of sorted unordered triple sums.

    The record is the one a search over all n^3 ordered triples t, u would
    pick: sort the ordered sums v by (v, flat index) and take the smallest
    t that takes part in any solution |v_u + v_t - N| < eps, then the
    smallest u, with every sum formed left to right.  Only triples
    i <= j <= l are formed, at their canonical sums (P_i + P_j) + P_l,
    with one int32 flat index (n^3 <= 1e8 < 2^31).  An ordering's sum
    differs from its canonical one by a few rounding errors, within
    ``slack``.

    t sweeps ascending bands [lo, lo + w) of canonical sums, w doubling
    from band to band, and each t-band meets the u-band
    [N - lo - w - eps - 2 slack, N - lo + eps + 2 slack], which holds every
    u that can solve with one of its t; both are built by _triple_band.  A
    window search of width eps + slack finds every pair of triples with a
    solution among their orderings; candidates are expanded into their
    6 x 6 ordered pairs and re-tested with the exact predicate.  Once a
    solution with ordered sum v_t is confirmed, triples with canonical sum
    above v_t + slack cannot beat it, so the sweep stops there.  Rounded
    addition commutes, so (u, t) solves whenever (t, u) does and the
    record has v_t <= v_u: no band starting above (N + eps)/2 + 2 slack
    (nor above the largest sum) can hold its t, and the sweep stops there
    when nothing is found.
    """
    n = len(tbl)
    if n ** 3 > _PAIR_GUARD:
        raise GuardError("triple", _PAIR_GUARD, f"{n}^3 triple sums")
    if n == 0:
        return None
    powers = tbl.powers(c)
    pairs = unordered_pairs(powers)
    target, eps = LONG(N), LONG(eps_f)
    bottom = (powers[0] + powers[0]) + powers[0]     # the smallest canonical sum
    top = (powers[-1] + powers[-1]) + powers[-1]     # and the largest
    slack = _PERM_ULPS * np.finfo(LONG).eps * (max(abs(bottom), abs(top)) + eps)
    stop = min(top, (target + eps) / 2 + 2 * slack)
    lo, width = bottom, max(_FIRST_BAND * (top - bottom), eps + slack)
    best = None   # (v_t, flat_t, v_u, flat_u) of the best confirmed solution
    while lo <= stop and (best is None or lo <= best[0] + slack):
        hi = lo + width
        t_sums, t_flat = _triple_band(powers, pairs, lo, hi)
        u_sums, u_flat = _triple_band(powers, pairs, target - hi - eps - 2 * slack,
                                      target - lo + eps + 2 * slack)
        lo, width = hi, 2 * width
        chunks = ((t[k:k + _PERM_CHUNK], u[k:k + _PERM_CHUNK])
                  for t, u in window_hits(u_sums, target - t_sums, eps + slack)
                  for k in range(0, len(t), _PERM_CHUNK))
        for t, u in chunks:
            if best is not None and t_sums[t[0]] > best[0] + slack:
                break
            vt, ft = _orderings(t_flat[t], powers)
            vu, fu = _orderings(u_flat[u], powers)
            m, p, q = np.nonzero(np.abs(vu[:, None, :] + vt[:, :, None] - target) < eps)
            if len(m) == 0:
                continue
            keys = [vt[m, p], ft[m, p], vu[m, q], fu[m, q]]
            if best is not None:
                keys = [np.append(k, b) for k, b in zip(keys, best)]
            first = np.lexsort(keys[::-1])[0]
            best = tuple(k[first] for k in keys)
    if best is None:
        return None
    idx = np.unravel_index(np.array([best[1], best[3]]), (n, n, n))
    primes = tuple(int(p) for p in tbl.primes[np.stack(idx, axis=1).ravel()])
    return _validated_record(primes, float(best[0] + best[2]), N, eps_f, c)


@lru_cache(maxsize=_CACHE_SIZE)
def _primes_to(top: int) -> np.ndarray:
    """The verified primes up to ``top``, read-only: one sieve serves every
    full_prime_table whose bound rounds up to the same power of two."""
    primes = sieve_range(2, top)
    primes.flags.writeable = False
    return primes


def full_prime_table(N: float, c: float) -> PrimeTable:
    """All primes p with p^c <= N, as a table usable by the sextuple search."""
    P = math.floor(N ** (1.0 / c))
    while (P + 1) ** c <= N:
        P += 1
    cached = _primes_to(1 << (max(P, 1) - 1).bit_length())
    primes = cached[:np.searchsorted(cached, P, side="right")]
    return PrimeTable(1.0, primes, np.log(primes.astype(float)))


def find_triple(inst: ProblemInstance, R: float) -> Optional[SolutionRecord]:
    """First prime triple with |p1^c + p2^c + p3^c - R| < eps, over all primes.

    Unlike count_B this has no range restriction: every prime with
    p^c <= R + eps takes part, since each term of a solution lies below
    R + eps.  Triples p1 <= p2 <= p3 are walked in lexicographic order, one
    p1 at a time with a single window search for all p2, so memory stays
    O(n) in the table size.  Candidates are decided by the 40-digit
    recheck, and the first one it confirms is returned; None means no
    triple exists.
    """
    if inst.k != 3:
        raise ValueError("find_triple needs a k=3 instance")
    tbl = full_prime_table(R + inst.eps, inst.c)
    powers = tbl.powers(inst.c)
    target = LONG(R)
    eps = LONG(inst.eps)
    for i in range(len(tbl)):
        # p3 >= p2 needs 2 p2^c < R - p1^c + eps; the bound 2 eps clears rounding
        m = int(np.count_nonzero(2 * powers[i:] <= target - powers[i] + 2 * eps))
        if m == 0:
            break
        # p2 = primes[j] with j = i + t, p3 = primes[k] with k >= j
        for t, k in window_hits(powers, target - powers[i] - powers[i:i + m], eps):
            keep = k >= i + t
            for j, k in zip(i + t[keep], k[keep]):
                primes = (int(tbl.primes[i]), int(tbl.primes[j]), int(tbl.primes[k]))
                value = float(powers[i] + powers[j] + powers[k])
                rec = _validated_record(primes, value, R, inst.eps, inst.c)
                if not rec.ambiguous:
                    return rec
    return None


def triple_solvable(inst: ProblemInstance, R: float, count: int) -> bool:
    """Whether the inequality has a solution in primes of any size at R,
    given the dyadic count of count_B: a positive count decides it,
    otherwise find_triple searches all primes."""
    return count > 0 or find_triple(inst, R) is not None


def find_sextuple(inst: ProblemInstance, N: float,
                  table: Optional[PrimeTable] = None,
                  widen: bool = True) -> SextupleSearch:
    """Search for six primes with |sum p_i^c - N| < eps.

    The dyadic range (X, 2X] of the counting argument is tried first.  At
    desk scale its sum set near N can be too sparse to contain N even when
    the inequality is solvable in unrestricted primes (the statement being
    modeled has no range restriction), so with ``widen=True`` a miss falls
    back to the full table of primes with p^c <= N.

    Both searches sweep bands of unordered prime triple sums upward from
    the smallest, each band against the band of sums that can complete it
    to N, and stop once no later band can hold a better first triple: past
    its canonical sum plus rounding slack, or past (N + eps)/2, since a
    solution's two triples can be swapped.  They form only the triples in
    those bands and return the record a search over all ordered triples
    would: the first triple and then the second in (sum, flat index)
    order, each sum formed left to right, so a triple need not be in
    ascending order (see _mitm_search).
    """
    if inst.k != 6:
        raise ValueError("find_sextuple needs a k=6 instance")
    tbl = table if table is not None else sieve_primes(inst.X)
    feasible = sextuple_feasible(inst, N)
    if feasible:
        rec = _mitm_search(tbl, inst.c, N, inst.eps)
        if rec is not None:
            return SextupleSearch(found=True, feasible=True, record=rec)
    if not widen:
        return SextupleSearch(found=False, feasible=feasible)
    rec = _mitm_search(full_prime_table(N, inst.c), inst.c, N, inst.eps)
    if rec is None:
        return SextupleSearch(found=False, feasible=feasible, range_used="full")
    return SextupleSearch(found=True, feasible=feasible, record=rec,
                          range_used="full")


def sample_R(N: float, samples: int, seed: int) -> list[float]:
    """``samples`` seeded uniform draws of R from (N, 2N]."""
    rng = random.Random(seed)
    return [N + rng.random() * N for _ in range(samples)]


def scan_item(R: float, inst: ProblemInstance) -> tuple[int, bool]:
    """The dyadic triple count of count_B at R, and whether R has a solution
    in primes of any size (triple_solvable)."""
    _, unweighted, _ = count_B(inst, R)
    return unweighted, triple_solvable(inst, R, unweighted)


def instance_config(inst: ProblemInstance) -> dict:
    return {"c": inst.c, "X": inst.X, "eps": inst.eps, "eta": inst.eta,
            "tau": inst.tau, "K": inst.K, "k": inst.k}


def exceptional_scan(inst: ProblemInstance, samples: int, seed: int,
                     workers: int = 1) -> dict:
    """Empirical exceptional-set scan: sample R uniformly from (N, 2N] with
    N = 3 X^c and decide for each R whether it has a solution in primes.

    Returns the scan's payload (see reports.render_report).  ``counts`` are
    the dyadic triple counts of count_B over (X, 2X]^3 and
    ``dyadic_zero_fraction`` is their zero share; ``histogram`` maps each
    count, as a string, to its frequency.  ``solvable`` and
    ``zero_fraction``, the unsolvable share, concern all primes, decided by
    triple_solvable as in the triple-regime report."""
    if inst.k != 3:
        raise ValueError("exceptional_scan needs a k=3 instance")
    Rs = sample_R(3.0 * inst.X ** inst.c, samples, seed)
    sieve_primes(inst.X)  # warm the table before forking workers
    items = det_map(partial(scan_item, inst=inst), Rs, workers)
    counts = [cnt for cnt, _ in items]
    solvable = [ok for _, ok in items]
    return {
        "seed": seed,
        "samples": samples,
        "R_values": Rs,
        "counts": counts,
        "solvable": solvable,
        "zero_fraction": solvable.count(False) / samples if samples else 0.0,
        "dyadic_zero_fraction": counts.count(0) / samples if samples else 0.0,
        "histogram": {str(k): v for k, v in Counter(counts).items()},
        "config": instance_config(inst),
    }
