"""Direct solvers and counters for the prime-power inequality experiments.

For k = 3 the weighted counting function is

    B(R)  = sum over prime triples with |p1^c + p2^c + p3^c - R| < eps
            of (log p1)(log p2)(log p3),

B1(R) its smoothed companion (kernel weight instead of a sharp window), and
H(R) the singular-integral prediction int I^k(x) Phi(x) e(-Rx) dx, computed
in physical space as int phi(y - R) g_k(y) dy with g_k the density of
t_1^c + ... + t_k^c over [X, 2X]^k.  For k = 6 a meet-in-the-middle search
finds explicit sextuples.

Every candidate search is one window search among float64 keys
(count.window_pairs), at the width of the predicate it serves, widened only
by count.window_reach: eps for the sextuple search and for _first_triples,
max(eps, a + b) for the one triple pass that serves both B and B1.  Every
candidate is then decided by the one hit rule, _solves, whose long-double
band is count.rounding of the scale of the sums; the triple walk's float64
screen pads by count.key_rounding.

Regime note: triple experiments run at c < 2 (densities are desk-visible
there), sextuple experiments at 2 < c < 26088036/12301745; for c > 2 prime
triples are far too sparse at desk scale for direct counting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .count import (key_rounding, rounding, triple_band, unordered_pairs, window_pairs,
                    window_reach)
from .kernel import KernelParams, kernel_from_instance, phi_eval
from .sums import (LONG, ConvergenceError, GuardError, PrimeTable,
                   ProblemInstance, leggauss, legvander, sieve_primes, sieve_range)

_PAIR_GUARD = 10 ** 8


@dataclass(frozen=True)
class SolutionRecord:
    """One solution of |p_1^c + ... + p_k^c - R| < eps, as _solves decides
    it: its primes, the power sum ``value`` as its solver formed it in long
    double, rounded to float64, and ``deviation`` = |value - R|."""

    primes: tuple[int, ...]
    value: float
    deviation: float


def _record(primes, value, R) -> SolutionRecord:
    """The record of the solution ``primes``, a sequence of ints, whose
    long-double power sum is ``value``, at R."""
    value = float(value)
    return SolutionRecord(tuple(int(p) for p in primes), value, abs(value - float(R)))


def _solves(gap, scale, R, eps, c: float, primes: np.ndarray, columns) -> np.ndarray:
    """The one hit rule of every solver: whether each candidate k-tuple of
    primes solves |p_1^c + ... + p_k^c - R| < eps, as a bool array.

    ``gap`` is each candidate's power sum less R, in long double and as its
    site forms it, of any shape; R (and ``scale``) is a scalar or an array
    broadcastable to it, and ``columns`` are the k index arrays of the
    candidate's primes into ``primes``, each broadcastable to it.  The band
    is count.rounding(scale).  A candidate with ||gap| - eps| > band is
    decided by |gap| < eps.  One within the band of the edge is decided by
    its power sum formed again at 40 digits from its primes, with R, eps and
    c at their exact binary values: |sum - R| < eps there.  That 40-digit
    test is the rule; long double decides for it wherever the band bounds
    the rounding of ``gap``, since then |gap| and the exact |sum - R| lie on
    the same side of eps.  The 40-digit sum errs by under 10^-39 of itself,
    far below any band.

    Rounding.  With u = 2^-64 the unit roundoff of long double, an ulp of
    x is at most 2u |x| and the band is 16u scale, 8 ulps of the scale.
    Each power P = fl(p^c) lies within one ulp of p^c (glibc's powl; under
    0.87 ulp measured), and each sum or difference rounds by at most u of
    its result.  Only a candidate within eps + band of the edge needs its
    gap's rounding bounded.

    The triple walk (triple_counts, _first_triples) passes |R| + eps for
    its gap (P_i + P_j) - (R - P_l).  Such a candidate has P_i + P_j + P_l
    within eps + band of R, so its powers err by about 2u (|R| + eps) in
    all, the roundings of P_i + P_j and of R - P_l add about u (|R| + eps)
    each, and the last difference u (eps + band): under 5u (|R| + eps), 2.5
    ulps, against the band's 8.  Such an R is at most 3 max P + 2 eps, so
    the band is under 24 ulps of 2 max P + eps, inside the walk's reach
    (window_reach at 2 max P + eps, which widens eps by over 8000 of them):
    every candidate the 40-digit test can accept is listed.

    The sextuple search (_mitm_search) passes T = max(|bottom|, |top|) + eps,
    bottom and top the smallest and largest canonical triple sums, for its
    gap (v_u + v_t) - N of two ordered triple sums, each formed left to
    right.  A triple sum, three powers and two roundings, lies within 2
    ulps of T of its exact power sum, and so the gap, two of those and the
    rounding of their sum and of the difference, within 5 ulps of T of the
    exact gap, against the band's 8.  The canonical sums of a pair the
    40-digit test can accept lie within eps + 4 ulps of N, and the target
    N - v_t rounds by under one more: within eps + 5 ulps, inside the
    search's reach, window_reach(bottom, top, eps), which widens eps by the
    band (and by key_rounding for the float64 keys): every pair of triples
    the 40-digit test can accept is listed.
    """
    size = np.abs(gap)
    hit = size < eps
    edge = np.nonzero(np.abs(size - eps) <= rounding(scale))
    if len(edge[0]):
        import mpmath
        rows = np.stack([primes[np.broadcast_to(col, hit.shape)[edge]] for col in columns],
                        axis=-1).tolist()
        targets = np.broadcast_to(np.asarray(R, dtype=float), hit.shape)[edge].tolist()
        with mpmath.workdps(40):
            c_m, eps_m = mpmath.mpf(float(c)), mpmath.mpf(float(eps))
            hit[edge] = [abs(mpmath.fsum(mpmath.mpf(p) ** c_m for p in row)
                             - mpmath.mpf(target)) < eps_m
                         for row, target in zip(rows, targets)]
    return hit


@dataclass(frozen=True)
class SextupleSearch:
    feasible: bool
    record: Optional[SolutionRecord] = None
    range_used: str = "dyadic"   # "dyadic" = (X, 2X]; "full" = all p with p^c <= N

    @property
    def found(self) -> bool:
        return self.record is not None


def _instance_at(k: int, N: float, c: float, eps: Optional[float],
                 parts: float, scale: float) -> ProblemInstance:
    """The k-prime experiment at scale X = scale * (N/parts)^(1/c), eps
    defaulting to 1/log N; ValueError if eps is left to default and N <= 1,
    if N <= 0, if c = 0 or (N/parts)^(1/c) overflows, or if (X, 2X] holds
    fewer than 2 primes.  Only X < 5.5 is sieved for that:
    pi(x) - pi(x/2) >= 2 for every real x >= 11, the second Ramanujan prime
    (S. Ramanujan, J. Indian Math. Soc. 11 (1919))."""
    if eps is None:
        if not N > 1:
            raise ValueError(f"eps defaults to 1/log N, which needs N > 1, got N = {N}")
        eps = 1.0 / math.log(N)
    if N <= 0:
        raise ValueError(f"N must be positive, got N = {N}")
    if c == 0:
        raise ValueError(f"c must be nonzero, got c = {c}")
    try:
        X = scale * (N / parts) ** (1.0 / c)
    except OverflowError:
        raise ValueError(f"X = {scale} ({N}/{parts})^(1/c) overflows float64 at "
                         f"c = {c}") from None
    inst = ProblemInstance(c=c, X=X, eps=eps, k=k)
    if X < 5.5 and len(sieve_primes(X)) < 2:
        raise ValueError(f"(X, 2X] = ({X}, {2 * X}] holds fewer than 2 primes")
    return inst


def instance_for_theorem1(N: float, c: float, eps: Optional[float] = None
                          ) -> ProblemInstance:
    """Triple experiment at scale X = (N/3)^(1/c), by _instance_at: eps
    defaults to 1/log N, and (X, 2X] is sieved for two primes only at X < 5.5."""
    return _instance_at(3, N, c, eps, 3.0, 1.0)


def instance_for_theorem2(N: float, c: float, eps: Optional[float] = None
                          ) -> ProblemInstance:
    """Sextuple experiment at scale X = (1/2)(N/5)^(1/c), by _instance_at:
    eps defaults to 1/log N, and (X, 2X] is sieved for two primes only at X < 5.5."""
    return _instance_at(6, N, c, eps, 5.0, 0.5)


def sextuple_feasible(inst: ProblemInstance, N: float, table: PrimeTable) -> bool:
    """Range check: can six c-th powers of primes in ``table`` reach N at all?"""
    if len(table) == 0:
        return False
    pmin = float(table.primes[0]) ** inst.c
    pmax = float(table.primes[-1]) ** inst.c
    return 6 * pmin - inst.eps < N < 6 * pmax + inst.eps


def _reach(powers: np.ndarray, width) -> float:
    """count.window_reach for the unordered pair sums P_i + P_j, whose
    smallest and largest are 2 min P and 2 max P, exactly."""
    if len(powers) == 0:   # no sums, no candidates
        return 0.0
    return window_reach(float(2 * powers.min()), float(2 * powers.max()), width)


_SCREEN_ROWS = 32          # rows i of the pair triangle i <= j screened at once
_SCREEN_BUCKETS = 1 << 23  # cap on the buckets (bits) of the screen's occupancy table


def _candidate_walk(powers: np.ndarray, Rs, reach: float, stop: Optional[int] = None,
                    cols: Optional[np.ndarray] = None):
    """Yield, _SCREEN_ROWS rows i < ``stop`` (default all) at a time with i
    ascending, every (r, i, j, l), i <= j, whose key fl(P_i + P_j), the sum
    formed in long double, lies in [fl(t - reach), fl(t + reach)] with
    t = fl(Rs[r] - P_l); as arrays r, i, j, l, in no set order within a
    chunk.  A consumer may stop the walk after any chunk.  ``cols``, a
    non-increasing column stop for each of the n rows (default n), bounds
    the columns: a chunk screens the columns j < cols[i0] of its first row
    i0, so every candidate with j < cols[i] is listed, and some beyond.

    No pair sum is kept.  The m n targets of all R are sorted once with
    their bounds.  Each pair's float64 sum s = fl(fl(P_i) + fl(P_j)) is
    looked up in a table of equal buckets of the range of s that marks every
    bucket a window, widened by ``pad``, meets, one bit per bucket (up to
    1 MiB): a pair is read by its byte first, and only the pairs whose byte
    has any mark are read by their bit.  Only the pairs that pass have their
    long-double sum and key formed and searched among the sorted bounds by
    count.window_pairs.

    With M = max|fl(P)|, u = 2^-53 and e = 2^-64 the unit roundoffs of
    float64 and long double, |s - key| <= 6 u M + 2 e M + O(u^2 M) < 7 u M,
    and the padded bounds, clipped to the range [2 min fl(P), 2 max fl(P)]
    of s, round by under u (2M + pad) < 3 u M: 10 u M in all, 2.5 float64
    ulps of the sums' range 2M.  The pad is count.key_rounding(2M), 4 such
    ulps, so a pair whose key lies in a window always passes; below the
    normal range, where a power rounded to float64 is off by up to half the
    least subnormal, key_rounding's floor, the smallest normal float64,
    covers that too.  The bucket
    of x is (x - base) / width rounded down, monotone in x, and a bucket is
    at least 2 reach wide, so a window meets two or three.
    """
    n = len(powers)
    if n * len(Rs) == 0:
        return
    targets = (np.asarray(Rs, dtype=LONG)[:, None] - powers).astype(float).ravel()
    order = np.argsort(targets)
    lo, hi = targets[order] - reach, targets[order] + reach

    p64 = powers.astype(float)
    M = float(np.abs(p64).max())
    base, top = 2 * float(p64.min()), 2 * float(p64.max())
    pad = key_rounding(2 * M)
    inv = 1.0 / max((top - base) / (_SCREEN_BUCKETS - 1), 2 * reach)

    def bucket(x):
        return ((x - base) * inv).astype(np.intp)

    first = bucket(np.maximum(np.clip(lo, base, top) - pad, base))
    last = bucket(np.minimum(np.clip(hi, base, top) + pad, top))
    # bucket b is bit b & 7 of byte b >> 3
    occupied = np.zeros((int(bucket(np.array(top))) >> 3) + 1, dtype=np.uint8)
    for step in range(int((last - first).max()) + 1):
        b = np.minimum(first + step, last)
        bits = np.left_shift(np.uint8(1), (b & 7).astype(np.uint8))
        np.bitwise_or.at(occupied, b >> 3, bits)

    stop = n if stop is None else stop
    cols = np.full(n, n) if cols is None else cols
    rows = min(_SCREEN_ROWS, n)
    # a chunk screens the columns i0, ..., i0 + w - 1, at least as many as
    # its rows; cols[i0] - i0 falls with i0, so the first chunk is the widest
    size = rows * min(n, max(rows, int(cols[0])))
    s_buf = np.empty(size)
    b_buf = np.empty(size, dtype=np.intp)
    byte_buf = np.empty(size, dtype=np.uint8)
    marked_buf = np.empty(size, dtype=bool)
    for i0 in range(0, stop, rows):
        h, w = min(rows, stop - i0), min(n - i0, max(rows, int(cols[i0]) - i0))
        s = s_buf[:h * w].reshape(h, w)
        np.add(p64[i0:i0 + h, None], p64[i0:i0 + w], out=s)
        np.subtract(s, base, out=s)
        # x / 8 with x = (s - base) inv, exact as 1/8 is a power of two: its
        # floor is the byte b >> 3 of the bucket b = floor(x), and 8 (x / 8)
        # gives back x and so the bit b & 7
        np.multiply(s, 0.125 * inv, out=s)
        b = b_buf[:h * w]
        np.copyto(b, s.ravel(), casting="unsafe")   # rounds down: s >= 0
        byte = byte_buf[:h * w]
        np.take(occupied, b, out=byte, mode="clip")
        flat = np.flatnonzero(np.not_equal(byte, 0, out=marked_buf[:h * w]))
        bit = (s.ravel()[flat] * 8.0).astype(np.intp) & 7
        flat = flat[(byte[flat] >> bit) & 1 == 1]
        row, col = np.divmod(flat, w)
        upper = col >= row   # j >= i
        i, j = row[upper] + i0, col[upper] + i0
        pick, win = window_pairs(lo, hi, (powers[i] + powers[j]).astype(float))
        r, l = np.divmod(order[win], n)
        yield r, i[pick], j[pick], l


def _triple_candidates(powers: np.ndarray, Rs, reach: float
                       ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """For each R, the candidates (i, j, l) of the whole _candidate_walk,
    as arrays i, j, l and the long-double pair sums, in (l, pair sum,
    i n + j) order: by third prime l, then by long-double pair sum
    P_i + P_j, ties by flat index i n + j."""
    found = list(_candidate_walk(powers, Rs, reach))
    r, i, j, l = ([np.concatenate(a) for a in zip(*found)] if found
                  else [np.zeros(0, dtype=np.intp)] * 4)
    pair = powers[i] + powers[j]
    ordered = np.lexsort((i * len(powers) + j, pair, l, r))
    r, i, j, l, pair = r[ordered], i[ordered], j[ordered], l[ordered], pair[ordered]
    cuts = np.searchsorted(r, np.arange(len(Rs) + 1))
    return [(i[a:b], j[a:b], l[a:b], pair[a:b]) for a, b in zip(cuts, cuts[1:])]


def _check_finite(Rs) -> None:
    """ValueError naming the first R of Rs that is not finite, if any."""
    bad = [R for R in np.asarray(Rs, dtype=float).ravel().tolist() if not math.isfinite(R)]
    if bad:
        raise ValueError(f"R must be finite, got R = {bad[0]}")


class TripleCount(NamedTuple):
    """The dyadic triple counts at one R (see triple_counts)."""

    weighted: float   # B(R), ordered triples weighted by (log p1)(log p2)(log p3)
    count: int        # the ordered triples with |value - R| < eps
    records: Optional[list[SolutionRecord]]
    B1: float         # the smoothed count


def triple_counts(inst: ProblemInstance, Rs, table: Optional[PrimeTable] = None,
                  want_records: bool = False) -> list[TripleCount]:
    """The sharp and smoothed triple counts of count_B and weighted_B1 at
    every R, from one candidate pass (_triple_candidates) for all of them.

    The pass is one window search, of width max(eps, a + b).  weighted_B1
    sums its kernel weights over all of its candidates, zeros included, in
    the search's order, so its sum has the same terms in the same order at
    any batch; phi is exactly 0 past a + b, so a wider window adds only
    zeros.  count_B counts the candidates that solve
    |p1^c + p2^c + p3^c - R| < eps by the one rule of _solves: the gap
    (P_i + P_j) - (R - P_l) in long double decides, except within
    rounding(|R| + eps) of the edge, where the 40-digit sum does.  Since
    fl(P_i + P_j) = fl(P_j + P_i), and the 40-digit sum does not depend on
    the order of its primes, a pair with i < j stands for both of its
    orderings.  Records follow third-prime order, then the order of
    the ordered pair sums: (sum, i n + j).  The guard counts all n^2
    ordered pairs.  A non-finite R is a ValueError.
    """
    if inst.k != 3:
        raise ValueError("the triple counters need a k=3 instance")
    _check_finite(Rs)
    tbl = table if table is not None else sieve_primes(inst.X)
    n = len(tbl)
    if n * n > _PAIR_GUARD:
        raise GuardError("pair", _PAIR_GUARD, f"{n}^2 prime pairs")
    powers = tbl.powers(inst.c)
    kernel = kernel_from_instance(inst.eps, inst.X)
    eps = LONG(inst.eps)
    candidates = _triple_candidates(powers, Rs, _reach(powers, max(eps, kernel.a + kernel.b)))
    logs = tbl.logs
    out = []
    for R, (i, j, l, pair) in zip(Rs, candidates):
        offset = pair - (LONG(R) - powers[l])
        phi = phi_eval(kernel, offset.astype(float))
        phi[i < j] *= 2.0
        b1 = float(np.sum(logs[i] * logs[j] * phi * logs[l]))

        hit = _solves(offset, abs(LONG(R)) + eps, R, eps, inst.c, tbl.primes, (i, j, l))
        twin = hit & (i < j)
        a, b = np.concatenate([i[hit], j[twin]]), np.concatenate([j[hit], i[twin]])
        d, v = np.concatenate([l[hit], l[twin]]), np.concatenate([pair[hit], pair[twin]])
        order = np.lexsort((a * n + b, v, d))
        a, b, d, v = a[order], b[order], d[order], v[order]
        weighted = float(np.sum(logs[a] * logs[b] * logs[d]))
        records = None
        if want_records:
            records = [_record(tbl.primes[[x, y, z]], value, R)
                       for x, y, z, value in zip(a, b, d, v + powers[d])]
        out.append(TripleCount(weighted, len(v), records, b1))
    return out


def count_B(inst: ProblemInstance, R: float, table: Optional[PrimeTable] = None,
            want_records: bool = False
            ) -> tuple[float, int, Optional[list[SolutionRecord]]]:
    """Sharp-window triple count at one R: (weighted, unweighted, records)
    over the ordered triples of (X, 2X] that solve |value - R| < eps by the
    rule of _solves; triple_counts over a batch of one."""
    return triple_counts(inst, [R], table, want_records)[0][:3]


def weighted_B1(inst: ProblemInstance, R: float, table: Optional[PrimeTable] = None
                ) -> float:
    """Smoothed triple count at one R: kernel weight phi(value - R)
    instead of the sharp window, over |value - R| < a + b; triple_counts
    over a batch of one."""
    return triple_counts(inst, [R], table)[0].B1


# Gauss-Legendre nodes per panel of g_3 and g_6 at the first of the two
# levels main_term_H compares; the second doubles every node count.
_NODES = 20
_H_REL_TOL = 1e-10
_NODE_BLOCK = 128   # nodes of g_3 evaluated at once: g_2 forms 2m values per node
# g_2's series stops once every term left is below 2^-55, under 2^-54 of its
# sum; 128 terms get there for z <= (2^c - 1)/(2^c + 1) at every c up to 3.7
_SERIES_TERMS = 128
_SERIES_STOP = 2.0 ** -55


def _gauss(lo, hi, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on each panel [lo, hi],
    along a new trailing axis."""
    x, w = leggauss(m)
    lo, hi = np.asarray(lo, float)[..., None], np.asarray(hi, float)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (1.0 + x), half * w


def _kernel_rule(p: KernelParams, lo: float, hi: float, q: int) -> np.ndarray:
    """The weights L_j of the q-point rule sum_j L_j g(mid + half x_j) for
    int_lo^hi phi(t) g(t) dt, with x_j the q Gauss-Legendre nodes and mid,
    half the centre and half-width of [lo, hi]: the integral of phi against
    the Legendre interpolant of g at those nodes.  The kernel is a
    polynomial of degree r between the points +-(a - b + 2hj), and the
    Gauss-Legendre rule on those pieces integrates it against the
    interpolant exactly."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    steps = p.a - p.b + 2.0 * p.h * np.arange(p.r + 1)
    knots = np.concatenate([-steps[::-1], steps])
    edges = [lo, *knots[(knots > lo) & (knots < hi)], hi]
    t, wt = _gauss(edges[:-1], edges[1:], (p.r + q) // 2 + 1)
    t, wt = t.ravel(), wt.ravel()
    moments = legvander((t - mid) / half, q - 1).T @ (wt * phi_eval(p, t))   # int phi P_l
    x, w = leggauss(q)
    return w * (legvander(x, q - 1) @ ((np.arange(q) + 0.5) * moments))


def _support_nodes(k: int, e: float, scale: float) -> int:
    """Nodes per piece of the kernel's support, |t| <= e, at the first level
    of main_term_H; the second takes twice as many.

    Near an end of its support g_k behaves like d^(k-1) times a factor
    analytic on the scale ``scale`` (the distance X^c from the singularity of
    f at 0 to the lower end, or the spacing D of the kinks, if smaller), and
    elsewhere it varies on that scale.  q nodes fit d^(k-1) exactly and
    leave a relative error below about (e / scale)^(q - k + 1) (measured:
    under a hundredth of it), so q is the least count from k + 1 up that
    brings this under _H_REL_TOL, at most _NODES.  That is k + 1 in the
    triple regime from N = 1e5 up and in the sextuple regime from N = 1e6
    up, and more only at toy scale: k + 4 at N = 1e2.
    """
    q = k + 1
    while (e / scale) ** (q - k + 1) > _H_REL_TOL and q < _NODES:
        q += 1
    return q


class _Densities:
    """g_k for k = 2, 3, 6, the density of t_1^c + ... + t_k^c over
    [X, 2X]^k, at distance d from one end of its support [kA, kB]: from kA,
    or from kB when ``upper``.

    g_1 is f(s) = s^(1/c - 1) / c on [A, B] = [X^c, (2X)^c], the image of dt
    under s = t^c, and g_k is the k-fold convolution of f.  In d, g_k
    vanishes outside [0, kD], D = B - A, and is analytic between its kinks
    at d = iD.  g_2 is summed from its series (see g2), exact to its tail
    bound; g_3 = f * g_2 and g_6 = g_3 * g_3 are Gauss-Legendre sums with m
    nodes per panel, exact limits, and panels split at the kinks of their
    integrands.  Measuring d from the nearer end keeps panel widths exact
    where g_k is small.
    """

    def __init__(self, X: float, c: float, m: int, upper: bool):
        A, B = X ** c, (2 * X) ** c
        self.end, self.sign = (B, -1.0) if upper else (A, 1.0)
        self.D, self.c, self.m = B - A, c, m
        self.alpha = 1.0 / c - 1.0

    def g2(self, v):
        """g_2 at every distance v of an array from the end, each value
        independent of the others.

        f(s) f(s') with s, s' at distances v/2 - t, v/2 + t from the end is
        (a^2 - t^2)^alpha / c^2, a = end + sign v/2 and alpha = 1/c - 1, on
        |t| <= w = min(v/2, D - v/2).  Expanding (1 - (t/a)^2)^alpha,

            g_2(v) = (2/c^2) a^(2 alpha) w sum_k T_k / (2k + 1),

        an incomplete-beta series in z = w/a with T_0 = 1 and
        T_k = T_{k-1} (k - 1 - alpha) z^2 / k, summed forward.  z is at most
        (2^c - 1)/(2^c + 1) at v = D (0.48 at c = 1.5, 0.63 at c = 2.12).
        For c > 1/2, |alpha| < 1 and each term is below z^2 times the one
        before in size (for c >= 1 all are positive, so nothing cancels),
        so the terms after any one sum to less than it times z^2/(1 - z^2),
        and |T_k| < z^(2k).  Every sum exceeds 1/2 (for c < 1, z < 1/3 and
        the terms after T_0 take at most 1/24 off).  A term below 2^-54 of
        its sum rounds away in it, and so does every later one: a value
        is its series summed to its own first such term, the same in any
        batch, and the sums stop once z^(2k)/(2k + 1) at the batch's
        largest z is below 2^-55.  ConvergenceError for c <= 1/2, where the
        bound does not hold, or past _SERIES_TERMS terms.
        """
        if self.alpha >= 1.0:
            raise ConvergenceError("main_term_H", math.inf)
        h = 0.5 * np.asarray(v, float)
        w = np.clip(np.minimum(self.D - h, h), 0.0, None)
        a = self.end + self.sign * h
        z2 = (w / a) ** 2
        top = float(z2.max(initial=0.0))
        term, total = np.ones_like(z2), np.ones_like(z2)
        bound = 1.0   # top^k, which exceeds every |T_k|
        for k in range(1, _SERIES_TERMS + 1):
            bound *= top
            if bound / (2 * k + 1) < _SERIES_STOP:
                break
            term *= z2
            term *= (k - 1 - self.alpha) / k
            total += term / (2 * k + 1)
        else:
            raise ConvergenceError("main_term_H", 2.0 * bound / (2 * k + 1) / (1.0 - top))
        return 2.0 / self.c ** 2 * a ** (2 * self.alpha) * w * total

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

    def gk(self, k: int, d: np.ndarray) -> np.ndarray:
        """g_k at every point of the 1-d array d, each value independent of
        the others: g_3 a block of _NODE_BLOCK points at a time, g_6 one
        point at a time."""
        if k == 6:
            return np.array([self.g6(v) for v in d.tolist()])
        return np.concatenate([self.g3(d[i:i + _NODE_BLOCK])
                               for i in range(0, len(d), _NODE_BLOCK)])

    def smoothed(self, k: int, p: KernelParams, Rs: np.ndarray, q: int,
                 uncut: np.ndarray) -> np.ndarray:
        """int phi(t) g_k(R + t) dt over the kernel's support |t| <= a + b at
        every R of the 1-d array Rs; phi is even, so in the offset from
        either end this is int phi(t) g_k(offset + t) dt.

        The support is split at the kinks of g_k, and each piece [lo, hi]
        takes the q-point rule _kernel_rule(p, lo, hi, q), which folds the
        kernel into weights on q nodes of g_k.  ``uncut`` is that rule on the
        whole support, the piece of every R farther than a + b from a kink
        and from both ends; the rule of a cut piece is built for its R.
        g_k is analytic on each piece, and q comes from _support_nodes.
        Every value is bitwise the same in any batch of R.
        """
        e = p.a + p.b
        x = leggauss(q)[0]
        owner, nodes, rules = [], [], []   # one entry per piece
        for r, R in enumerate(Rs.tolist()):
            offset = self.sign * (R - k * self.end)   # R's distance from the end
            lo, hi = max(-e, -offset), min(e, k * self.D - offset)
            if hi <= lo:
                continue
            inner = [i * self.D - offset for i in range(1, k)]
            cuts = [lo, *(v for v in inner if lo < v < hi), hi]
            for jlo, jhi in zip(cuts, cuts[1:]):
                mid, half = 0.5 * (jlo + jhi), 0.5 * (jhi - jlo)
                owner.append(r)
                nodes.append(offset + mid + half * x)
                rules.append(uncut if (jlo, jhi) == (-e, e)
                             else _kernel_rule(p, jlo, jhi, q))
        total = np.zeros(len(Rs))
        if owner:
            g = self.gk(k, np.concatenate(nodes)).reshape(len(owner), q)
            for r, part in zip(owner, np.sum(np.array(rules) * g, axis=-1).tolist()):
                total[r] += part
        return total


def main_term_H(inst: ProblemInstance, R):
    """Singular integral H(R) = int I^k(x) Phi(x) e(-Rx) dx, in physical
    space, with k = inst.k (3 or 6, else ValueError), at one R (gives a
    float) or at every R of a 1-d array (gives an array).  Each value is
    bitwise the same in any batch, so one call per R-grid serves every
    caller; a non-finite R is a ValueError.

    By Plancherel H(R) = int phi(y - R) g_k(y) dy, where g_k is the density
    of t_1^c + ... + t_k^c over [X, 2X]^k (whose Fourier transform is I^k).
    g_2 = f * f is summed from its series, exact to its tail bound (see
    _Densities.g2); g_3 = f * g_2 and g_6 = g_3 * g_3 are evaluated by
    Gauss-Legendre with exact limits, split at every kink, and the kernel's
    support is split at the kinks of g_k.  On each piece the kernel is
    folded into a rule on q nodes of g_k, built once per call for the uncut
    support, with q = k + 1 at the scale of the reports (see _support_nodes
    and _Densities.smoothed).  The whole computation is repeated with twice
    the nodes of g_3, g_6 and the kernel's rule; ConvergenceError if the two
    differ by more than 1e-10 relative at any R, else the finer values.
    """
    k = inst.k
    if k not in (3, 6):
        raise ValueError("k must be 3 or 6")
    Rs = np.asarray(R, dtype=float)
    flat = Rs.ravel()
    _check_finite(flat)
    params = kernel_from_instance(inst.eps, inst.X)
    e = params.a + params.b
    A, B = inst.X ** inst.c, (2 * inst.X) ** inst.c
    upper = 2 * flat > k * (A + B)
    nodes = _support_nodes(k, e, min(A, B - A))
    levels = []
    for m, q in ((_NODES, nodes), (2 * _NODES, 2 * nodes)):
        uncut = _kernel_rule(params, -e, e, q)
        level = np.empty(len(flat))
        for side in (False, True):
            pick = upper == side
            level[pick] = _Densities(inst.X, inst.c, m, side).smoothed(
                k, params, flat[pick], q, uncut)
        levels.append(level)
    coarse, fine = levels
    error = np.abs(fine - coarse)
    bad = np.flatnonzero(error > _H_REL_TOL * np.abs(fine))
    if len(bad):
        i = bad[0]
        raise ConvergenceError("main_term_H",
                               float(error[i] / abs(fine[i]) if fine[i] else error[i]))
    return float(fine[0]) if Rs.ndim == 0 else fine.reshape(Rs.shape)


_PERM_CHUNK = 1 << 14   # candidate pairs of triples expanded at once
_PERMS = np.array([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
_FIRST_BAND = 2.0 ** -16   # _mitm_search's first band, as a share of the sums' range


def _orderings(flat: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The six orderings (a, b, d) of each triple, along a new axis: their
    sums (P_a + P_b) + P_d, formed left to right, and their indices a, b, d
    along a last axis of three."""
    n = len(powers)
    idx = np.stack(np.unravel_index(flat, (n, n, n)), axis=-1)[:, _PERMS]
    return (powers[idx[..., 0]] + powers[idx[..., 1]]) + powers[idx[..., 2]], idx


def _mitm_search(tbl: PrimeTable, c: float, N: float, eps_f: float
                 ) -> Optional[SolutionRecord]:
    """Meet-in-the-middle over bands of unordered triple sums.

    The record is the one a search over all n^3 ordered triples t, u would
    pick: sort the ordered sums v by (v, flat index) and take the smallest
    t that takes part in any solution of |p_1^c + ... + p_6^c - N| < eps,
    then the smallest u, with every sum formed left to right.  _solves
    decides each pair of orderings from its gap (v_u + v_t) - N at the
    scale T = max(|bottom|, |top|) + eps, bottom and top the smallest and
    largest canonical sums, and slack = rounding(T), its band of 8 ulps of
    T (ulps as in _solves, which derives that a triple sum lies within 2
    of them of its exact power sum).  Only triples i <= j <= l are formed,
    at their canonical sums (P_i + P_j) + P_l, with one int32 flat index
    (n^3 <= 1e8 < 2^31).

    t sweeps ascending bands [lo, lo + w) of canonical sums, w doubling
    from band to band.  The sweep starts at max(bottom, N - top - eps -
    2 slack): every u has exact sum below top + 2 ulps, so every solution
    has a t of exact sum above N - top - eps - 2 ulps, and of canonical sum
    above N - top - eps - 4 ulps.  Each t-band meets the u-band
    [N - lo - w - eps - 2 slack, N - lo + eps + 2 slack], which holds every
    u that can solve with one of its t (4 ulps would do); both are built by
    count.triple_band, a search per power over the value-sorted pair sums
    of count.unordered_pairs.  count.window_pairs, from the keys fl(v_u)
    into the windows around fl(N - v_t), both sorted, at
    window_reach(bottom, top, eps), lists every pair of triples with a
    solution among their orderings, whose canonical sums lie within
    eps + 5 ulps of N (see _solves), inside the 8 that window_reach adds;
    each is expanded into its 6 x 6 ordered pairs and decided.  Once a
    solution with ordered sum v_t is confirmed, bands starting above
    v_t + slack cannot beat it.  Rounded addition commutes and the 40-digit
    sum does not depend on the order of its primes, so (u, t) solves
    whenever (t, u) does and the record has v_t <= v_u: no band starting
    above (N + eps)/2 + 2 slack (nor above the largest sum) can hold its t,
    and the sweep stops there when nothing is found.
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
    scale = max(abs(bottom), abs(top)) + eps
    slack = rounding(scale)
    reach = window_reach(bottom, top, eps)
    stop = min(top, (target + eps) / 2 + 2 * slack)
    lo = max(bottom, target - top - eps - 2 * slack)
    width = max(_FIRST_BAND * (top - bottom), eps + slack)
    best = None   # (v_t, flat_t, v_u, flat_u) of the best confirmed solution
    while lo <= stop and (best is None or lo <= best[0] + slack):
        hi = lo + width
        t_sums, t_flat = triple_band(powers, pairs, lo, hi)
        u_sums, u_flat = triple_band(powers, pairs, target - hi - eps - 2 * slack,
                                     target - lo + eps + 2 * slack)
        lo, width = hi, 2 * width
        # _orderings forms the sums again: only their float64 roundings stay
        targets, u_keys = (target - t_sums).astype(float), u_sums.astype(float)
        del t_sums, u_sums
        t_order, u_order = np.argsort(targets), np.argsort(u_keys)
        targets, t_flat = targets[t_order], t_flat[t_order]
        u_keys, u_flat = u_keys[u_order], u_flat[u_order]
        del t_order, u_order
        u, t = window_pairs(targets - reach, targets + reach, u_keys)
        t, u = t_flat[t], u_flat[u]
        for start in range(0, len(t), _PERM_CHUNK):
            vt, it = _orderings(t[start:start + _PERM_CHUNK], powers)
            vu, iu = _orderings(u[start:start + _PERM_CHUNK], powers)
            columns = ([it[:, :, None, x] for x in range(3)]
                       + [iu[:, None, :, x] for x in range(3)])
            m, p, q = np.nonzero(_solves(vu[:, None, :] + vt[:, :, None] - target, scale,
                                         target, eps, c, tbl.primes, columns))
            if len(m) == 0:
                continue
            ft, fu = [(x[..., 0] * n + x[..., 1]) * n + x[..., 2] for x in (it[m, p], iu[m, q])]
            keys = [vt[m, p], ft, vu[m, q], fu]
            if best is not None:
                keys = [np.append(k, b) for k, b in zip(keys, best)]
            first = np.lexsort(keys[::-1])[0]
            best = tuple(k[first] for k in keys)
    if best is None:
        return None
    idx = np.unravel_index(np.array([best[1], best[3]]), (n, n, n))
    return _record(tbl.primes[np.stack(idx, axis=1).ravel()], best[0] + best[2], N)


def full_prime_table(N: float, c: float) -> PrimeTable:
    """All primes p with p^c <= N, as a table usable by the sextuple search."""
    P = math.floor(N ** (1.0 / c))
    while (P + 1) ** c <= N:
        P += 1
    return PrimeTable(sieve_range(2, P))


def _first_triples(inst: ProblemInstance, Rs) -> list[Optional[SolutionRecord]]:
    """For each R, the first prime triple p1 <= p2 <= p3 in lexicographic
    order that solves |p1^c + p2^c + p3^c - R| < eps by the rule of
    _solves, or None where there is none.

    Every prime with p^c <= max R + eps takes part, since each term of a
    solution lies below R + eps, and all R share one table and one
    _candidate_walk at count_B's reach, over the rows i with
    P_i <= bound + rounding(bound), bound = fl(total / 3) and
    total = fl(max R + eps), and in row i the columns j with
    P_j <= half + rounding(half), half = fl(total - P_i) / 2.  Each
    candidate with l >= j is decided as count_B decides it, from its gap
    (P_i + P_j) - (R - P_l) at the scale |R| + eps.  The walk's rows i
    ascend, and each chunk holds every j >= i that can solve and every l
    of its rows, so an R's first solution in (i, j, l) order in the first
    chunk that has one is its record.  The walk stops once every R has
    one.  A non-finite R is a ValueError.

    The stops drop no triple that the 40-digit rule accepts.  Such a
    triple p1 <= p2 <= p3 has exact power sum below R + eps (to 10^-39 of
    itself), so 3 p1^c < E and p1^c + 2 p2^c < E, with E = max R + eps
    exactly.  With u = 2^-64, as in _solves, total lies within u E of E,
    bound within 2u E/3 of E/3 and P_i within 2u p1^c of p1^c, so P_i
    exceeds bound by about 4u bound at most.  The rows walked have P_i <=
    about E/3, so half >= about E/3, and the errors of total (u E <= 3u
    half), of P_i (2u P_i <= 2u half) and of the subtraction (2u half)
    put half within 3.5u half of (E - p1^c)/2; P_j, within 2u P_j of
    p2^c < (E - p1^c)/2, exceeds half by under 6u half.  rounding(x) is
    16u x, which covers both.
    """
    if inst.k != 3:
        raise ValueError("the triple search needs a k=3 instance")
    _check_finite(Rs)
    records = [None] * len(Rs)
    if not records:
        return records
    tbl = full_prime_table(max(Rs) + inst.eps, inst.c)
    powers = tbl.powers(inst.c)
    eps = LONG(inst.eps)
    total = LONG(max(Rs)) + eps
    bound = total / 3
    stop = int(np.searchsorted(powers, bound + rounding(bound), side="right"))
    half = (total - powers) / 2   # the bound on P_j in row i
    cols = np.searchsorted(powers, half + rounding(half), side="right")
    targets = np.asarray(Rs, dtype=LONG)
    open_ = np.ones(len(Rs), dtype=bool)   # the R without a record yet
    for r, i, j, l in _candidate_walk(powers, Rs, _reach(powers, eps), stop, cols):
        keep = (l >= j) & open_[r]
        r, i, j, l = r[keep], i[keep], j[keep], l[keep]
        gap = (powers[i] + powers[j]) - (targets[r] - powers[l])
        hit = _solves(gap, np.abs(targets[r]) + eps, targets[r], eps, inst.c,
                      tbl.primes, (i, j, l))
        r, i, j, l = r[hit], i[hit], j[hit], l[hit]
        order = np.lexsort((l, j, i, r))
        firsts = order[np.unique(r[order], return_index=True)[1]]
        for x, a, b, d in zip(r[firsts], i[firsts], j[firsts], l[firsts]):
            records[x] = _record(tbl.primes[[a, b, d]],
                                 powers[a] + powers[b] + powers[d], Rs[x])
            open_[x] = False
        if not open_.any():
            break
    return records


def find_triple(inst: ProblemInstance, R: float) -> Optional[SolutionRecord]:
    """First prime triple p1 <= p2 <= p3, in lexicographic order, with
    |p1^c + p2^c + p3^c - R| < eps over all primes, decided by the rule of
    _solves that count_B applies; None means no triple exists.  Unlike
    count_B this has no range restriction (see _first_triples)."""
    return _first_triples(inst, [R])[0]


def triple_solvable(inst: ProblemInstance, Rs, counts) -> list[bool]:
    """Whether the inequality has a solution in primes of any size at each
    R, given its dyadic count of count_B: a positive count decides it, and
    the R with count 0 share one walk over all primes (_first_triples).
    Both decide each triple by the rule of _solves, so the answer at each
    R is find_triple(inst, R) is not None."""
    misses = iter(_first_triples(inst, [R for R, n in zip(Rs, counts) if n == 0]))
    return [n > 0 or next(misses) is not None for n in counts]


def find_sextuple(inst: ProblemInstance, N: float) -> SextupleSearch:
    """Search for six primes with |sum p_i^c - N| < eps.

    The dyadic range (X, 2X] of the counting argument is tried first.  At
    desk scale its sum set near N can be too sparse to contain N even when
    the inequality is solvable in unrestricted primes (the statement being
    modeled has no range restriction), so a miss, or an infeasible dyadic
    range, falls back to the full table of primes with p^c <= N.

    Both searches return the record a search over all ordered triples
    would: the first triple and then the second in (sum, flat index)
    order, each sum formed left to right, so a triple need not be in
    ascending order (see _mitm_search).  A record is a solution by the
    rule of _solves: long double decides away from the window's edge, 40
    digits at it.
    """
    if inst.k != 6:
        raise ValueError("find_sextuple needs a k=6 instance")
    table = sieve_primes(inst.X)
    feasible = sextuple_feasible(inst, N, table)
    if feasible:
        rec = _mitm_search(table, inst.c, N, inst.eps)
        if rec is not None:
            return SextupleSearch(feasible=True, record=rec)
    rec = _mitm_search(full_prime_table(N, inst.c), inst.c, N, inst.eps)
    return SextupleSearch(feasible=feasible, record=rec, range_used="full")


def sample_R(N: float, samples: int, seed: int) -> list[float]:
    """``samples`` seeded uniform draws of R from (N, 2N]."""
    rng = random.Random(seed)
    return [N + rng.random() * N for _ in range(samples)]
