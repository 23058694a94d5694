"""Counting near-diagonal 4-tuples: |n1^c + n2^c - n3^c - n4^c| < gamma.

Both counters apply one comparison policy to the pair sums n1^c + n2^c,
formed in extended precision: the difference d of two pair sums is tested
with the strict predicate |d| < gamma, and every tuple with
||d| - gamma| < delta is additionally reported as boundary-ambiguous.

The fast counter works on the sorted unordered pair sums (``unordered_sums``):
the n(n+1)/2 sums over i <= j, each standing for m = 1 (i = j) or m = 2
(i < j) ordered pairs, since fl(P_i + P_j) = fl(P_j + P_i).  For each p it
takes two window bounds by binary search.  Every q before the inner bound
is a sure hit and cannot be ambiguous, every q from the outer bound on is a
sure miss, and only the few q between the bounds are re-tested with the
exact predicate; a pair (p, q) stands for m_p m_q ordered 4-tuples.
Rounded subtraction is antisymmetric, so only q > p is searched.  The naive
counter is the oracle: it enumerates all Y^4 ordered tuples over its own
unsorted pair sums and shares no code with the fast path.  The two agree
exactly, ambiguity flags included.  The Y-ladder slope reports built on
these counts live in ``reports``.

The same index is the triple solvers' pair index (``solver._pair_index``),
and its pair builder and sort (``unordered_pairs``, ``stable_sorted``) also
build the sextuple search's bands of unordered triple sums
(``solver._triple_band``).  The window search over a sorted index
(``window_hits``) serves the triple and sextuple solvers: the triple
counters run it over the unordered prime pair sums, and the sextuple
search (``solver._mitm_search``) from each band of unordered triple sums
into the band of the sums that can complete them to N, widened so that it
reaches every ordering of each triple, and re-tests each ordering with the
exact predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sums import LONG, GuardError

_NAIVE_GUARD = 10 ** 9     # Y^4 at most this many tuples
_NAIVE_CHUNK = 1 << 16     # tuples per chunk of the naive count's buffers
_FAST_GUARD = 10 ** 8      # Y^2 at most this many pair sums in memory
_HARMONIC_GUARD = 10 ** 9  # Y^4 at most this many ordered 4-tuples
_HARMONIC_NAIVE_GUARD = 10 ** 8   # Y^4 at most this many Python-level terms
_BLOCK = 1 << 16           # targets per block of a window search
_SLACK_ULPS = 8            # long-double ulps added to every window's reach


def unordered_pairs(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n(n+1)/2 unordered pairs i <= j, row by row, and their long-double
    sums P_i + P_j."""
    i, j = np.triu_indices(len(powers))
    sums = powers[i]
    sums += powers[j]
    return i, j, sums


def stable_sorted(sums: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sums`` ascending, ties in order of ``flat``, and ``flat`` with them."""
    # sorting float64 keys is 2-3x faster than sorting long doubles, and
    # rounding to float64 is monotone, so only runs of equal keys need
    # ordering by (sum, flat index); unordered sums share a key only where
    # distinct pairs or triples come within a float64 ulp of each other
    key = sums.astype(float)
    order = np.argsort(key)
    key = key[order]
    tie = np.flatnonzero(key[1:] == key[:-1])
    if len(tie):
        pos = np.union1d(tie, tie + 1)
        sub = order[pos]
        order[pos] = sub[np.lexsort((flat[sub], sums[sub], key[pos]))]
    del key
    return sums[order], flat[order]


def unordered_sums(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair index: the n(n+1)/2 sums P_i + P_j over i <= j with the int32
    flat index i n + j, ascending, in stable order: ties follow the flat
    index.  The caller keeps n^2 below 2^31."""
    i, j, sums = unordered_pairs(powers)
    flat = (i * len(powers) + j).astype(np.int32)
    del i, j
    return stable_sorted(sums, flat)


def window_hits(values: np.ndarray, targets: np.ndarray, width: float):
    """Yield candidate index arrays (t, pos), one block of targets at a time.

    ``values`` must be ascending.  Pairs come in (t, pos) order and cover
    every pair with |values[pos] - targets[t]| < width: the search reaches
    _SLACK_ULPS long-double ulps of max|values| + width past the width, so
    rounding never drops a pair.  Near misses come along, so every caller
    re-tests its candidates with its own exact predicate.
    """
    if len(values) == 0:
        return
    width = LONG(width)
    scale = max(abs(LONG(values[0])), abs(LONG(values[-1]))) + width
    reach = width + _SLACK_ULPS * np.finfo(LONG).eps * scale
    for start in range(0, len(targets), _BLOCK):
        block = targets[start:start + _BLOCK]
        lo = np.searchsorted(values, block - reach, side="left")
        lengths = np.searchsorted(values, block + reach, side="right") - lo
        if not lengths.any():
            continue
        t = np.repeat(np.arange(start, start + len(block)), lengths)
        yield t, run_positions(lo, lengths)


def run_positions(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions lo[t], ..., lo[t] + lengths[t] - 1 of every run t,
    concatenated in order of t.  ``lengths`` must be non-negative."""
    run_starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(lo - run_starts, lengths)


@dataclass(frozen=True)
class CountSpec:
    Y: int
    c: float
    gamma: float
    delta: float = 1e-9

    def __post_init__(self):
        if self.Y < 2:
            raise ValueError("Y must be >= 2")
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive and finite")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be non-negative and finite")


@dataclass(frozen=True)
class CountResult:
    count: int
    ambiguous: int


def _pair_multiset(s: CountSpec) -> tuple[np.ndarray, np.ndarray]:
    """The Y^2 ordered pair sums n1^c + n2^c, n1, n2 in (Y, 2Y], as the
    sorted unordered sums (see unordered_sums) and the number m of ordered
    pairs each stands for: 1 for n1 = n2, else 2."""
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(LONG) ** LONG(s.c)
    ps, flat = unordered_sums(powers)
    # i n + j is a multiple of n + 1 iff i = j, since 0 <= j - i < n + 1
    return ps, np.where(flat % (s.Y + 1) == 0, 1, 2)


def count_tuples_naive(s: CountSpec) -> CountResult:
    """Exhaustive count over all Y^4 ordered 4-tuples; the fast counter's
    oracle.

    The pair sums are formed here, unsorted, and every difference of two
    of them is tested, chunk by chunk, in one preallocated long-double
    buffer and one mask.  Nothing is shared with count_tuples_fast.
    """
    if s.Y ** 4 > _NAIVE_GUARD:
        raise GuardError("naive", _NAIVE_GUARD, f"Y^4 = {s.Y ** 4} tuples")
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(LONG) ** LONG(s.c)
    ps = (powers[:, None] + powers[None, :]).ravel()
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    rows = max(1, _NAIVE_CHUNK // len(ps))
    d = np.empty((rows, len(ps)), dtype=LONG)
    mask = np.empty(d.shape, dtype=bool)
    count = 0
    ambiguous = 0
    for i in range(0, len(ps), rows):
        di, mi = d[:len(ps) - i], mask[:len(ps) - i]   # the last chunk may be short
        np.subtract(ps[i:i + rows, None], ps, out=di)
        np.abs(di, out=di)
        count += int(np.count_nonzero(np.less(di, gamma, out=mi)))
        np.subtract(di, gamma, out=di)
        np.abs(di, out=di)
        ambiguous += int(np.count_nonzero(np.less(di, delta, out=mi)))
    return CountResult(count, ambiguous)


def count_tuples_fast(s: CountSpec) -> CountResult:
    """Count from two window bounds per sorted unordered pair sum; same
    predicate and same result as the naive count.

    An unordered sum p stands for m_p ordered pair sums of the same value,
    so a pair (p, q) stands for m_p m_q ordered 4-tuples with the same
    verdicts.  Since fl(a - b) = -fl(b - a), (q, p) has the verdicts of
    (p, q), and the diagonal d = 0 (sum m_p^2 tuples) is a hit, ambiguous
    when gamma < delta; so only q > p is searched.  With b = delta plus
    _SLACK_ULPS long-double ulps of the largest magnitude involved, every q
    before the inner bound (ps[q] < ps[p] + (gamma - b)) is a hit and not
    ambiguous, and every q past the outer bound (ps[q] > ps[p] + (gamma + b))
    is neither, whatever the rounding.  The sure hits of p weigh m_p times a
    prefix sum of m; only the q between the two bounds are re-tested, with
    the exact comparison the naive counter uses.
    """
    if s.Y ** 2 > _FAST_GUARD:
        raise GuardError("fast", _FAST_GUARD, f"Y^2 = {s.Y ** 2} pair sums")
    ps, m = _pair_multiset(s)
    below = np.concatenate([[0], np.cumsum(m)])   # below[q] = m_0 + ... + m_{q-1}
    diagonal = int(np.sum(m * m))
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    b = delta + _SLACK_ULPS * np.finfo(LONG).eps * (abs(ps[-1]) + gamma + delta)
    hits = 0        # ordered tuples of pairs p < q with |d| < gamma
    ambiguous = 0   # ordered tuples of pairs p < q with ||d| - gamma| < delta
    for start in range(0, len(ps), _BLOCK):
        block = ps[start:start + _BLOCK]
        after = np.arange(start + 1, start + 1 + len(block))   # p + 1
        inner = np.searchsorted(ps, block + (gamma - b), side="left")
        outer = np.searchsorted(ps, block + (gamma + b), side="right")
        lo = np.maximum(inner, after)
        hits += int(np.sum(m[start:start + len(block)] * (below[lo] - below[after])))
        lengths = np.maximum(outer - lo, 0)
        if not lengths.any():
            continue
        p = np.repeat(after - 1, lengths)
        q = run_positions(lo, lengths)
        d = np.abs(ps[q] - ps[p])
        weight = m[p] * m[q]
        hits += int(np.sum(weight[d < gamma]))
        ambiguous += int(np.sum(weight[np.abs(d - gamma) < delta]))
    return CountResult(diagonal + 2 * hits, diagonal * int(gamma < delta) + 2 * ambiguous)


def harmonic_V(s: CountSpec, tau: float) -> tuple[float, np.ndarray]:
    """Sum of 1/|d| over ordered 4-tuples with |d| > 1/tau, d the pair-sum
    difference, accumulated per dyadic bucket (2^k/tau, 2^{k+1}/tau].

    Returns (total, per-bucket vector).  Exact up to float rounding; the
    bucket split mirrors the dyadic decomposition used to bound it.  The
    work is the differences d = ps[q] - ps[p] of the sorted unordered pair
    sums over q > p, a chunk of rows p at a time; d <= 0 for q <= p, so
    d > 1/tau picks pairs p < q only.  Each stands for m_p m_q ordered
    4-tuples, and (q, p) for as many more with difference -d.
    """
    if s.Y ** 4 > _HARMONIC_GUARD:
        raise GuardError("harmonic", _HARMONIC_GUARD, f"Y^4 = {s.Y ** 4} differences")
    if tau <= 0:
        raise ValueError("tau must be positive")
    ps, m = _pair_multiset(s)
    cut = LONG(1.0) / LONG(tau)
    max_d = float(ps[-1] - ps[0])
    if max_d <= float(cut):
        return 0.0, np.zeros(0)
    n_buckets = int(_dyadic_bucket(max_d * tau)) + 1
    buckets = np.zeros(n_buckets)
    step = max(1, (2 ** 22) // len(ps))
    for i in range(0, len(ps), step):
        d = ps[None, i + 1:] - ps[i:i + step, None]
        p, q = np.nonzero(d > cut)
        if len(p) == 0:
            continue
        dv = d[p, q].astype(float)
        idx = _dyadic_bucket(dv * tau)
        np.clip(idx, 0, n_buckets - 1, out=idx)
        weight = m[i + p] * m[i + 1 + q] / dv
        buckets += np.bincount(idx, weights=weight, minlength=n_buckets)
    buckets *= 2.0
    return float(buckets.sum()), buckets


def _dyadic_bucket(x):
    """The k with 2^k < x <= 2^(k+1), exactly: x = f 2^e with 1/2 <= f < 1
    lies in bucket e - 1, or in bucket e - 2 when f = 1/2."""
    f, e = np.frexp(x)
    return e - 1 - (f == 0.5)


def harmonic_V_naive(s: CountSpec, tau: float) -> float:
    """O(Y^4) direct summation; oracle for harmonic_V."""
    if s.Y ** 4 > _HARMONIC_NAIVE_GUARD:
        raise GuardError("harmonic-naive", _HARMONIC_NAIVE_GUARD,
                         f"Y^4 = {s.Y ** 4} terms")
    powers = [ (n ** s.c) for n in range(s.Y + 1, 2 * s.Y + 1) ]
    cut = 1.0 / tau
    terms = []
    for a in powers:
        for b in powers:
            for u in powers:
                for v in powers:
                    d = abs(a + b - u - v)
                    if d > cut:
                        terms.append(1.0 / d)
    return math.fsum(terms)

