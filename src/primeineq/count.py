"""Counting near-diagonal 4-tuples: |n1^c + n2^c - n3^c - n4^c| < gamma.

Both counters apply one comparison policy to the ordered pair sums
n1^c + n2^c, formed in extended precision: the difference d of two pair
sums is tested with the strict predicate |d| < gamma, and every tuple with
||d| - gamma| < delta is additionally reported as boundary-ambiguous.

The fast counter sorts the Y^2 pair sums and, for each p, takes two
window bounds by binary search.  Every q before the inner bound is a sure
hit and cannot be ambiguous, every q from the outer bound on is a sure
miss, and only the few q between the bounds are re-tested with the exact
predicate.  Rounded subtraction is antisymmetric, so only q > p is
searched.  The naive counter is the oracle: it enumerates all Y^4 ordered
tuples over its own unsorted pair sums and shares no code with the fast
path.  The two agree exactly, ambiguity flags included.  The Y-ladder
slope reports built on these counts live in ``reports``.

The ordered sorted-sum index (``sorted_sums``) serves these counters and
is the tests' oracle for the solvers' indexes of unordered sums
(``solver.unordered_sums``).  The window search over a sorted index
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
_HARMONIC_GUARD = 10 ** 9  # Y^4 at most this many pair-sum differences
_HARMONIC_NAIVE_GUARD = 10 ** 8   # Y^4 at most this many Python-level terms
_BLOCK = 1 << 16           # targets per block of a window search
_SLACK_ULPS = 8            # long-double ulps added to every window's reach


def sorted_sums(powers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The n^k sums powers[i_1] + ... + powers[i_k] (formed left to right),
    ascending, with their stable sort order: np.unravel_index(order[m],
    (n,) * k) gives the indices of the m-th smallest sum."""
    sums = powers
    for _ in range(k - 1):
        sums = (sums[:, None] + powers[None, :]).ravel()
    # ordered sums come in exact twins: a float64-key tie fix-up is 12x slower
    order = np.argsort(sums, kind="stable")
    return sums[order], order


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
        yield np.repeat(np.arange(start, start + len(block)), lengths), _runs(lo, lengths)


def _runs(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
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


def _pair_sums(Y: int, c: float) -> np.ndarray:
    """All Y^2 values n1^c + n2^c for n1, n2 in (Y, 2Y], long double, sorted."""
    powers = np.arange(Y + 1, 2 * Y + 1, dtype=np.int64).astype(LONG) ** LONG(c)
    return sorted_sums(powers, 2)[0]


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
    """Count from two window bounds per sorted pair sum; same predicate and
    same result as the naive count.

    Since fl(a - b) = -fl(b - a), the pair (q, p) has the verdicts of
    (p, q), and the diagonal d = 0 is a hit, ambiguous when gamma < delta;
    so only q > p is searched.  With b = delta plus _SLACK_ULPS long-double
    ulps of the largest magnitude involved, every q before the inner bound
    (ps[q] < ps[p] + (gamma - b)) is a hit and not ambiguous, and every q
    past the outer bound (ps[q] > ps[p] + (gamma + b)) is neither, whatever
    the rounding.  Only the q between the two bounds are re-tested, with
    the exact comparison the naive counter uses.
    """
    if s.Y ** 2 > _FAST_GUARD:
        raise GuardError("fast", _FAST_GUARD, f"Y^2 = {s.Y ** 2} pair sums")
    ps = _pair_sums(s.Y, s.c)
    n = len(ps)
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    b = delta + _SLACK_ULPS * np.finfo(LONG).eps * (abs(ps[-1]) + gamma + delta)
    hits = 0        # pairs p < q with |d| < gamma
    ambiguous = 0   # pairs p < q with ||d| - gamma| < delta
    for start in range(0, n, _BLOCK):
        block = ps[start:start + _BLOCK]
        after = np.arange(start + 1, start + 1 + len(block))   # p + 1
        inner = np.searchsorted(ps, block + (gamma - b), side="left")
        outer = np.searchsorted(ps, block + (gamma + b), side="right")
        hits += int(np.maximum(inner - after, 0).sum())
        lo = np.maximum(inner, after)
        lengths = np.maximum(outer - lo, 0)
        if not lengths.any():
            continue
        p = np.repeat(after - 1, lengths)
        d = np.abs(ps[_runs(lo, lengths)] - ps[p])
        hits += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(n + 2 * hits, n * int(gamma < delta) + 2 * ambiguous)


def harmonic_V(s: CountSpec, tau: float) -> tuple[float, np.ndarray]:
    """Sum of 1/|d| over ordered 4-tuples with |d| > 1/tau, d the pair-sum
    difference, accumulated per dyadic bucket (2^k/tau, 2^{k+1}/tau].

    Returns (total, per-bucket vector).  Exact up to float rounding; the
    bucket split mirrors the dyadic decomposition used to bound it.  The
    work is the full Y^4 difference matrix, in chunks.
    """
    if s.Y ** 4 > _HARMONIC_GUARD:
        raise GuardError("harmonic", _HARMONIC_GUARD, f"Y^4 = {s.Y ** 4} differences")
    if tau <= 0:
        raise ValueError("tau must be positive")
    ps = _pair_sums(s.Y, s.c)
    cut = LONG(1.0) / LONG(tau)
    max_d = float(ps[-1] - ps[0])
    if max_d <= float(cut):
        return 0.0, np.zeros(0)
    n_buckets = int(math.floor(math.log2(max_d * tau))) + 1
    buckets = np.zeros(n_buckets)
    step = max(1, (2 ** 22) // max(1, len(ps)))
    for i in range(0, len(ps), step):
        d = np.abs(ps[i:i + step, None] - ps[None, :])
        mask = d > cut
        dv = d[mask].astype(float)
        if dv.size == 0:
            continue
        idx = np.floor(np.log2(dv * tau)).astype(np.int64)
        np.clip(idx, 0, n_buckets - 1, out=idx)
        buckets += np.bincount(idx, weights=1.0 / dv, minlength=n_buckets)
    return float(buckets.sum()), buckets


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

