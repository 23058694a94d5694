"""Counting near-diagonal 4-tuples: |n1^c + n2^c - n3^c - n4^c| < gamma.

Two counters share one comparison policy: differences of pair sums are
formed in extended precision and tested with the strict predicate
|d| < gamma, and every tuple with ||d| - gamma| < delta is additionally
reported as boundary-ambiguous.  The naive counter enumerates all ordered
4-tuples; the fast counter sorts the Y^2 pair sums and sweeps windows, but
re-tests every candidate with the identical predicate, so the two agree
exactly, ambiguity flags included.  The Y-ladder slope reports built on
these counts live in ``reports``.

The sorted-sum index (``sorted_sums``) also serves the triple solvers'
pair sums.  The window search over a sorted index (``window_hits``) is
shared with the triple and sextuple solvers; the sextuple search runs it
over its own index of unordered triple sums (``solver._mitm_search``),
widened so that it reaches every ordering of each triple, and re-tests
each ordering with the exact predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sums import LONG, GuardError

_NAIVE_GUARD = 10 ** 9     # Y^4 at most this many tuples
_FAST_GUARD = 10 ** 8      # Y^2 at most this many pair sums in memory
_HARMONIC_GUARD = 10 ** 9  # Y^4 at most this many pair-sum differences
_HARMONIC_NAIVE_GUARD = 10 ** 8   # Y^4 at most this many Python-level terms
_BLOCK = 1 << 16           # targets per block of window_hits
_SLACK_ULPS = 8            # long-double ulps added to every window's reach


def sorted_sums(powers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The n^k sums powers[i_1] + ... + powers[i_k] (formed left to right),
    ascending, with their stable sort order: np.unravel_index(order[m],
    (n,) * k) gives the indices of the m-th smallest sum."""
    sums = powers
    for _ in range(k - 1):
        sums = (sums[:, None] + powers[None, :]).ravel()
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
        total = int(lengths.sum())
        if total == 0:
            continue
        t = np.repeat(np.arange(start, start + len(block)), lengths)
        run_starts = np.cumsum(lengths) - lengths
        yield t, np.arange(total) + np.repeat(lo - run_starts, lengths)


@dataclass(frozen=True)
class CountSpec:
    Y: int
    c: float
    gamma: float
    delta: float = 1e-9

    def __post_init__(self):
        if self.Y < 2:
            raise ValueError("Y must be >= 2")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class CountResult:
    count: int
    ambiguous: int


def _pair_sums(Y: int, c: float) -> np.ndarray:
    """All Y^2 values n1^c + n2^c for n1, n2 in (Y, 2Y], long double, sorted."""
    powers = np.arange(Y + 1, 2 * Y + 1, dtype=np.int64).astype(LONG) ** LONG(c)
    return sorted_sums(powers, 2)[0]


def count_tuples_naive(s: CountSpec) -> CountResult:
    """Exhaustive count over ordered 4-tuples (broadcast over all pairs)."""
    if s.Y ** 4 > _NAIVE_GUARD:
        raise GuardError("naive", _NAIVE_GUARD, f"Y^4 = {s.Y ** 4} tuples")
    ps = _pair_sums(s.Y, s.c)
    count = 0
    ambiguous = 0
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    # chunk the left index so the difference matrix stays small
    step = max(1, (2 ** 22) // max(1, len(ps)))
    for i in range(0, len(ps), step):
        d = np.abs(ps[i:i + step, None] - ps[None, :])
        count += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(count, ambiguous)


def count_tuples_fast(s: CountSpec) -> CountResult:
    """Sort the Y^2 pair sums and sweep; same predicate as the naive count.

    window_hits gathers every pair within gamma + delta, the outer edge of
    the ambiguity band; candidates are then re-tested with the exact
    comparison the naive counter uses, so results match it tuple-for-tuple.
    """
    if s.Y ** 2 > _FAST_GUARD:
        raise GuardError("fast", _FAST_GUARD, f"Y^2 = {s.Y ** 2} pair sums")
    ps = _pair_sums(s.Y, s.c)
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    count = 0
    ambiguous = 0
    for i, j in window_hits(ps, ps, gamma + delta):
        d = np.abs(ps[j] - ps[i])
        count += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(count, ambiguous)


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

