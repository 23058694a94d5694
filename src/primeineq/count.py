"""Counting near-diagonal 4-tuples: |n1^c + n2^c - n3^c - n4^c| < gamma.

Both counters apply one comparison policy to the pair sums n1^c + n2^c,
formed in extended precision: the difference d of two pair sums is tested
with the strict predicate |d| < gamma, and every tuple with
||d| - gamma| < delta is additionally reported as boundary-ambiguous.

The fast counter walks ascending value bands of the unordered pairs
i <= j, each standing for m = 1 (i = j) or m = 2 (i < j) ordered pairs
(``count_tuples_fast``); only one band is in memory at a time.  A band
holds float64 keys only, fl(fl(P_i) + fl(P_l)), the float64 sums of the
powers rounded to float64, and long double serves only the re-test.  It
sorts a band's keys alone and counts pairs by position from window bounds
at gamma - delta, gamma and gamma + delta, every sum weighed m = 2 and the
n diagonal sums 2 P_i corrected by searches of their own keys.  Each
owner's first bound is placed by a forward scan of the sorted band
(``_window_ends``), as deep as a binary search, and searchsorted places it
only for the owners whose windows pass that depth.  Only the
pairs within the rounding slack of a bound are re-tested, on long-double
sums formed again from their flat indices, and only a band with such a
pair orders its flat indices by key.  Each band comes from ``_pair_band``,
which forms only the rows of keys that can reach it, each row's run from
two searches on the float64 powers, in order of flat index.
``triple_band`` builds the bands of long-double triple sums of the
sextuple search (``solver._mitm_search``) instead, with one search per power
over the pair sums sorted by value (``unordered_pairs``).  Every
long-double margin of the package is ``rounding`` of the scale it covers,
and every float64 margin ``key_rounding`` of it, its floor for subnormals
included.  The harmonic sum takes
the whole set of pair sums, in ascending order, from ``unordered_pairs``,
and the fast counter's band edges the keys of a grid of the powers.

The naive counter is the oracle (``count_tuples_naive``): exhaustive, in
that it decides every pair of the Y(Y+1)/2 unordered pair sums, both
orders, and so every one of the Y^4 ordered tuples exactly once, screened
in float64; a pair weighs m_p m_q ordered tuples, exactly, since
fl(P_a + P_b) = fl(P_b + P_a) makes every ordered pair sum bitwise one of
the unordered ones.  It shares no code with the fast counter, and the two
agree exactly, ambiguity flags included.
The Y-ladder slope reports built on these counts live in ``reports``.

``window_pairs`` is the one search that lists candidates among float64
keys, at a reach (``window_reach``): the width of the predicate searched
for, widened by rounding and key_rounding of the scale.  The triple walk
(``solver._candidate_walk``) and the sextuple search
(``solver._mitm_search``) run on it, each at one window of its predicate's
width, and re-test every candidate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sums import LONG, GuardError

_NAIVE_GUARD = 10 ** 9     # Y^4 at most this many ordered tuples
_NAIVE_CHUNK = 1 << 16     # comparisons of pair sums per chunk of the naive count's buffers
_FAST_GUARD = 10 ** 8      # Y^2 at most this many pair sums formed
_HARMONIC_GUARD = 10 ** 9  # Y^4 at most this many ordered 4-tuples
_FAST_BAND = 1 << 14       # unordered pair sums per band of count_tuples_fast
_POWER_BLOCK = 1 << 16     # candidate pair sums per block of triple_band's search by power
_RETEST_CHUNK = 1 << 16    # candidates of count_tuples_fast re-tested at once
_SLACK_ULPS = 8            # long-double ulps of rounding(scale)
_KEY_ULPS = 4              # float64 ulps of key_rounding(scale)


def rounding(scale):
    """The long-double rounding allowance at magnitude ``scale``, a scalar
    or an array: _SLACK_ULPS long-double ulps of it, 2^-60 scale, exactly.
    Every long-double margin of the package is this at the scale of the
    values it covers; each use derives that its rounding is a few such
    ulps (triple_band, window_reach, count_tuples_fast, harmonic_V,
    solver._solves and solver._first_triples)."""
    return _SLACK_ULPS * np.finfo(LONG).eps * scale


def key_rounding(scale):
    """The float64 rounding allowance at magnitude ``scale``, the twin of
    rounding for the float64 keys that searches compare: _KEY_ULPS float64
    ulps of it, 2^-50 scale, exactly, and never less than the smallest
    normal float64.  Every float64 margin of the package is this at the
    scale of the values it covers; each use derives that its rounding is at
    most 2.5 float64 ulps (window_reach, _pair_band, count_tuples_fast and
    solver._candidate_walk).

    A search compares a key fl64(v) with a bound fl64(t +- r), t the target
    and r the reach, and each of the four roundings to or in float64 moves
    that comparison by at most u = 2^-53, half a float64 ulp, of its result:
    u |v| for the key, u |t| for the target, u r for the reach and
    u |t +- r| for the bound.  In count_tuples_fast the key and the target
    are keys fl(fl(P_i) + fl(P_l)), each within 2u |v| of its long-double
    sum v, every |v| and |t| is at most 2 max P and r about gamma + delta,
    so these come to u (5 (2 max P) + 2 (gamma + delta)): at most 5u, 2.5
    float64 ulps, of its scale 2 max P + gamma + delta.  Through
    window_reach the key lies within r of the target and r is the width w,
    give or take the allowances, so they come to u (3 M + 4 w), M the
    largest |v|: at most u (3 scale + w), under 2 float64 ulps of the scale
    M + w, and 1.5 once w is small beside M.

    Below the normal range a rounding to float64 is off by up to half the
    least subnormal, an absolute error that no multiple of the scale
    covers, so the allowance is at least the smallest normal float64,
    2^-1022: then it exceeds 2.5 ulps of the scale by at least 3/8 of that,
    far more than the few half subnormals the roundings of a use add."""
    return max(_KEY_ULPS * np.finfo(float).eps * scale, np.finfo(float).tiny)


def unordered_pairs(powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n(n+1)/2 unordered pairs i <= j, so the whole set of pair sums:
    int32 flat index i n + j and sum P_i + P_j, formed in the dtype of
    ``powers``, in ascending order of sum (equal sums in flat order)."""
    n = len(powers)
    i, j = np.triu_indices(n)
    sums = powers[i]
    sums += powers[j]
    order = np.argsort(sums, kind="stable")
    return (i * n + j).astype(np.int32)[order], sums[order]


def _pair_band(p64: np.ndarray, rows: range, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The float64 keys fl(p_i + p_l) of the unordered pairs of the rows i
    in ``rows``, l >= i, that lie in [lo, hi), with the int32 flat index
    i n + l, in order of flat index; for count_tuples_fast.  ``p64`` are
    the powers rounded to float64, p_i = fl(P_i), ascending, so row i's
    keys grow with l, and two searchsorted bounds on them, at lo - p_i and
    hi - p_i, give the run of l to form.  A key within rounding of a bound
    has both terms, and so that difference, within |bound| + max|p| in
    magnitude: the rounding of the key, of the difference and of the
    widened difference moves each comparison by under 3u (|bound| + max|p|),
    u = 2^-53, and each bound is widened by key_rounding(|bound| + max|p|),
    8u of it (an infinite bound needs none).  Float64 sums and differences
    of float64 values are exact below the normal range, so this needs none
    of the smallest normal float64 that key_rounding also holds."""
    n = len(p64)
    i = np.arange(rows.start, rows.stop)
    row = p64[i]
    top = np.abs(p64).max(initial=0)
    first = np.maximum(np.searchsorted(p64, lo - row - key_rounding(abs(lo) + top)), i)
    lengths = np.maximum(np.searchsorted(p64, hi - row + key_rounding(abs(hi) + top))
                         - first, 0)
    flat = run_positions(first, lengths)   # l, then in place the flat index i n + l
    keys = np.repeat(row, lengths)
    keys += p64[flat]
    flat += np.repeat(i * n, lengths)
    keep = (keys >= lo) & (keys < hi)
    return keys[keep], flat[keep].astype(np.int32)


def triple_band(powers: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
                lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The unordered triple sums (P_i + P_j) + P_l, i <= j <= l, that lie in
    [lo, hi), with the int32 flat index (i n + j) n + l; for the sextuple
    search (solver._mitm_search).  ``powers`` ascend, ``pairs`` is
    unordered_pairs(powers) and the caller keeps the flat indices below
    2^31.

    The pair sums are searched once per power l: two searchsorted bounds,
    at lo - P_l and hi - P_l, give the run of pair sums to try.  A sum
    within rounding of a bound has both terms, and so that difference,
    within |bound| + max|P| in magnitude: the rounding of the sum and of the
    difference is under one long-double ulp of |bound| + max|P| in all, and
    each bound is widened by rounding(|bound| + max|P|) (an infinite bound
    needs none).  The run stops at 2 P_l, since a pair sum
    s = fl(P_i + P_j) with i <= j <= l is at most fl(P_l + P_l) (a larger s
    has j > l).  Only the pairs with j = flat % n <= l are formed, and the
    band comes in order of l, then of pair sum.  The runs are taken a block
    of powers at a time, with about _POWER_BLOCK candidate pair sums and
    int32 positions in each, so the transient arrays stay bounded whatever
    the band; a band of one block is one pass."""
    flat, pair_sums = pairs
    n = len(powers)
    top = np.abs(powers).max(initial=0)
    lo_reach, hi_reach = rounding(abs(lo) + top), rounding(abs(hi) + top)
    first = np.searchsorted(pair_sums, lo - powers - lo_reach)
    stop = np.minimum(np.searchsorted(pair_sums, hi - powers + hi_reach),
                      np.searchsorted(pair_sums, powers + powers, side="right"))
    lengths = np.maximum(stop - first, 0)
    ends = np.cumsum(lengths)
    starts = ends - lengths   # candidate k of power l's run is pair sum k + shift[l]
    shift = (first - starts).astype(np.int32)
    blocks = [0]   # each block of powers from one entry to the next
    while blocks[-1] < n:
        blocks.append(max(blocks[-1] + 1, int(np.searchsorted(
            ends, starts[blocks[-1]] + _POWER_BLOCK, side="right"))))
    parts = []
    for a, b in zip(blocks[:-1], blocks[1:]):
        at = np.arange(starts[a], ends[b - 1], dtype=np.int32)
        at += np.repeat(shift[a:b], lengths[a:b])
        l = np.repeat(np.arange(a, b, dtype=np.int32), lengths[a:b])
        pair = flat[at]
        keep = pair % n <= l
        at, pair, l = at[keep], pair[keep], l[keep]
        sums = pair_sums[at] + powers[l]
        keep = (sums >= lo) & (sums < hi)
        parts.append((sums[keep], pair[keep] * n + l[keep]))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part) for part in zip(*parts))


def window_pairs(lo: np.ndarray, hi: np.ndarray, keys: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every (key, window) pair with lo[w] <= keys[k] <= hi[w], as index
    arrays k, w in order of k, then w.  ``lo`` and ``hi`` bound windows of
    one reach (window_reach) around ascending float64 targets, so both
    ascend and each key's windows are one run.  Keys may come in any
    order; sorted keys search faster."""
    start = np.searchsorted(hi, keys, side="left")
    lengths = np.searchsorted(lo, keys, side="right") - start
    return np.repeat(np.arange(len(keys)), lengths), run_positions(start, lengths)


def window_reach(first, last, width) -> float:
    """The reach of window_pairs' windows for pairs within ``width`` among
    values from ``first`` to ``last``: ``width`` plus rounding and
    key_rounding of the scale max(|first|, |last|) + width, rounded to
    float64, so neither the long-double rounding of the values nor the
    float64 rounding of values, targets and bounds drops a pair."""
    width = LONG(width)
    scale = max(abs(LONG(first)), abs(LONG(last))) + width
    return float(width + (rounding(scale) + key_rounding(scale)))


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


def _powers(s: CountSpec) -> np.ndarray:
    """The long-double powers n^c, n in (Y, 2Y], ascending in value (so n
    descends for c < 0), as _pair_band needs of their float64 roundings.
    The counters search the pair sums by float64 keys, so ValueError if
    2 (2Y)^c, the largest sum for c >= 0, is not finite in float64 (for
    c < 0 every sum is below 2); then 2 fl((2Y)^c) is not either."""
    with np.errstate(over="ignore"):
        top = np.float64(2 * LONG(2 * s.Y) ** LONG(s.c))
    if not np.isfinite(top):
        raise ValueError(f"the largest pair sum 2 * {2 * s.Y}^{s.c} exceeds the float64 "
                         f"range (largest finite {np.finfo(float).max:.6g})")
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(LONG) ** LONG(s.c)
    return powers[::-1] if s.c < 0 else powers


def _multiplicity(flat: np.ndarray, n: int) -> np.ndarray:
    """The number m of ordered pairs the unordered pair with flat index
    i n + j stands for: 1 for i = j, else 2.  i n + j is a multiple of
    n + 1 iff i = j, since 0 <= j - i < n + 1."""
    return np.where(flat % (n + 1) == 0, 1, 2)


def _band_edges(p64: np.ndarray) -> np.ndarray:
    """The float64 edges of ascending value bands [lo, hi) that split the
    keys fl(p_i + p_j) of the unordered pairs of the ascending float64
    powers ``p64`` into about _FAST_BAND each: -inf, every
    (_FAST_BAND / g^2)-th of the sorted keys of every g-th power, each of
    which stands for about g^2 keys, less repeats, and inf.  A band holds
    whole runs of equal keys, so all equal keys make one band."""
    n = len(p64)
    inner = np.zeros(0)
    if n * (n + 1) // 2 > _FAST_BAND:
        g = max(1, math.isqrt(_FAST_BAND // 16))   # about 16 sample keys per band
        step = _FAST_BAND // g ** 2
        inner = unordered_pairs(p64[::g])[1][step::step]   # ascending
        inner = inner[np.concatenate([[True], inner[1:] != inner[:-1]])]
    return np.concatenate([[-np.inf], inner, [np.inf]])


@np.errstate(over="ignore", invalid="ignore")   # inf and NaN go to the re-test
def count_tuples_naive(s: CountSpec) -> CountResult:
    """Exhaustive oracle over all Y^4 ordered tuples, each decided once
    through the pair of unordered pair sums it stands in, screened in
    float64, long-double verdict within a stated margin of gamma +- delta;
    shares no code with the fast counter.

    The Y(Y+1)/2 unordered pair sums P_a + P_b, a <= b, are formed here once
    in long double, unsorted: the Y diagonal sums 2 P_a first, each standing
    for m = 1 ordered pair sum, then the sums a < b, each standing for
    m = 2, since fl(P_a + P_b) = fl(P_b + P_a) bitwise.  So every ordered
    tuple's d is bitwise the difference of one pair (p, q) of these sums,
    and weighting each pair's verdict by m_p m_q decides every ordered tuple
    exactly once.  The sums are rounded once to float64, and every pair's
    |d64|, the float64 difference of two rounded sums, both orders, is
    formed a chunk of rows of one weight at a time in one preallocated
    float64 buffer.  A pair with |d64| < gamma - delta - m is a hit and not
    ambiguous, one with |d64| > gamma + delta + m is neither, and only the
    pairs between are re-tested on their long-double sums with |d| < gamma
    and ||d| - gamma| < delta.  ValueError if 2 (2Y)^c, the largest sum for
    c >= 0, is not finite in long double: inf - inf is NaN and would fail
    both comparisons.
    """
    if s.Y ** 4 > _NAIVE_GUARD:
        raise GuardError("naive", _NAIVE_GUARD, f"Y^4 = {s.Y ** 4} tuples")
    if not np.isfinite(2 * LONG(2 * s.Y) ** LONG(s.c)):
        raise ValueError(f"the largest pair sum 2 * {2 * s.Y}^{s.c} exceeds the long-double "
                         f"range (largest finite "
                         f"{np.format_float_scientific(np.finfo(LONG).max, precision=5)})")
    Y = s.Y
    powers = np.arange(Y + 1, 2 * Y + 1, dtype=np.int64).astype(LONG) ** LONG(s.c)
    upper = np.triu_indices(Y, 1)   # the pairs a < b
    ps = np.concatenate([powers + powers, powers[upper[0]] + powers[upper[1]]])
    del upper
    ps64 = ps.astype(float)
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    # the screen's margin m bounds ||d64| - |d|| for every tuple and the
    # rounding of the screen's bounds.  With a, b long-double pair sums,
    # M = max|ps|, u = 2^-53 and e <= u the long-double unit roundoff:
    # |fl64(a) - a| <= u M and |fl64(b) - b| <= u M, the float64 difference
    # of the rounded sums is within u (2M + 2uM) of their exact difference,
    # and d = fl(a - b) in long double is within 2 e M of a - b; so
    # |d64 - d| <= 5 u M.  The bounds gamma -+ delta -+ m are formed in
    # float64, two roundings each, within 2 u (M + gamma + delta + m) of
    # their exact values.  m = 2^-40 (M + gamma + delta), 8192 u of that
    # scale, covers both many times over; a wider m only adds re-tests.  The
    # smallest normal float64 covers the absolute error of roundings among
    # subnormals.  M is taken in float64, so a sum past the float64 range
    # makes m inf and every tuple is re-tested.
    m = 2.0 ** -40 * (float(np.max(np.abs(ps))) + s.gamma + s.delta) + np.finfo(float).tiny
    inner, outer = s.gamma - s.delta - m, s.gamma + s.delta + m
    n = len(ps)
    rows = max(1, _NAIVE_CHUNK // n)
    d = np.empty((rows, n))
    below = np.empty(d.shape, dtype=bool)
    above = np.empty(d.shape, dtype=bool)
    count = 0
    ambiguous = 0
    for start, stop, m_p in ((0, Y, 1), (Y, n, 2)):   # a chunk's rows share one weight
        for i in range(start, stop, rows):
            di = d[:stop - i]   # the last chunk of each weight may be short
            bi, ai = below[:stop - i], above[:stop - i]
            np.subtract(ps64[i:i + len(di), None], ps64, out=di)
            np.abs(di, out=di)
            np.less(di, inner, out=bi)
            single, double = int(np.count_nonzero(bi[:, :Y])), int(np.count_nonzero(bi[:, Y:]))
            count += m_p * (single + 2 * double)
            if single + double + np.count_nonzero(np.greater(di, outer, out=ai)) == di.size:
                continue
            # the pairs between the bounds (NaN included) get the exact verdict
            r, q = np.divmod(np.flatnonzero(~(bi | ai)), n)
            dl = np.abs(ps[i + r] - ps[q])
            w = m_p * np.where(q < Y, 1, 2)   # the columns' weights
            count += int(np.sum(w[dl < gamma]))
            ambiguous += int(np.sum(w[np.abs(dl - gamma) < delta]))
    return CountResult(count, ambiguous)


def _diagonal_positions(keys: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Ascending positions in the sorted band keys ``keys`` for its
    diagonal sums, whose float64 keys ``diagonal`` ascend: each takes the
    first free position of its run of equal keys."""
    at = np.searchsorted(keys, diagonal)
    return at + (np.arange(len(at)) - np.searchsorted(at, at))


def _window_ends(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.searchsorted(ordered, q), the number x_p of keys below q_p, for
    q = fl(ordered[:m] + reach), m = len(q), the owners' window bounds in
    the ascending band keys ``ordered`` (o); for count_tuples_fast.

    If every q_p > o_p, then every o_k with k <= p is below q_p, and the
    test [o_{p+k} < q_p] can only go from true to false as k grows, so
    x_p = p + 1 + sum over k >= 1 of [o_{p+k} < q_p].  Step k compares the
    slices o[k:k+m] and q whole and adds the result into a uint8 count, and
    the scan stops at the first step where no comparison holds, since none
    holds at a later one.  Its reach is the depth of the binary search it
    stands in for, len(o).bit_length() steps: the owners still open there
    are searched alone.  Where some q_p <= o_p (a reach below half an ulp of
    a key, or below zero), or where more than half of the owners are open
    at the reach (wide windows), every owner is searched."""
    m, reach = len(q), len(ordered).bit_length()
    tail = ordered[reach:reach + m]
    late = tail < q[:len(tail)]   # o_{p+reach} < q_p: open past the scan
    if 2 * np.count_nonzero(late) > m or not np.all(q > ordered[:m]):
        return np.searchsorted(ordered, q)
    below = np.zeros(m, dtype=np.uint8)
    for k in range(1, reach):
        tail = ordered[k:k + m]
        step = tail < q[:len(tail)]
        if not np.count_nonzero(step):
            break
        below[:len(tail)] += step
    x = np.arange(1, m + 1) + below
    late = np.flatnonzero(late)
    x[late] = np.searchsorted(ordered, q[late])
    return x


def _weighted_pairs(x: np.ndarray, diagonal: np.ndarray, owned: int) -> int:
    """The sum of m_p m_q over the owners p and the positions q with
    p < q < x[p], for x ascending, where m is 1 at the ``diagonal``
    positions (ascending, the first ``owned`` of them owners) and 2
    elsewhere.  With e = 2 - m, m_p m_q = 4 - 2 e_p - 2 e_q + e_p e_q, so
    this is 4 times the number of pairs, less twice those with a diagonal
    p or q, plus those with both: every search runs on the diagonal side."""
    owners = len(x)
    pairs = int(np.maximum(x, np.arange(1, owners + 1)).sum()) - owners * (owners + 1) // 2
    p = diagonal[:owned]
    x_p = x[p]
    diagonal_p = int(np.maximum(x_p - p - 1, 0).sum())
    # for a diagonal q, the owners p < q with x[p] > q are a run up to q
    diagonal_q = int(np.maximum(np.minimum(diagonal, owners)
                                - np.searchsorted(x, diagonal, side="right"), 0).sum())
    both = int(np.maximum(np.searchsorted(diagonal, x_p) - np.arange(1, owned + 1), 0).sum())
    return 4 * pairs - 2 * (diagonal_p + diagonal_q) + both


def count_tuples_fast(s: CountSpec) -> CountResult:
    """Count from window bounds per unordered pair sum, band by band; same
    predicate and same result as the naive count.

    An unordered sum p stands for m_p ordered pair sums of the same value,
    so a pair (p, q) stands for m_p m_q ordered 4-tuples with the same
    verdicts.  Since fl(a - b) = -fl(b - a), (q, p) has the verdicts of
    (p, q), and the diagonal d = 0 (sum m_p^2 tuples) is a hit, ambiguous
    when gamma < delta; so each pair p != q is searched once, from the p
    that comes first in the order of the bands below.

    The sums are taken in ascending value bands [lo, hi) of their float64
    keys fl(fl(P_i) + fl(P_l)) (_band_edges), each from _pair_band over
    only the rows i whose keys can reach the band; no long-double sum is
    formed but in the re-test.  The keys are sorted, with np.sort: first
    come the band's owners, the keys in [lo, hi), then its tail, the keys in
    [hi, hi + outer reach + slack), which holds every q a window of an
    owner can reach.  Only the owners p search their q after them in the
    band.  With s the slack rounding + key_rounding of the largest
    magnitude involved, as in window_reach, a q whose key lies more than s
    from key[p] + gamma - delta, key[p] + gamma and key[p] + gamma + delta
    has a sure verdict, whatever the rounding: a hit and not ambiguous
    below the first, a hit and ambiguous between the first two, ambiguous
    only between the last two, and neither past the last.  A key lies
    within 2u |v| of its long-double sum v, u = 2^-53, so the comparison is
    off by at most u (5 (2 max P) + 2 (gamma + delta)) (key_rounding), and
    the long-double sums by rounding of the scale.  Below the normal range
    each rounding of a power to float64 is off by up to half the least
    subnormal, which no multiple of the scale covers; key_rounding's floor,
    the smallest normal float64, covers it.  Each re-test zone starts no
    lower than the one before it ends, so that zones which overlap (delta
    within 2 s) merge and leave no sure zone between them.  The
    bounds past the first are searched only for the owners whose key at
    the first bound lies within the outer reach, which is seldom at small
    delta.

    The first bound of every owner p, fl(key[p] + the lower reach of the
    first zone), is placed by _window_ends: a forward scan of the sorted
    band by whole-slice comparisons, in near-linear time where windows are
    narrow, with searchsorted only for the owners still open past the
    scan's reach, len(band).bit_length() keys, or for every owner where
    more than half are, or where a bound does not lie above its own key.

    Every sure count is a count of pairs of positions, weighed as if every
    sum had m = 2 and corrected for the n diagonal sums 2 P_i
    (_weighted_pairs), whose keys 2 fl(P_i) are exact and ascending, so a
    search of them places them in the band (_diagonal_positions).  Only the
    q in a re-test zone are re-tested, _RETEST_CHUNK at a time, on their
    long-double sums P_i + P_l, formed from the flat index i n + l, with
    the exact comparison the naive counter uses; a band orders its flat
    indices by key (argsort) only when it has such a q.
    """
    if s.Y ** 2 > _FAST_GUARD:
        raise GuardError("fast", _FAST_GUARD, f"Y^2 = {s.Y ** 2} pair sums")
    powers = _powers(s)
    p64 = powers.astype(float)
    n = len(powers)
    gamma = LONG(s.gamma)
    delta = LONG(s.delta)
    scale = 2 * powers[-1] + gamma + delta   # 2 max P is the largest sum
    slack = rounding(scale) + key_rounding(scale)
    # the (lower, upper) reach of each re-test zone, and the verdicts
    # (hit, ambiguous) of the sure zone between two re-test zones
    zones = [(float(edge - slack), float(edge + slack))
             for edge in (gamma - delta, gamma, gamma + delta)]
    verdicts = ((1, 1), (0, 1))
    # a q with key[q] <= fl(key[p] + the outer reach), key[p] < hi, lies at
    # or below fl(hi + the outer reach), which the slack keeps below
    # fl(hi + tail_reach), the band's top
    tail_reach = float(LONG(zones[-1][1]) + slack)
    # row i forms the keys fl(p_i + p_l), l >= i, which lie between
    # fl(p_i + p_i) = 2 p_i and fl(p_i + max p), the rounding being monotone;
    # so only the rows with 2 p_i < hi and fl(p_i + max p) >= lo can hold a
    # key of a band [lo, hi), and they are one run, since both bounds ascend
    # with i.  The diagonal keys 2 p_i of the band are those of its rows
    # with 2 p_i >= lo, owners if 2 p_i < hi
    row_min, row_max = p64 + p64, p64 + p64[-1]
    edges = _band_edges(p64)
    tops = edges[1:] + tail_reach
    first_row = np.searchsorted(row_max, edges[:-1])
    diagonal_at, row_end = np.searchsorted(row_min, edges), np.searchsorted(row_min, tops)
    hits = 0        # ordered tuples of pairs p before q with |d| < gamma
    ambiguous = 0   # ordered tuples of pairs p before q with ||d| - gamma| < delta
    for band, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        keys, flat = _pair_band(p64, range(first_row[band], row_end[band]), lo, tops[band])
        owners = int(np.count_nonzero(keys < hi))
        if not owners:
            continue
        ordered = np.sort(keys)
        block = ordered[:owners]
        owned = int(diagonal_at[band + 1] - diagonal_at[band])
        diagonal_pos = _diagonal_positions(ordered, row_min[diagonal_at[band]:row_end[band]])
        x = _window_ends(ordered, block + zones[0][0])
        hits += _weighted_pairs(x, diagonal_pos, owned)
        # the other bounds are x unless the key at x is within the outer reach
        close = ordered.take(x, mode="clip") <= block + zones[-1][1]
        close[np.searchsorted(x, len(ordered)):] = False   # no key at or past x
        near = np.flatnonzero(close)
        if not len(near):
            continue
        block, after = block[near], near + 1
        lowers, uppers = [x[near]], []
        for lower, upper in zones:
            if uppers:   # a zone starts no lower than the one before it ends
                lowers.append(np.maximum(np.searchsorted(ordered, block + lower), uppers[-1]))
            uppers.append(np.searchsorted(ordered, block + upper, side="right"))
        for (hit, ambiguity), upper, lower in zip(verdicts, uppers, lowers[1:]):
            if np.any(lower > upper):
                x_upper, x_lower = x.copy(), x.copy()
                x_upper[near], x_lower[near] = upper, lower
                w = (_weighted_pairs(x_lower, diagonal_pos, owned)
                     - _weighted_pairs(x_upper, diagonal_pos, owned))
                hits += hit * w
                ambiguous += ambiguity * w
        first = np.concatenate([np.maximum(lower, after) for lower in lowers])
        lengths = np.maximum(np.concatenate(uppers) - first, 0)
        ends = np.cumsum(lengths)
        if not ends[-1]:
            continue
        flat = flat[np.argsort(keys)]
        m = _multiplicity(flat, n)
        run_owner = np.tile(near, len(zones))
        for start in range(0, int(ends[-1]), _RETEST_CHUNK):
            k = np.arange(start, min(start + _RETEST_CHUNK, int(ends[-1])))
            run = np.searchsorted(ends, k, side="right")
            p = run_owner[run]
            q = first[run] + (k - (ends[run] - lengths[run]))
            # the long-double sums P_i + P_l of the flat indices i n + l
            i, l = np.divmod(flat[np.stack([p, q])], n)
            pair = powers[i] + powers[l]
            d = np.abs(pair[1] - pair[0])
            weight = m[p] * m[q]
            hits += int(np.sum(weight[d < gamma]))
            ambiguous += int(np.sum(weight[np.abs(d - gamma) < delta]))
    diagonal = n + 2 * n * (n - 1)   # sum of m^2: n pairs i = j, n(n - 1)/2 pairs i < j
    return CountResult(diagonal + 2 * hits, diagonal * int(gamma < delta) + 2 * ambiguous)


def harmonic_V(s: CountSpec, tau: float) -> tuple[float, np.ndarray]:
    """Sum of 1/|d| over ordered 4-tuples with |d| > 1/tau, d the pair-sum
    difference, accumulated per dyadic bucket (2^k/tau, 2^{k+1}/tau].

    Returns (total, per-bucket vector).  Exact up to float rounding; the
    bucket split mirrors the dyadic decomposition used to bound it.  The
    work is the differences d = ps[q] - ps[p] of the unordered long-double
    pair sums from unordered_pairs, in (sum, flat index) order, over q > p,
    a chunk of rows p at a time; d <= 0 for q <= p, so d > 1/tau picks
    pairs p < q only.  Each stands for m_p m_q ordered 4-tuples, and (q, p)
    for as many more with difference -d.  ValueError if 1/tau is not above
    rounding(largest pair sum): differences below the sums' rounding, under
    one long-double ulp of the largest sum, are not resolved.
    """
    if s.Y ** 4 > _HARMONIC_GUARD:
        raise GuardError("harmonic", _HARMONIC_GUARD, f"Y^4 = {s.Y ** 4} differences")
    if tau <= 0:
        raise ValueError("tau must be positive")
    powers = _powers(s)
    flat, ps = unordered_pairs(powers)
    m = _multiplicity(flat, s.Y)
    cut = LONG(1.0) / LONG(tau)
    resolved = rounding(ps[-1])
    if not cut > resolved:
        raise ValueError(f"1/tau = {float(cut):.6g} is not above the rounding bound "
                         f"{float(resolved):.6g} of the pair sums ({_SLACK_ULPS} long-double "
                         f"ulps of the largest sum {float(ps[-1]):.6g})")
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
