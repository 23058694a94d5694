"""Oracles shared by the test modules."""

import numpy as np

from primeineq.count import CountResult, CountSpec


def sorted_sums(powers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordered index: the n^k sums powers[i_1] + ... + powers[i_k]
    (formed left to right), ascending, with their stable sort order:
    np.unravel_index(order[m], (n,) * k) gives the indices of the m-th
    smallest sum."""
    sums = powers
    for _ in range(k - 1):
        sums = (sums[:, None] + powers[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    return sums[order], order


def naive_long_double_count(s: CountSpec) -> CountResult:
    """The exhaustive count of ``count.count_tuples_naive`` with every tuple
    decided in long double: all Y^4 differences of the Y^2 unsorted ordered
    pair sums, a chunk of rows at a time, each tested with |d| < gamma and
    ||d| - gamma| < delta."""
    powers = np.arange(s.Y + 1, 2 * s.Y + 1, dtype=np.int64).astype(np.longdouble) \
        ** np.longdouble(s.c)
    ps = (powers[:, None] + powers[None, :]).ravel()
    gamma = np.longdouble(s.gamma)
    delta = np.longdouble(s.delta)
    rows = max(1, (1 << 16) // len(ps))
    count = ambiguous = 0
    for i in range(0, len(ps), rows):
        d = np.abs(ps[i:i + rows, None] - ps)
        count += int(np.count_nonzero(d < gamma))
        ambiguous += int(np.count_nonzero(np.abs(d - gamma) < delta))
    return CountResult(count, ambiguous)
