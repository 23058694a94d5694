"""Oracles shared by the test modules."""

import numpy as np


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
