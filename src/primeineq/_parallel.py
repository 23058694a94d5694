"""Deterministic work distribution.

Per-item computations in this package are pure, so a parallel map only has
to preserve input order to make results independent of the worker count.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def det_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """Map fn over items, in order; identical output for any worker count.
    The process pool (and multiprocessing with it) is imported only when
    more than one worker runs."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=chunk))
