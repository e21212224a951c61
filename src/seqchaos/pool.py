"""Order-preserving parallel map over contiguous chunks.

This module alone decides how work is split: the items are cut into at
most one contiguous chunk per worker, of near-equal sizes, and ``fn``
maps a whole chunk to one result per item.  The chunks go to a process
pool and come back in order, so the results depend only on the items,
never on scheduling or the worker count.  The pool never gets more
workers than there are CPUs or items, and a single worker is one call,
``fn(items)``, with no pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[Sequence[T]], list[R]], items: Sequence[T], workers: int = 1
) -> list[R]:
    k = min(workers, os.cpu_count() or 1, len(items))
    if k <= 1:
        return fn(items)
    cuts = [len(items) * i // k for i in range(k + 1)]
    chunks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return [r for chunk in pool.map(fn, chunks) for r in chunk]
