"""Order-preserving parallel map over contiguous chunks.

This module alone decides how work is split: the items are cut into at
most one contiguous chunk per worker, of near-equal sizes, and ``fn``
maps a whole chunk to one result per item.  The chunks go to a process
pool and come back in order, so the results depend only on the items,
never on scheduling or the worker count.  The pool never gets more
workers than the CPUs this process may run on, or than items, and a
single worker is one call, ``fn(items)``, with no pool.  The process
pool machinery is imported on first parallel use, so a serial run never
loads it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[Sequence[T]], list[R]], items: Sequence[T], workers: int = 1
) -> list[R]:
    # the CPUs in the affinity mask where the platform has one, else the machine's
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    k = min(workers, cpus, len(items))
    if k <= 1:
        return fn(items)
    from concurrent.futures import ProcessPoolExecutor

    cuts = [len(items) * i // k for i in range(k + 1)]
    chunks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return [r for chunk in pool.map(fn, chunks) for r in chunk]
