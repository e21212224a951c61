"""Order-preserving parallel map with per-item determinism.

Results depend only on the items, never on scheduling: items are
dispatched to a process pool and collected back in submission order, so
any worker count produces the same list.  The pool never gets more
workers than there are CPUs or items.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
