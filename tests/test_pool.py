import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqchaos import pool
from seqchaos.pool import parallel_map


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and the chunks, starts nothing."""

    created: list[int] = []
    chunks: list[list] = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        RecordingExecutor.chunks.extend(chunks)
        return map(fn, chunks)


@pytest.fixture
def fake_pool(monkeypatch):
    RecordingExecutor.created = []
    RecordingExecutor.chunks = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
    return RecordingExecutor.created


def absolutes(chunk):
    return [abs(x) for x in chunk]


@pytest.mark.parametrize(
    "workers, n_items, expected",
    [
        (10**6, 50, [3]),  # capped at the usable CPUs
        (64, 2, [2]),  # capped at the item count
        (2, 50, [2]),
        (1, 50, []),  # serial: no pool
        (8, 1, []),
        (8, 0, []),
    ],
)
def test_workers_clamped_to_cpus_and_items(fake_pool, workers, n_items, expected):
    items = [-i for i in range(n_items)]
    assert parallel_map(absolutes, items, workers=workers) == list(range(n_items))
    assert fake_pool == expected
    assert len(RecordingExecutor.chunks) == (expected[0] if expected else 0)


def test_unknown_cpu_count_runs_serially(fake_pool, monkeypatch):
    # without an affinity mask the machine's count is the cap
    monkeypatch.delattr(pool.os, "sched_getaffinity")
    monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
    assert parallel_map(absolutes, [-1, -2, -3], workers=4) == [1, 2, 3]
    assert fake_pool == []


@pytest.mark.parametrize("affinity, workers, expected", [({0}, 2, []), ({1, 2}, 8, [2])])
def test_workers_capped_at_the_affinity_mask(fake_pool, monkeypatch, affinity, workers, expected):
    # under taskset -c 0 the machine still counts every CPU, the mask one
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 4)
    assert parallel_map(absolutes, [-i for i in range(10)], workers=workers) == list(range(10))
    assert fake_pool == expected


@pytest.mark.parametrize("workers, n_items", [(1, 5), (2, 5), (3, 5), (8, 5), (4, 1), (2, 0)])
def test_parallel_map_gets_at_most_one_chunk_per_worker(fake_pool, workers, n_items):
    calls = []

    def record(chunk):
        calls.append(list(chunk))
        return [2 * x for x in chunk]

    items = list(range(n_items))
    assert parallel_map(record, items, workers=workers) == [2 * x for x in items]
    assert len(calls) <= max(1, workers)
    assert [x for chunk in calls for x in chunk] == items  # contiguous, in order
    sizes = [len(chunk) for chunk in calls]
    assert max(sizes) - min(sizes) <= 1  # near-equal sizes
    if len(calls) == 1:
        assert fake_pool == []  # the serial case is one call, with no pool
    else:
        assert RecordingExecutor.chunks == calls and all(calls)


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: a serial run never loads the pool's import stack
    src = str(Path(pool.__file__).resolve().parents[1])
    probe = ("import sys, seqchaos.cli; "
             "print(*[m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
