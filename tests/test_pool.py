import pytest

from seqchaos import pool
from seqchaos.pool import parallel_map


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    RecordingExecutor.created = []
    monkeypatch.setattr(pool, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
    return RecordingExecutor.created


@pytest.mark.parametrize(
    "workers, n_items, expected",
    [
        (10**6, 50, [3]),  # capped at cpu_count
        (64, 2, [2]),  # capped at the item count
        (2, 50, [2]),
        (1, 50, []),  # serial: no pool
        (8, 1, []),
        (8, 0, []),
    ],
)
def test_workers_clamped_to_cpus_and_items(fake_pool, workers, n_items, expected):
    items = list(range(n_items))
    assert parallel_map(abs, items, workers=workers) == items
    assert fake_pool == expected


def test_unknown_cpu_count_runs_serially(fake_pool, monkeypatch):
    monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
    assert parallel_map(abs, [-1, -2, -3], workers=4) == [1, 2, 3]
    assert fake_pool == []
