"""The shared trial loop: every index runs once, on a bounded pool."""

import os

import pytest

from bornlab import streams


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.created = []
    monkeypatch.setattr(streams, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return RecordingPool


@pytest.mark.parametrize(
    "threads, n, workers",
    [(10**6, 1000, 4), (10**6, 3, 3), (2, 1000, 2), (3, 2, 2)],
)
def test_workers_capped_by_trials_and_cpus(pool, threads, n, workers):
    seen = []
    streams.map_trials(seen.append, n, threads)
    assert pool.created == [workers]
    assert seen == list(range(n))


@pytest.mark.parametrize("threads, n", [(1, 100), (8, 1), (8, 0)])
def test_one_worker_runs_serially(pool, threads, n):
    seen = []
    streams.map_trials(seen.append, n, threads)
    assert pool.created == []
    assert seen == list(range(n))


def test_unknown_cpu_count_runs_serially(pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    seen = []
    streams.map_trials(seen.append, 50, 8)
    assert pool.created == [] and seen == list(range(50))
