import concurrent.futures

import pytest

from qcactus import linalg, repmodule


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Gives each test an empty dot memo and N1 block memo of its own, so that
    what an earlier test built never turns this test's arithmetic into memo
    lookups."""
    monkeypatch.setattr(linalg, "_DOTS", {})
    monkeypatch.setattr(repmodule, "N1_BLOCKS", {})


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stands in for the process pool, which then runs its tasks in this
    process; returns the list of worker counts it was asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes
