import os

import pytest

from qcactus import linalg, repmodule, suites


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """Gives each test an empty dot memo and N1 block memo of its own, so that
    what an earlier test built never turns this test's arithmetic into memo
    lookups."""
    monkeypatch.setattr(linalg, "_DOTS", {})
    monkeypatch.setattr(repmodule, "N1_BLOCKS", {})


@pytest.fixture
def pool_sizes(monkeypatch):
    """Watches the fork pool of `suites.pool_map` through call-through
    wrappers of `pool_map` and `os.fork`; returns the list of worker counts,
    one for each call that started workers.  At teardown no child process of
    this one may be left."""
    sizes, new_call = [], [False]
    pool_map, fork = suites.pool_map, os.fork

    def watched_pool_map(fn, items, jobs):
        new_call[0] = True
        return pool_map(fn, items, jobs)

    def watched_fork():
        pid = fork()
        if pid:  # in this process, not in the worker
            if new_call[0]:
                sizes.append(0)
                new_call[0] = False
            sizes[-1] += 1
        return pid

    monkeypatch.setattr(suites, "pool_map", watched_pool_map)
    monkeypatch.setattr(suites.os, "fork", watched_fork)
    yield sizes
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
