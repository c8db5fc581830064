import pytest

from qcactus import repmodule, suites


class SerialPool:
    """Stands in for the process pool: runs the tasks in this process and
    records the worker count it was asked for."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("lams, jobs, workers", [
    ([(0, 0), (1, 0), (0, 1)], 64, [3]),
    ([(0, 0), (1, 0)], 2, [2]),
    ([(0, 0), (1, 0)], 1, []),
    ([(0, 0), (1, 0)], 0, []),
    ([(0, 0), (1, 0)], -5, []),
    ([(1, 1)], 8, []),
    ([], 4, []),
])
def test_sweep_clamps_jobs(monkeypatch, lams, jobs, workers):
    monkeypatch.setattr(suites, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    results = suites.sweep(lams, jobs)
    assert SerialPool.sizes == workers
    assert [tuple(r["lambda"]) for r in results] == lams
    assert all(c["status"] == "pass" for r in results for c in r["checks"])


def test_relation_check_crash_is_a_failing_record(monkeypatch):
    def crash(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(repmodule, "act_divided", crash)
    checks = suites.relations_suite(1)
    names = [f"relations({l1},{l2}):{r}" for l1, l2 in ((0, 0), (0, 1), (1, 0))
             for r in ("commutator", "serre", "divided-power")]
    assert [c["name"] for c in checks] == names
    for c in checks:
        assert c["status"] == "fail"
        assert "injected" in c["witness"]["error"]
        assert c["seconds"] >= 0
