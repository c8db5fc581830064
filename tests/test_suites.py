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


def test_sigma_checks_build_each_sigma_once(monkeypatch):
    calls = []
    sigma_J = repmodule.sigma_J

    def counting(J, vec, branch=None):
        if branch is None:
            calls.append(tuple(J))
        return sigma_J(J, vec, branch)

    monkeypatch.setattr(repmodule, "sigma_J", counting)
    mod = repmodule.ModuleVLambda(1, 1)
    checks = suites.sigma_checks([mod])
    assert all(c["status"] == "pass" for c in checks)
    # one matrix each for sigma^1, sigma^2 and sigma^12, one call per column
    assert len(calls) == 3 * mod.dim == 24
    assert {J: calls.count(J) for J in calls} == {(1,): 8, (2,): 8, (1, 2): 8}


def test_sigma_crash_is_a_failing_record_in_every_sigma_check(monkeypatch):
    def crash(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(repmodule, "sigma_J", crash)
    by_name = {c["name"]: c for c in suites.sigma_checks([repmodule.ModuleVLambda(1, 0)])}
    for name in ("three-way-agreement", "involutions", "star-conjugation"):
        assert by_name[name]["status"] == "fail"
        assert "injected" in by_name[name]["witness"]["error"]
    assert by_name["T-braid"]["status"] == "pass"
