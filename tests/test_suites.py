import os
import signal
import time
from collections import Counter

import pytest

from qcactus import cartan, crystal, gkmodel, linalg, properties, qarith, repmodule, suites
from qcactus.crystal import Pattern


@pytest.mark.parametrize("lams, jobs, workers", [
    ([(0, 0), (1, 0), (0, 1)], 64, [2]),
    ([(0, 0), (1, 0)], 2, [2]),
    ([(0, 0), (1, 0)], 1, []),
    ([(0, 0), (1, 0)], 0, []),
    ([(0, 0), (1, 0)], -5, []),
    ([(1, 1)], 8, []),
    ([], 4, []),
])
def test_sweep_clamps_jobs(monkeypatch, pool_sizes, lams, jobs, workers):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)
    results = suites.pool_map(suites.conjecture_task, lams, jobs)
    assert pool_sizes == workers
    assert [tuple(r["lambda"]) for r in results] == lams
    assert all(c["status"] == "pass" for r in results for c in r["checks"])


@pytest.mark.parametrize("jobs, cpus, workers", [
    (64, 8, [5]),
    (64, 2, [2]),
    (3, 8, [3]),
    (64, 1, []),
])
def test_pool_map_clamps_jobs_to_items_and_cpus(monkeypatch, pool_sizes, jobs, cpus, workers):
    monkeypatch.setattr(suites, "usable_cpus", lambda: cpus)
    assert suites.pool_map(str, range(5), jobs) == ["0", "1", "2", "3", "4"]
    assert pool_sizes == workers


class RebuildFails(Exception):
    """An exception that pickles but does not unpickle: its one message does
    not fill the two arguments of its constructor."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def raise_(exc):
    raise exc


def raise_at_3(k):
    if k == 3:
        raise ValueError(f"bad item {k}")
    return k


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)


def test_pool_map_runs_a_closure_in_workers_and_keeps_item_order(two_cpus, pool_sizes):
    offset, parent = 1000, os.getpid()
    results = suites.pool_map(lambda k: (k + offset, os.getpid()), range(50), 2)
    assert pool_sizes == [2]
    assert [r[0] for r in results] == list(range(1000, 1050))
    assert parent not in {r[1] for r in results}


def test_pool_map_re_raises_a_worker_exception_with_its_message(two_cpus, pool_sizes):
    with pytest.raises(ValueError, match="^bad item 3$"):
        suites.pool_map(raise_at_3, range(10), 2)
    assert pool_sizes == [2]


def test_pool_map_names_the_exit_status_of_a_worker_that_ends_without_results(two_cpus,
                                                                           pool_sizes):
    with pytest.raises(ChildProcessError, match="exited with status 7 without results"):
        suites.pool_map(lambda k: os._exit(7) if k == 3 else k, range(10), 2)
    assert pool_sizes == [2]


def test_no_worker_outlives_a_failed_pool_map(two_cpus):
    with pytest.raises(ValueError):
        suites.pool_map(raise_at_3, range(10), 2)
    with pytest.raises(ChildProcessError):
        suites.pool_map(lambda k: os._exit(7) if k == 3 else k, range(10), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_pool_map_kills_and_reaps_its_workers(two_cpus, pool_sizes):
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            suites.pool_map(lambda k: time.sleep(60), range(4), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 30
    assert pool_sizes == [2]


def test_pool_map_sends_what_cannot_cross_as_an_error(two_cpus, pool_sizes):
    with pytest.raises(RuntimeError, match=r"^RebuildFails\('3/4'\)$"):
        suites.pool_map(lambda k: raise_(RebuildFails(3, 4)), range(4), 2)
    # a result that cannot be pickled fails in the worker, and that error crosses
    with pytest.raises(Exception, match="pickle"):
        suites.pool_map(lambda k: lambda: k, range(4), 2)
    assert pool_sizes == [2, 2]


def test_pool_map_takes_as_many_items_as_the_task_pipe_holds(two_cpus, pool_sizes):
    assert suites.pool_map(str, range(1 << 14), 2) == [str(k) for k in range(1 << 14)]
    with pytest.raises(ValueError, match="at most 16,384 items, got 16,385"):
        suites.pool_map(str, range((1 << 14) + 1), 2)
    assert pool_sizes == [2]


def test_pool_map_runs_in_process_without_fork(monkeypatch):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)
    monkeypatch.delattr(suites.os, "fork")
    assert suites.pool_map(lambda k: (k, os.getpid()), range(3), 2) == [
        (k, os.getpid()) for k in range(3)]


def test_usable_cpus_prefers_the_affinity_set(monkeypatch):
    monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 8)
    assert suites.usable_cpus() == 1
    monkeypatch.delattr(suites.os, "sched_getaffinity")
    assert suites.usable_cpus() == 8
    monkeypatch.setattr(suites.os, "cpu_count", lambda: None)
    assert suites.usable_cpus() == 1


def fake_families():
    """Five families in place of `properties.SUITES`, each naming its seed in its record."""
    return {key: lambda seed, key=key: [{"name": key, "seed": seed}]
            for key in properties.SUITES}


@pytest.mark.parametrize("name, jobs, workers", [
    ("all", 64, [2]),
    ("all", 2, [2]),
    ("all", 1, []),
    ("all", 0, []),
    ("coxeter", 64, []),
    ("coxeter", 1, []),
])
def test_run_suite_starts_a_pool_for_all_only(monkeypatch, pool_sizes, name, jobs, workers):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)
    monkeypatch.setattr(properties, "SUITES", fake_families())
    records = suites.run_suite(name, 7, jobs)
    assert pool_sizes == workers
    if name == "all":
        assert records == [{"name": f"{key}:{key}", "seed": 7} for key in properties.SUITES]
    else:
        assert records == [{"name": name, "seed": 7}]


def test_run_suite_all_on_a_pool_equals_the_serial_run(monkeypatch):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)
    strip = lambda records: [{k: v for k, v in r.items() if k != "seconds"} for r in records]
    pooled = suites.run_suite("all", 3, 2)
    assert len(pooled) == 79
    assert strip(pooled) == strip(suites.run_suite("all", 3, 1))


def test_relation_check_crash_is_a_failing_record(monkeypatch):
    def crash(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(repmodule, "act_divided", crash)
    names = [f"relations({l1},{l2}):{r}" for l1, l2 in suites.lambdas(4)
             for r in ("commutator", "serre", "divided-power")]
    checks = properties.module_suite()[:len(names)]
    assert [c["name"] for c in checks] == names
    for c in checks:
        assert c["status"] == "fail"
        assert "injected" in c["witness"]["error"]
        assert c["seconds"] >= 0


def _doubled_F(act):
    """`act` with every F_i^(r) doubled: [E_i, F_i] doubles, the Serre sums only scale."""
    two = qarith.RatFunc.scalar(2)
    return lambda i, kind, r, x: act(i, kind, r, x).scale(two) if kind == "F" else act(i, kind, r, x)


def _undivided(act):
    """`act` with X_i^r in place of X_i^(r): the commutator holds, Serre does not."""
    def power(i, kind, r, x):
        for _ in range(r):
            x = act(i, kind, 1, x)
        return x
    return power


@pytest.mark.parametrize("act, x, serre", [
    (repmodule.act_divided, repmodule.ModuleVLambda(1, 1).highest_vector(), {"kind": "F", "i": 1}),
    (gkmodel.act_divided, gkmodel.parse_expr("z12*z21"), {"kind": "E", "i": 1}),
], ids=["module", "model"])
def test_relation_helpers_name_the_first_failure_of_a_broken_action(act, x, serre):
    assert suites.commutator_failure(act, x) is None
    assert suites.serre_failure(act, x) is None
    assert suites.commutator_failure(_doubled_F(act), x) == {"i": 1, "j": 1}
    assert suites.serre_failure(_undivided(act), x) == serre


def test_operator_relations_fails_on_a_planted_generator_image(monkeypatch):
    # E_1 z12 = z2 dropped from the model's generator images
    monkeypatch.delitem(gkmodel._E_TABLE, (1, gkmodel.Z12))
    record = _one_check(monkeypatch, properties.gk_suite, "operator-relations")
    assert record["status"] == "fail"
    assert record["witness"]["relation"] == "[E,F]"
    assert set(record["witness"]) == {"iteration", "relation", "i", "j"}


def test_module_suite_builds_each_module_once(monkeypatch):
    built = []

    class Counted(repmodule.ModuleVLambda):
        def __init__(self, l1, l2):
            built.append((l1, l2))
            super().__init__(l1, l2)

    monkeypatch.setattr(repmodule, "ModuleVLambda", Counted)
    monkeypatch.setattr(suites, "_run", lambda *args: None)
    properties.module_suite()
    assert built == suites.lambdas(4)


def test_sigma_checks_tabulate_each_T_and_sigma_once(monkeypatch):
    t_calls, sigma_calls = [], []
    lusztig_T, matrix_sigma = repmodule.lusztig_T, repmodule.matrix_sigma

    def counting_T(i, sign, vec):
        t_calls.append((i, sign))
        return lusztig_T(i, sign, vec)

    def counting_sigma(J, mod):
        sigma_calls.append(J)
        return matrix_sigma(J, mod)

    monkeypatch.setattr(repmodule, "lusztig_T", counting_T)
    monkeypatch.setattr(repmodule, "matrix_sigma", counting_sigma)
    mod = repmodule.ModuleVLambda(1, 1)
    checks = suites.sigma_checks([mod])
    assert all(c["status"] == "pass" for c in checks)
    # one column of each of T1+, T1-, T2+ and T2- per basis vector, shared by
    # every sigma^J and by T-braid
    assert len(t_calls) == 4 * mod.dim == 32
    assert Counter(t_calls) == {(i, sign): 8 for i in (1, 2) for sign in "+-"}
    assert sorted(sigma_calls) == [(1,), (1, 2), (2,)]


def test_sigma_crash_is_a_failing_record_in_every_sigma_check(monkeypatch):
    def crash(*args):
        raise RuntimeError("injected")

    sigma = ("three-way-agreement", "involutions", "star-conjugation")
    # a crashing T_i reaches every check; a crashing sigma^J spares T-braid
    for target, crashed in (("lusztig_T", (*sigma, "T-braid")), ("matrix_sigma", sigma)):
        with monkeypatch.context() as patched:
            patched.setattr(repmodule, target, crash)
            checks = suites.sigma_checks([repmodule.ModuleVLambda(1, 0)])
        by_name = {c["name"]: c for c in checks}
        assert set(by_name) == {*sigma, "T-braid"}
        for name, rec in by_name.items():
            if name in crashed:
                assert rec["status"] == "fail", (target, name)
                assert "injected" in rec["witness"]["error"]
            else:
                assert rec["status"] == "pass", (target, name)


def test_braid_and_cube_share_their_products(monkeypatch):
    mod = repmodule.ModuleVLambda(1, 1)
    mod.matrix("N1"), mod.matrix("N2")
    products = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: products.append(1) or mat_mul(a, b))
    checks = suites.conjecture_checks(mod)
    assert [c["status"] for c in checks] == ["pass"] * 4
    # N1 N1 and N2 N2; M = N1 N2 and L = M N1, shared by braid and cube, with
    # R = P L P moved, not multiplied; then the cube as N1 (N2 (N1 R)), three
    # products that each have a factor N_i
    assert len(products) == 7


def test_conjecture_crash_is_a_failing_record_in_every_check_that_uses_it(monkeypatch):
    def crash(*args):
        raise RuntimeError("injected")

    def crash_n2(i, mod):
        return crash() if i == 2 else matrix_n(i, mod)

    matrix_n, mat_mul = repmodule.matrix_N, linalg.mat_mul
    mod = repmodule.ModuleVLambda(1, 1)
    n1, n2 = mod.matrix("N1"), mod.matrix("N2")

    def crash_in(product):
        # crash the products of one step; the involutions square N_i, M = N1 N2
        # and L = M N1 are shared by braid and cube (R = P L P is no product),
        # and the cube's chain starts from N1 R
        steps = {"M": lambda a, b: a is n1 and b is n2,
                 "L": lambda a, b: a is not n1 and b is n1,
                 "N1 R": lambda a, b: a is n1 and b is not n1 and b is not n2}
        return "mat_mul", lambda a, b: crash() if steps[product](a, b) else mat_mul(a, b)

    names = ("involution-N1(1,1)", "involution-N2(1,1)", "braid(1,1)", "cube(1,1)")
    for target, patch, fresh, crashed in (
        (repmodule, ("matrix_N", crash_n2), True, names[1:]),
        (linalg, crash_in("M"), False, names[2:]),
        (linalg, crash_in("L"), False, names[2:]),
        (linalg, crash_in("N1 R"), False, names[3:]),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, *patch)
            checks = suites.conjecture_checks(repmodule.ModuleVLambda(1, 1) if fresh else mod)
        assert [c["name"] for c in checks] == list(names)
        for rec in checks:
            if rec["name"] in crashed:
                assert rec["status"] == "fail", (patch[0], rec["name"])
                assert "injected" in rec["witness"]["error"]
            else:
                assert rec["status"] == "pass", (patch[0], rec["name"])


def _strip(records, *keys):
    return [{k: v for k, v in rec.items() if k not in keys} for rec in records]


def test_pair_task_records_equal_those_of_each_module_on_its_own():
    for l1, l2 in suites.lambdas(6):
        if l1 > l2:
            continue
        results = suites.conjecture_pair_task((l1, l2))
        mirrors = [(l1, l2)] if l1 == l2 else [(l1, l2), (l2, l1)]
        assert [r["lambda"] for r in results] == [list(lam) for lam in mirrors]
        for result, lam in zip(results, mirrors):
            alone = suites.conjecture_task(lam)
            assert (result["lambda"], result["dim"]) == (alone["lambda"], alone["dim"])
            assert _strip(result["checks"], "seconds") == _strip(alone["checks"], "seconds")


def test_block_built_n1_equals_the_whole_conjugate():
    # an oracle off the block path: C1 P1 C1^{-1} formed from the whole matrices
    for lam in suites.lambdas(6):
        mod = repmodule.ModuleVLambda(*lam)
        c, p = mod.matrix("C1"), mod.matrix("P1")
        whole = linalg.mat_mul(linalg.mat_mul(c, p), linalg.invert(c))
        assert mod.matrix("N1") == whole, lam


def test_the_mirror_in_a_pair_task_inverts_no_block(monkeypatch):
    inverted = []
    invert, task_result = linalg.invert, suites._task_result
    monkeypatch.setattr(linalg, "invert", lambda a: inverted.append(len(a)) or invert(a))
    calls = {}

    def counted(lam, families):
        start = len(inverted)
        result = task_result(lam, families)
        calls[lam] = len(inverted) - start
        return result

    monkeypatch.setattr(suites, "_task_result", counted)
    for l1, l2 in suites.lambdas(6):
        if l1 < l2:
            repmodule.N1_BLOCKS.clear()
            suites.conjecture_pair_task((l1, l2))
            assert calls[(l1, l2)] > 0 and calls[(l2, l1)] == 0, (l1, l2)
    # a module proved on its own starts on an empty block memo
    suites.conjecture_pair_task((1, 2))
    suites.conjecture_task((2, 1))
    assert calls[(2, 1)] > 0


def test_a_c1_entry_outside_its_weight_block_fails_every_check_with_its_entry(monkeypatch):
    mod = repmodule.ModuleVLambda(1, 1)
    row, col = mod.basis[0], mod.basis[1]
    assert mod.weight_of(row) != mod.weight_of(col)
    _plant(monkeypatch, "matrix_C", (1,), row, col)
    checks = suites.conjecture_task((1, 1))["checks"]
    assert [c["status"] for c in checks] == ["fail"] * 4
    for rec in checks:
        assert "C1 has an entry outside its weight block" in rec["witness"]["error"]
        assert f"row {row}, column {col}" in rec["witness"]["error"]


@pytest.mark.parametrize("row", [
    # weight (1,0), which E1 reaches only from weight (-1,1)
    Pattern(0, 0, 0, 1, 1, 1),
    # weight (-1,-2), which E1 reaches from no weight: (-1,-2) - alpha1 is none
    Pattern(0, 0, 1, 2, 0, 0),
], ids=["row-above-a-weight", "row-above-no-weight"])
def test_an_e1_entry_outside_its_weight_block_fails_the_1_string_records(monkeypatch, row):
    # the raising operator E1 that the 1-strings of V(2,1) are cut from gains
    # an entry from the highest weight into `row`; the matrix is told from
    # the others by its value
    mod = repmodule.ModuleVLambda(2, 1)
    col = mod.highest_pattern
    assert mod.weight_of(row) != cartan.shift(mod.weight_of(col), mod.datum.simple_root(1))
    build = repmodule.operator_matrix
    clean = build(mod, lambda m: repmodule.act_divided(1, "E", 1, mod.basis_vector(m)))

    def planted(module, fn):
        a = build(module, fn)
        if a == clean:
            a[mod.index[row]][mod.index[col]] = qarith.RatFunc.one()
        return a

    monkeypatch.setattr(repmodule, "operator_matrix", planted)
    checks = suites.sigma_checks([repmodule.ModuleVLambda(2, 1)])
    assert [(c["name"], c["status"]) for c in checks] == [
        ("three-way-agreement", "fail"), ("involutions", "fail"),
        ("star-conjugation", "fail"), ("T-braid", "pass")]
    for rec in checks[:3]:
        assert (f"E1 has an entry outside its weight block at row {row}, column {col}"
                in rec["witness"]["error"])


def test_an_in_block_c1_fault_on_v21_fails_only_its_records(monkeypatch):
    # the fault, on the highest line, is planted in C1 and, moved by the outer
    # involution, in C2, so that N2 = P N1 P holds and only the faulty N1
    # blocks fail braid and cube; V(1,2), proved first in the task, leaves its
    # clean blocks in the memo
    top = Pattern(0, 0, 0, 0, 2, 1)
    _plant(monkeypatch, "matrix_C", (1,), top, top, lam=(2, 1))
    _plant(monkeypatch, "matrix_C", (2,), crystal.sigma_outer(top), crystal.sigma_outer(top),
           lam=(2, 1))
    direct, mirror = suites.conjecture_pair_task((1, 2))
    assert [c["status"] for c in direct["checks"]] == ["pass"] * 4
    assert [(c["name"], c["status"]) for c in mirror["checks"]] == [
        ("involution-N1(2,1)", "pass"), ("involution-N2(2,1)", "pass"),
        ("braid(2,1)", "fail"), ("cube(2,1)", "fail")]


def test_a_module_on_a_warm_dot_memo_equals_it_on_a_cold_one(monkeypatch):
    # a pool worker keeps the dot products of every module it has checked;
    # what it held before must not reach the records or the matrices; the
    # test starts on an empty memo of its own
    def run():
        return (_strip(suites.conjecture_task((3, 3))["checks"], "seconds"),
                repmodule.ModuleVLambda(3, 3).matrix("N1"))

    cold = run()
    monkeypatch.setattr(linalg, "_DOTS", {})
    for lam in suites.lambdas(6):
        if lam[0] <= lam[1]:
            suites.conjecture_pair_task(lam)
    filled = len(linalg._DOTS)
    warm = run()
    assert 0 < filled < linalg.DOT_MEMO_CAP
    assert [c["status"] for c in cold[0]] == ["pass"] * 4
    assert warm == cold


def test_a_planted_c2_fault_fails_every_check_of_n2_with_its_entry(monkeypatch):
    basis = crystal.enumerate_component(2, 2)
    row, col = basis[3], basis[17]
    _plant(monkeypatch, "matrix_C", (2,), row, col, lam=(2, 2))
    checks = suites.conjecture_task((2, 2))["checks"]
    assert [c["status"] for c in checks] == ["pass", "fail", "fail", "fail"]
    for rec in checks[1:]:
        assert "C2 differs from P C1 P" in rec["witness"]["error"]
        assert f"row {row}, column {col}" in rec["witness"]["error"]


def test_conjecture_gcds_need_no_fallback(monkeypatch):
    # every gcd of a module computation is found by the heuristic gcd; the
    # pseudo-remainder sequence is kept only as a fallback
    def no_fallback(fa, fb):
        raise AssertionError("the pseudo-remainder fallback ran")

    monkeypatch.setattr(qarith, "_prs_gcd", no_fallback)
    result = suites.conjecture_task((3, 3))
    assert [c["status"] for c in result["checks"]] == ["pass"] * 4


def _one_check(monkeypatch, suite, name):
    """The record of one check of a suite, the other checks not run."""
    run = suites._run
    monkeypatch.setattr(
        suites, "_run",
        lambda checks, check, anchor, fn: run(checks, check, anchor, fn)
        if check == name else None,
    )
    (record,) = [c for c in suite(3) if c["name"] == name]
    return record


def _composition_law(monkeypatch):
    """The record of qarith's composition-law check, the other checks skipped."""
    return _one_check(monkeypatch, properties.qarith_suite, "composition-law")


def test_composition_law_reports_a_planted_fault_with_its_first_witness(monkeypatch):
    # c(9,4,3) times v^2: the pairs s + t = 3 at l = 9 met at smaller l hold
    # the true c(.,4,3), so the fault shows where the product first disagrees
    kash_coeff = properties.kash_coeff

    def planted(kind, l, k, s):
        c = kash_coeff(kind, l, k, s)
        return c * qarith.RatFunc.monomial(2) if (kind, l, k, s) == ("low", 9, 4, 3) else c

    monkeypatch.setattr(properties, "kash_coeff", planted)
    record = _composition_law(monkeypatch)
    assert record["status"] == "fail"
    assert record["witness"] == {"kind": "low", "l": 9, "k": 4, "s": 1, "t": 2}


def test_product_of_components_names_a_planted_stray_monomial(monkeypatch):
    # without the basis monomial of (1,0,0,0,0,1), the product z1 * v2 of the
    # (1,0) and (0,1) components leaves the (1,1) basis
    b_monomial = gkmodel.b_monomial
    dropped = Pattern(1, 0, 0, 0, 0, 1)
    monkeypatch.setattr(gkmodel, "b_monomial",
                        lambda m: repmodule.ModuleVector() if m == dropped else b_monomial(m))
    record = _one_check(monkeypatch, properties.gk_suite, "product-of-components")
    assert record["status"] == "fail"
    assert record["witness"] == {"a": "1,0,0,0,0,0", "b": "0,0,0,0,0,1", "monomial": "z1*v2"}


def _plant(monkeypatch, builder, at, row, col, lam=(1, 1)):
    """Add 1 to the entry at the patterns (row, col) of the matrix that
    `repmodule.<builder>` builds from the leading arguments `at` for the
    module `lam`; every other matrix is left as built."""
    build = getattr(repmodule, builder)

    def planted(*args):
        a, mod = build(*args), args[-1]
        if args[:-1] == at and (mod.l1, mod.l2) == lam:
            r, c = mod.index[row], mod.index[col]
            a[r][c] = a[r][c] + qarith.RatFunc.one()
        return a

    monkeypatch.setattr(repmodule, builder, planted)


ADJOINT = crystal.enumerate_component(1, 1)


def _lead(col):
    """The (row, col) of the entry of N1 and sigma1 in the row of
    sigma_1(col), 1 at v = 0."""
    return crystal.sigma_i(1, col), col


@pytest.mark.parametrize("n_col, sigma_col, named, pair", [
    (-1, None, -1, "string/N"),
    (None, -1, -1, "string/T"),
    (-1, -1, -1, "string/N"),
    (-1, 0, 0, "string/T"),
    (0, -1, 0, "string/N"),
])
def test_three_way_agreement_names_the_first_planted_column(monkeypatch, n_col, sigma_col,
                                                            named, pair):
    if n_col is not None:
        _plant(monkeypatch, "matrix_N", (1,), *_lead(ADJOINT[n_col]))
    if sigma_col is not None:
        _plant(monkeypatch, "matrix_sigma", ((1,),), *_lead(ADJOINT[sigma_col]))
    record = suites.sigma_checks([repmodule.ModuleVLambda(1, 1)])[0]
    assert record["name"] == "three-way-agreement" and record["status"] == "fail"
    assert record["witness"] == {"lambda": [1, 1], "i": 1, "m": str(ADJOINT[named]),
                                 "pair": pair}


def test_crystal_shadow_names_a_planted_column(monkeypatch):
    # the lead entry of the last column becomes 2 at v = 0
    _plant(monkeypatch, "matrix_N", (1,), *_lead(ADJOINT[-1]))
    record = _one_check(monkeypatch, lambda seed: properties.module_suite(), "crystal-shadow")
    assert record["status"] == "fail"
    witness = record["witness"]
    assert {k: witness[k] for k in ("lambda", "i", "m")} == {
        "lambda": [1, 1], "i": 1, "m": str(ADJOINT[-1])}
    assert "row" not in witness


def test_weight_bookkeeping_names_a_planted_column(monkeypatch):
    # T1+ sends the highest weight (1,1) to (-1,2), never to the lowest (-1,-1)
    highest = Pattern(0, 0, 0, 0, 1, 1)
    _plant(monkeypatch, "matrix_T", (1, "+"), crystal.sigma_outer(highest), highest)
    record = _one_check(monkeypatch, lambda seed: properties.module_suite(), "weight-bookkeeping")
    assert record["status"] == "fail"
    assert record["witness"] == {"lambda": [1, 1], "op": "T", "i": 1, "m": str(highest)}


def test_composition_law_looks_up_a_first_factor_once_per_s(monkeypatch):
    # per (l, k, s, kind): c(l,k,s) once, then c(l,k,s+t) and c(l,k-s,t) per t
    expected = sum(2 * (1 + 2 * sum(1 for t in range(-l, l + 1) if s * t >= 0))
                   for l in range(properties.MAX_STRING_LENGTH + 1)
                   for k in range(l + 1) for s in range(-l, l + 1))
    calls = []
    kash_coeff = properties.kash_coeff
    monkeypatch.setattr(properties, "kash_coeff",
                        lambda *key: calls.append(key) or kash_coeff(*key))
    assert _composition_law(monkeypatch)["status"] == "pass"
    assert len(calls) == expected == 68_978


def test_composition_law_forms_each_distinct_product_once(monkeypatch):
    pairs = set()
    for l in range(properties.MAX_STRING_LENGTH + 1):
        for k in range(l + 1):
            for s in range(-l, l + 1):
                for t in range(-l, l + 1):
                    if s * t >= 0:
                        for kind in ("low", "up"):
                            pairs.add((qarith.kash_coeff(kind, l, k, s),
                                       qarith.kash_coeff(kind, l, k - s, t)))
    calls = []
    mul = qarith.RatFunc.__mul__
    monkeypatch.setattr(qarith.RatFunc, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert _composition_law(monkeypatch)["status"] == "pass"
    assert len(calls) == len(pairs)


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_randint_draws_the_stream_of_random_randint(seed):
    # every range the crystal suite draws from; rng.choice((1, 2)) is (1, 2)
    for a, b in ((0, 20), (-20, 20), (-10, 10), (1, 2)):
        expected, rng = properties.random.Random(seed), properties.random.Random(seed)
        randint = properties._randint(rng)
        assert [randint(a, b) for _ in range(10_000)] == [
            expected.randint(a, b) for _ in range(10_000)
        ]
        assert rng.getstate() == expected.getstate()
    expected, rng = properties.random.Random(seed), properties.random.Random(seed)
    randint = properties._randint(rng)
    assert [randint(1, 2) for _ in range(1000)] == [expected.choice((1, 2)) for _ in range(1000)]


def test_run_records_cpu_seconds():
    # a check that waits without computing records almost no time, as one
    # waiting for a CPU in a busy pool does
    checks = []
    suites._run(checks, "sleeper", "sleeps 0.2 s", lambda: time.sleep(0.2))
    assert checks[0]["status"] == "pass" and checks[0]["seconds"] < 0.1
