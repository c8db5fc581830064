"""The checks the module commands run, the tasks of a sweep, the process pool
and the check runner of every suite.

Each check family returns a list of check records {name, anchor, status,
witness?, seconds}, where `seconds` is the CPU time the check took in its
process; the CLI assembles them into reports and the test suite asserts on
them.  Anchors state the identity being verified.  The seeded property suites
are in `properties`, which only `run_suite` imports.
"""

from __future__ import annotations

import functools
import os
import time

from . import linalg, repmodule
from .qarith import RatFunc, q2_binomial

#: the seeded property suites of `properties`, in the order `all` runs them
SUITE_NAMES = ("qarith", "coxeter", "crystal", "module", "gk")


def _run(checks: list, name: str, anchor: str, fn) -> None:
    t0 = time.process_time()
    try:
        witness = fn()
        status = "pass" if witness is None else "fail"
    except Exception as exc:  # a crash is a failing check, not a crashed run
        witness = {"error": repr(exc)}
        status = "fail"
    record = {
        "name": name,
        "anchor": anchor,
        "status": status,
        "seconds": round(time.process_time() - t0, 4),
    }
    if witness:
        record["witness"] = witness
    checks.append(record)


def _skip(checks: list, name: str, anchor: str, reason: str) -> None:
    checks.append(
        {"name": name, "anchor": anchor, "status": "skipped", "witness": {"reason": reason},
         "seconds": 0.0}
    )


# -- the symbolic modules ----------------------------------------------------------------


def lambdas(max_degree: int) -> list[tuple[int, int]]:
    """Every (l1, l2) with l1 + l2 <= max_degree, by total degree, then by l1."""
    return [(l1, total - l1) for total in range(max_degree + 1) for l1 in range(total + 1)]


def commutator_failure(act, x) -> dict | None:
    """The first (i, j) with [E_i, F_j] x != delta_ij (K_i - K_i^-1)/(q_i - q_i^-1) x,
    for a divided-power action `act(i, kind, r, x)` on an element keyed by patterns."""
    for i in (1, 2):
        for j in (1, 2):
            lhs = act(i, "E", 1, act(j, "F", 1, x)) - act(j, "F", 1, act(i, "E", 1, x))
            rhs = repmodule.ModuleVector()
            if i == j:
                for m, c in x.items():
                    rhs.add(m, c * repmodule.cartan_scalar(i, m))
            if lhs != rhs:
                return {"i": i, "j": j}
    return None


def serre_failure(act, x) -> dict | None:
    """The first (kind, i) with sum_r (-1)^r X_i^(r) X_j X_i^(2-r) x != 0, where
    X = E or F and j = 3 - i, for an action as in `commutator_failure`."""
    for kind in ("E", "F"):
        for i in (1, 2):
            total = repmodule.ModuleVector()
            for r in range(3):
                term = act(i, kind, r, act(3 - i, kind, 1, act(i, kind, 2 - r, x)))
                total = total - term if r % 2 else total + term
            if not total.is_zero():
                return {"kind": kind, "i": i}
    return None


def relations_checks(mod: repmodule.ModuleVLambda) -> list[dict]:
    """The commutator, both Serre relations and divided-power composition on
    every basis vector of one module; one record per relation."""
    checks: list[dict] = []
    act = repmodule.act_divided

    def on_basis(failure, relation):
        for m in mod.basis:
            fail = failure(act, mod.basis_vector(m))
            if fail:
                return {"relation": relation, **fail, "pattern": str(m)}
        return None

    def divided():
        bound = mod.l1 + mod.l2 + 2
        for m in mod.basis:
            b = mod.basis_vector(m)
            for kind in ("E", "F"):
                for i in (1, 2):
                    powers = [act(i, kind, k, b) for k in range(bound + 1)]
                    for r in range(bound + 1):
                        for s in range(bound + 1 - r):
                            lhs = act(i, kind, r, powers[s])
                            rhs = powers[r + s].scale(RatFunc.of_poly(q2_binomial(r + s, r)))
                            if lhs != rhs:
                                return {
                                    "relation": "divided-power composition",
                                    "kind": kind,
                                    "i": i,
                                    "r": r,
                                    "s": s,
                                    "pattern": str(m),
                                }
        return None

    _run(checks, "commutator", "[E_i,F_j] = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)",
         lambda: on_basis(commutator_failure, "[E_i,F_j]"))
    _run(checks, "serre", "quantum Serre relations", lambda: on_basis(serre_failure, "serre"))
    _run(checks, "divided-power", "E_i^(r)E_i^(s) = [r+s choose r] E_i^(r+s)", divided)
    return checks


def sigma_checks(modules, label: str = "") -> list[dict]:
    """The sigma checks that hold module by module, each run over every module
    in `modules`; `label` is appended to each check name."""
    checks: list[dict] = []

    def over_modules(check):
        def fn():
            for mod in modules:
                witness = check(mod)
                if witness is not None:
                    return {"lambda": [mod.l1, mod.l2], **witness}
            return None

        return fn

    def sigma(mod, J):
        return mod.matrix("sigma" + "".join(map(str, J)))

    def three_way(mod):
        for i in (1, 2):
            n, flip, t = mod.matrix(f"N{i}"), mod.matrix(f"flip{i}"), sigma(mod, (i,))
            if flip == n and flip == t:
                continue
            # the first column, in basis order, where either pair differs;
            # at one column "string/N" sorts before "string/T"
            j, pair = min((j, pair) for other, pair in ((n, "string/N"), (t, "string/T"))
                          for a, b in zip(flip, other)
                          for j in a.keys() | b.keys() if a[j] != b[j])
            return {"i": i, "m": str(mod.basis[j]), "pair": pair}
        return None

    def involutions(mod):
        for J in ((1,), (2,), (1, 2)):
            s = sigma(mod, J)
            if not linalg.is_identity(linalg.mat_mul(s, s)):
                return {"J": list(J)}
        return None

    def conjugation(mod):
        full, one, two = (sigma(mod, J) for J in ((1, 2), (1,), (2,)))
        if linalg.mat_mul(full, one) != linalg.mat_mul(two, full):
            return {"relation": "sigma^I sigma^1 = sigma^2 sigma^I"}
        if linalg.mat_mul(full, two) != linalg.mat_mul(one, full):
            return {"relation": "sigma^I sigma^2 = sigma^1 sigma^I"}
        return None

    def braid(mod):
        for sign in ("+", "-"):
            t1, t2 = mod.matrix(f"T1{sign}"), mod.matrix(f"T2{sign}")
            lhs = linalg.mat_mul(t1, linalg.mat_mul(t2, t1))
            if lhs != linalg.mat_mul(t2, linalg.mat_mul(t1, t2)):
                return {"sign": sign}
        return None

    # single-module reports (module verify) carry the short anchor
    involution_anchor = "sigma^J o sigma^J = 1" + ("" if label else " for J in {1},{2},{1,2}")
    _run(checks, f"three-way-agreement{label}",
         "string flips = conjugated permutation = normalized braid symmetry",
         over_modules(three_way))
    _run(checks, f"involutions{label}", involution_anchor, over_modules(involutions))
    _run(checks, f"star-conjugation{label}", "sigma^I sigma^K = sigma^(K*) sigma^I",
         over_modules(conjugation))
    _run(checks, f"T-braid{label}", "T1 T2 T1 = T2 T1 T2, both signs", over_modules(braid))
    return checks



def conjecture_checks(mod: repmodule.ModuleVLambda) -> list[dict]:
    """Involutivity, the braid relation and the sixth-power identity of the
    composed involutions on one module, exactly."""
    l1, l2 = mod.l1, mod.l2
    checks: list[dict] = []

    def n(i):
        return mod.matrix(f"N{i}")

    def involution(i):
        def fn():
            if not linalg.is_identity(linalg.mat_mul(n(i), n(i))):
                return {"lambda": [l1, l2], "i": i}
            return None

        return fn

    @functools.cache
    def shared():
        # L = N1 N2 N1 and R = N2 N1 N2, shared by braid and cube.  N2 is
        # P N1 P (repmodule.matrix_N), so R = P L P is L with its entries moved;
        # a crash is not cached, so it fails both checks
        left = linalg.mat_mul(linalg.mat_mul(n(1), n(2)), n(1))
        return left, linalg.permute(left, mod.outer)

    def braid():
        left, right = shared()
        if left != right:
            return {"lambda": [l1, l2]}
        return None

    def cube():
        # (N1 N2)^3 = N1 N2 N1 R, formed right to left so that every product
        # has a factor N_i, whose entries are small
        chain = shared()[1]
        for i in (1, 2, 1):
            chain = linalg.mat_mul(n(i), chain)
        if not linalg.is_identity(chain):
            return {"lambda": [l1, l2]}
        return None

    _run(checks, f"involution-N1({l1},{l2})", "(N1)^2 = 1", involution(1))
    _run(checks, f"involution-N2({l1},{l2})", "(N2)^2 = 1", involution(2))
    _run(checks, f"braid({l1},{l2})", "N1 N2 N1 = N2 N1 N2", braid)
    _run(checks, f"cube({l1},{l2})", "(N1 N2)^3 = 1", cube)
    return checks


#: the check families that run on one module, in report order
MODULE_FAMILIES = {
    "relations": relations_checks,
    "sigma": lambda mod: sigma_checks([mod], f"({mod.l1},{mod.l2})"),
    "conjecture": conjecture_checks,
}


def _task_result(lam: tuple[int, int], families: tuple[str, ...]) -> dict:
    t0 = time.perf_counter()
    mod = repmodule.ModuleVLambda(*lam)
    checks = [rec for family in families for rec in MODULE_FAMILIES[family](mod)]
    return {"lambda": list(lam), "dim": mod.dim, "checks": checks,
            "seconds": round(time.perf_counter() - t0, 4)}


def module_task(lam: tuple[int, int], families: tuple[str, ...]) -> dict:
    """Build the module of highest weight `lam` and run the named families of
    MODULE_FAMILIES on it, in the order given; `seconds` is wall time.  It
    empties the N1 block memo first, so a module proved on its own forms every
    block of its N1 from its own C1 and P1."""
    repmodule.N1_BLOCKS.clear()
    return _task_result(lam, families)


def conjecture_task(lam: tuple[int, int]) -> dict:
    """The conjecture checks of one module, proved on that module alone."""
    return module_task(lam, ("conjecture",))


def conjecture_pair_task(lam: tuple[int, int]) -> list[dict]:
    """One sweep task for l1 <= l2: the conjecture checks of V(l1,l2) and, when
    l1 < l2, of V(l2,l1), each proved on its own module.  The N1 block memo is
    kept: every weight block of V(l2,l1) is a block of V(l1,l2), and a pool
    worker reuses the blocks of the tasks it has already run."""
    l1, l2 = lam
    return [_task_result(mirror, ("conjecture",))
            for mirror in dict.fromkeys([(l1, l2), (l2, l1)])]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items, jobs: int) -> list:
    """`fn` on every item, results in the order given, on `jobs` worker
    processes clamped to between 1 and the smaller of the number of items and
    the usable CPUs.  With one worker it runs in this process.  Each worker
    keeps its own `linalg` dot memo and `repmodule` N1 block memo for its
    lifetime, so it reuses the dot products and blocks of every item it has
    already run (`module_task` empties the block memo); a serial run keeps
    one of each over all the items."""
    items = list(items)
    jobs = max(1, min(jobs, len(items), usable_cpus()))
    if jobs == 1:
        return [fn(item) for item in items]
    # imported here: the process pool is half the import time of the CLI
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))



def _family(task: tuple[str, int]) -> list[dict]:
    """The records of one family of `run_suite("all", seed)`, named `key:check`.
    Only the key and the seed cross to a worker process."""
    from . import properties

    key, seed = task
    return [dict(rec, name=f"{key}:{rec['name']}") for rec in properties.SUITES[key](seed)]


def run_suite(name: str, seed: int = 1, jobs: int = 1) -> list[dict]:
    """The records of one named suite, or of every family in `SUITE_NAMES`
    order for `all`.  `all` runs its families on up to `jobs` worker
    processes, and its records do not depend on `jobs`; a single suite runs in
    this process."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITE_NAMES)} or 'all'")
    # imported here, as only this command runs the suites, and before the pool
    # starts, so that its workers inherit the module instead of compiling it
    from . import properties

    if name == "all":
        families = pool_map(_family, [(key, seed) for key in SUITE_NAMES], jobs)
        return [rec for records in families for rec in records]
    return properties.SUITES[name](seed)
