"""The benchmark's workloads: the CLI command each one runs, the checks its
report must contain, and the in-process calls that command makes.

Every workload is one `qcactus` command run closed-loop, one at a time, with at
most two worker processes.  Only `suite-all` takes the seed; the two
conjecture workloads are deterministic and their inputs are fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

CONJECTURE_CHECKS = ("involution-N1", "involution-N2", "braid", "cube")

# Check names of `qcactus suite --name all`, by family, in report order.
SUITE_CHECKS = {
    "qarith": ("field-axioms", "binomial-symmetry", "pascal", "underline-symmetry",
               "composition-law"),
    "coxeter": ("kernel-agreement", "parabolic-intersections", "closed-factorization",
                "reduced-words", "star-involution"),
    "crystal": ("string-operators", "involutions", "array-bijection", "component-count",
                "zero-weight-count"),
    "module": ("three-way-agreement", "involutions", "star-conjugation", "T-braid",
               "orthogonal-union", "weight-bookkeeping", "crystal-shadow", "extremal-vectors",
               "T-extremal", "degree-bookkeeping", "operator-word-independence"),
    "gk": ("confluence", "associativity", "anti-homomorphism", "twist-involution",
           "basis-compatibility", "module-embedding", "product-of-components",
           "operator-relations"),
}
SUITE_RELATIONS_DEGREE = 4
SUITE_RELATIONS = ("commutator", "serre", "divided-power")
# The one check skipped by design: rank 2 has no orthogonal pair of subsets.
SUITE_SKIPPED = "module:orthogonal-union"

FAMILIES = ("involution", "braid", "cube", "qarith", "coxeter", "crystal", "module", "gk")


def weyl_dim(l1: int, l2: int) -> int:
    """Dimension of the simple sl3 module V(l1, l2), by the Weyl formula."""
    return (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2


def lambdas(max_degree: int) -> list[tuple[int, int]]:
    return sorted((l1, t - l1) for t in range(max_degree + 1) for l1 in range(t + 1))


def conjecture_names(lam: tuple[int, int]) -> list[str]:
    return [f"{c}({lam[0]},{lam[1]})" for c in CONJECTURE_CHECKS]


def family(check_name: str) -> str:
    """`involution-N1(3,3)` -> `involution`, `module:T-braid` -> `module`."""
    if ":" in check_name:
        return check_name.split(":", 1)[0]
    return check_name.split("(", 1)[0].split("-", 1)[0]


@dataclass(frozen=True)
class Expected:
    """What a correct report holds: status of every check, and the module
    dimension each conjecture check must report (None for suite checks)."""

    status: dict[str, str]
    dims: dict[str, int | None]
    modules: list[tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    jobs: int
    min_reps: int
    max_reps: int
    lams: tuple[tuple[int, int], ...] = ()

    @property
    def is_conjecture(self) -> bool:
        return bool(self.lams)

    def expected(self) -> Expected:
        if self.is_conjecture:
            status, dims = {}, {}
            for lam in self.lams:
                for n in conjecture_names(lam):
                    status[n] = "pass"
                    dims[n] = weyl_dim(*lam)
            # only the sweep command lists its modules in the report
            sweep = self.argv(0)[0] == "verify-conjecture"
            return Expected(status, dims, list(self.lams) if sweep else [])
        names = [f"{fam}:{c}" for fam in ("qarith", "coxeter", "crystal")
                 for c in SUITE_CHECKS[fam]]
        names += [f"module:relations({l1},{l2}):{r}"
                  for l1, l2 in _relations_lambdas() for r in SUITE_RELATIONS]
        names += [f"{fam}:{c}" for fam in ("module", "gk") for c in SUITE_CHECKS[fam]]
        status = {n: ("skipped" if n == SUITE_SKIPPED else "pass") for n in names}
        return Expected(status, dict.fromkeys(names), [])

    def run_calls(self, suites, seed: int, on_task=lambda task: None) -> list[dict]:
        """Make in process, serially, the library calls the CLI command makes,
        and return their check records in the form the CLI report has them."""
        if not self.is_conjecture:
            on_task(f"suite:all:{seed}")
            return suites.run_suite("all", seed)
        checks = []
        for lam in self.lams:
            on_task(f"lambda:{lam[0]},{lam[1]}")
            result = suites.conjecture_task(lam)
            for c in result["checks"]:
                checks.append(dict(c, dim=result["dim"]))
        return checks


def _relations_lambdas() -> list[tuple[int, int]]:
    # the module suite walks weights by total degree, then by l1
    return [(l1, t - l1) for t in range(SUITE_RELATIONS_DEGREE + 1) for l1 in range(t + 1)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-d8",
            why="routine acceptance sweep, 45 modules up to dim 125 on 2 workers: many medium "
                "Bareiss inversions and mat_muls, and the only workload using cli pool scheduling",
            argv=lambda seed: ["verify-conjecture", "--max-degree", "8", "--jobs", "2"],
            jobs=2,
            min_reps=3,
            max_reps=4,
            lams=tuple(lambdas(8)),
        ),
        Workload(
            name="module-5-5",
            why="one large module (dim 216) in one process: long-span, large-coefficient "
                "entries, so big-operand qarith work and linalg.invert dominate",
            argv=lambda seed: ["module", "verify", "--l1", "5", "--l2", "5",
                               "--suite", "conjecture"],
            jobs=1,
            min_reps=3,
            max_reps=4,
            lams=((5, 5),),
        ),
        Workload(
            name="suite-all",
            why="seeded property suites on the vector path with many small LaurentPoly "
                "products; the only workload covering coxeter, crystal, gkmodel and cartan",
            argv=lambda seed: ["suite", "--name", "all", "--seed", str(seed)],
            jobs=1,
            min_reps=2,  # the determinism gate compares two runs of one seed
            max_reps=3,
        ),
    )
}
