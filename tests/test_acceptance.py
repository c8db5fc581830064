"""Acceptance gate: every criterion at its stated scale, one line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion verdicts.
All arithmetic is exact; there are no tolerances anywhere.
"""

import os
import time

import pytest

from qcactus import crystal, properties, suites
from qcactus.properties import weyl_dimension


def _verdict(number: int, description: str, ok: bool, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({seconds:.1f}s) {description}")
    assert ok, f"criterion {number} failed: {description}"


def _all_pass(checks) -> bool:
    return all(c["status"] in ("pass", "skipped") for c in checks)


@pytest.fixture(scope="module")
def module_suite():
    """The records of the module suite, split into the relations records and
    the rest, and the seconds it took."""
    start = time.time()
    checks = properties.module_suite()
    is_relation = lambda c: c["name"].startswith("relations(")
    return ([c for c in checks if is_relation(c)], [c for c in checks if not is_relation(c)],
            time.time() - start)


def test_criterion_1_conjecture_sweep():
    start = time.time()
    results = suites.pool_map(suites.conjecture_task, sorted(suites.lambdas(8)),
                              min(8, os.cpu_count() or 1))
    ok = all(_all_pass(r["checks"]) for r in results)
    assert len(results) == 45
    assert max(r["dim"] for r in results) == 125
    elapsed = time.time() - start
    _verdict(
        1,
        "(N^i)^2 = 1 and (N^1 N^2)^3 = 1 exactly, all 45 modules with l1+l2 <= 8",
        ok and elapsed < 900,
        elapsed,
    )


def test_criterion_2_quantum_relations_gate(module_suite):
    checks, _, seconds = module_suite
    assert len(checks) == 15 * 3
    _verdict(
        2,
        "commutator, Serre, divided-power composition exact on all l1+l2 <= 4",
        _all_pass(checks),
        seconds,
    )


def test_criteria_3_and_4_sigma_relations(module_suite):
    _, checks, seconds = module_suite
    by_name = {c["name"]: c for c in checks}
    three_way_ok = by_name["three-way-agreement"]["status"] == "pass"
    _verdict(
        3,
        "string flip = N-matrix = normalized symmetry on every basis vector, "
        "both prefactor branches, l1+l2 <= 4",
        three_way_ok,
        seconds,
    )
    relations_ok = (
        by_name["involutions"]["status"] == "pass"
        and by_name["star-conjugation"]["status"] == "pass"
        and by_name["T-braid"]["status"] == "pass"
        and by_name["orthogonal-union"]["status"] == "skipped"
    )
    _verdict(
        4,
        "sigma^J involutions, sigma^I sigma^i = sigma^(i*) sigma^I, T-braid; "
        "orthogonal-union vacuous in rank 2",
        relations_ok and _all_pass(checks),
        seconds,
    )


def test_criterion_5_crystal_suite():
    start = time.time()
    checks = properties.crystal_suite(seed=2024)
    _verdict(
        5,
        "string-operator and involution identities on 10^4 seeded patterns; "
        "array bijection roundtrips",
        _all_pass(checks),
        time.time() - start,
    )


def test_criterion_6_gk_suite():
    start = time.time()
    checks = properties.gk_suite(seed=2024)
    _verdict(
        6,
        "confluence on 10^3 words, twist anti-involution, basis compatibility, "
        "module embedding",
        _all_pass(checks),
        time.time() - start,
    )


def test_criterion_7_coxeter_kernels():
    start = time.time()
    checks = properties.coxeter_suite(seed=1)
    elapsed = time.time() - start
    kernel_ok = next(c for c in checks if c["name"] == "kernel-agreement")["status"] == "pass"
    _verdict(
        7,
        "kernel formula = brute force for every J in all nine types, under a minute",
        kernel_ok and _all_pass(checks) and elapsed < 60,
        elapsed,
    )


def test_criterion_8_counting():
    start = time.time()
    ok = True
    for l1 in range(13):
        for l2 in range(13 - l1):
            expected = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
            ok = ok and len(crystal.enumerate_component(l1, l2)) == expected
            ok = ok and weyl_dimension(l1, l2) == expected
    for l1 in range(11):
        for l2 in range(11 - l1):
            count = sum(
                1 for m in crystal.enumerate_component(l1, l2)
                if crystal.weight_pair(m) == (0, 0)
            )
            expected = min(l1, l2) + 1 if (l1 - l2) % 3 == 0 else 0
            ok = ok and count == expected
    _verdict(
        8,
        "component sizes match the Weyl oracle to degree 12; zero-weight counts "
        "to degree 10",
        ok,
        time.time() - start,
    )


def test_criterion_9_string_coefficients():
    start = time.time()
    checks = properties.qarith_suite(seed=1)
    by_name = {c["name"]: c for c in checks}
    ok = (
        by_name["underline-symmetry"]["status"] == "pass"
        and by_name["composition-law"]["status"] == "pass"
        and _all_pass(checks)
    )
    _verdict(
        9,
        "shift-coefficient symmetry and composition law, both kinds, l <= 12, exact",
        ok,
        time.time() - start,
    )
