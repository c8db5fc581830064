"""Self-tests of the benchmark: tracing arithmetic, wrapper removal, the
correctness gate, the oracle, and the metric table in BENCHMARK.json.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from fractions import Fraction

import gate
import oracle
import run
import tracing
from workloads import WORKLOADS


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TracerTest(unittest.TestCase):
    def test_self_time_is_total_minus_wrapped_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap(lambda: _busy(0.03), "toy.inner")

        def outer_body():
            _busy(0.02)
            inner()
            inner()

        outer = tracer.wrap(outer_body, "toy.outer", span=True)
        t0 = time.perf_counter()
        outer()
        wall = time.perf_counter() - t0
        st_out, st_in = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
        probe = tracer.stats[tracing.PROBE]
        self.assertEqual((st_out.calls, st_in.calls), (1, 2))
        # the children's windows are their own time plus their wrapper's work
        self.assertAlmostEqual(st_out.self_s, st_out.s - st_in.s - probe.self_s, delta=2e-4)
        self.assertAlmostEqual(st_out.self_s, 0.02, delta=0.01)
        self.assertAlmostEqual(st_in.self_s, st_in.s, places=9)
        total = st_out.self_s + st_in.self_s + probe.self_s
        self.assertLessEqual(total, wall)
        self.assertAlmostEqual(total, wall, delta=1e-3)
        self.assertEqual(len(tracer.spans), 1)
        self.assertEqual(tracer.spans[0][1], "toy.outer")

    def test_recursion_counts_inclusive_time_once(self):
        tracer = tracing.Tracer()

        def body(n):
            _busy(0.005)
            return rec(n - 1) if n else 0

        rec = tracer.wrap(body, "toy.rec")
        t0 = time.perf_counter()
        rec(3)
        wall = time.perf_counter() - t0
        st = tracer.stats["toy.rec"]
        self.assertEqual(st.calls, 4)
        self.assertLessEqual(st.s, wall)
        self.assertLessEqual(st.self_s, st.s)

    def test_exception_still_booked(self):
        tracer = tracing.Tracer()

        def boom():
            raise ValueError("x")

        f = tracer.wrap(boom, "toy.boom")
        with self.assertRaises(ValueError):
            f()
        self.assertEqual(tracer.stats["toy.boom"].calls, 1)
        self.assertEqual(tracer._stack, [])


class WrapperRemovalTest(unittest.TestCase):
    def test_traced_calls_restore_every_original(self):
        modules = run._import_library()
        qarith, suites = modules[0], modules[-1]
        before = {id(m): dict(vars(m)) for m in modules}
        lp = qarith.LaurentPoly
        lp_before = dict(vars(lp))
        tracer, probes = tracing.Tracer(), tracing.Probes(keep_n={(1, 1)})
        patches = tracing.install(tracer, probes, modules)
        self.assertIsNot(vars(lp)["__mul__"], lp_before["__mul__"])
        try:
            result = suites.conjecture_task((1, 1))
        finally:
            patches.restore()
        self.assertTrue(all(c["status"] == "pass" for c in result["checks"]))
        self.assertTrue(patches.restored())
        for m in modules:
            for attr, original in before[id(m)].items():
                self.assertIs(vars(m)[attr], original, f"{m.__name__}.{attr}")
        self.assertIs(vars(lp)["__mul__"], lp_before["__mul__"])
        self.assertIs(vars(lp)["__rmul__"], lp_before["__mul__"])
        values = run.layer_values(tracer, probes)
        spec = json.loads(run.SPEC.read_text())
        layered = [m["name"] for m in spec["per_layer"]
                   if m["name"].split(".")[0] in ("qarith", "linalg", "repmodule", "crystal",
                                                  "coxeter", "cartan", "gkmodel")]
        self.assertEqual([n for n in layered if n not in values], [])
        self.assertGreater(values["qarith.divexact.calls"], 0)
        self.assertEqual(values["linalg.invert.triangular_ratio"], 1.0)
        self.assertEqual(sorted(probes.kept), [(1, 1, 1), (1, 1, 2)])


def _report(checks, **extra) -> str:
    failures = sum(1 for c in checks if c["status"] == "fail")
    return json.dumps(dict({"checks": checks, "failures": failures, "total_seconds": 1.0},
                           **extra))


class GateTest(unittest.TestCase):
    wl = WORKLOADS["module-5-5"]

    def good_checks(self):
        return [{"name": f"{c}(5,5)", "status": "pass", "seconds": 0.1}
                for c in ("involution-N1", "involution-N2", "braid", "cube")]

    def gate(self, returncode, text):
        return gate.cli_report(self.wl, returncode, text)[0]

    def test_accepts_a_correct_report(self):
        v = self.gate(0, _report(self.good_checks(), dim=216))
        self.assertEqual((v.expected, v.failed), (4, 0))

    def test_rejects_a_failing_check(self):
        checks = self.good_checks()
        checks[2]["status"] = "fail"
        self.assertEqual(self.gate(1, _report(checks, dim=216)).failed, 4)  # exit 1 too
        self.assertEqual(self.gate(0, _report(checks, dim=216)).failed, 1)

    def test_rejects_a_missing_check(self):
        self.assertEqual(self.gate(0, _report(self.good_checks()[:3], dim=216)).failed, 4)

    def test_rejects_nonzero_exit_and_garbage(self):
        self.assertEqual(self.gate(2, _report(self.good_checks(), dim=216)).failed, 4)
        self.assertEqual(self.gate(0, "{not json").failed, 4)
        self.assertEqual(self.gate(0, None).failed, 4)
        garbled = '{"checks": [1], "failures": 0, "total_seconds": 1}'
        self.assertEqual(self.gate(0, garbled).failed, 4)

    def test_rejects_wrong_dimension_and_inconsistent_failures(self):
        self.assertEqual(self.gate(0, _report(self.good_checks(), dim=215)).failed, 4)
        text = json.dumps({"checks": self.good_checks(), "failures": 1, "total_seconds": 1.0,
                           "dim": 216})
        self.assertEqual(self.gate(0, text).failed, 4)

    def test_suite_skips_only_orthogonal_union(self):
        wl = WORKLOADS["suite-all"]
        expected = wl.expected()
        self.assertEqual(len(expected.status), 79)
        checks = [{"name": n, "status": s, "seconds": 0.0} for n, s in expected.status.items()]
        self.assertEqual(gate.cli_report(wl, 0, _report(checks))[0].failed, 0)
        checks[0]["status"] = "skipped"
        self.assertEqual(gate.cli_report(wl, 0, _report(checks))[0].failed, 1)

    def test_sweep_expects_45_modules_and_180_checks(self):
        expected = WORKLOADS["sweep-d8"].expected()
        self.assertEqual((len(expected.modules), len(expected.status)), (45, 180))
        self.assertEqual(max(expected.dims.values()), 125)

    def test_determinism_ignores_only_timing(self):
        a = {"checks": [{"name": "x", "status": "pass", "seconds": 1.0}], "total_seconds": 2}
        b = {"checks": [{"name": "x", "status": "pass", "seconds": 3.0}], "total_seconds": 5}
        self.assertEqual(gate.strip_timing(a), gate.strip_timing(b))
        b["checks"][0]["witness"] = {"n": 1}
        self.assertNotEqual(gate.strip_timing(a), gate.strip_timing(b))


class OracleTest(unittest.TestCase):
    def test_accepts_true_and_rejects_one_planted_entry(self):
        repmodule = run._import_library()[2]
        mod = repmodule.ModuleVLambda(2, 1)
        n1 = oracle.specialise(mod.matrix("N1").rows)
        n2 = oracle.specialise(mod.matrix("N2").rows)
        self.assertTrue(all(c["status"] == "pass" for c in oracle.checks((2, 1), n1, n2)))
        row = next(r for r in n1 if len(r) > 1)
        col = next(iter(row))
        row[col] += Fraction(1, 7)
        statuses = {c["name"]: c["status"] for c in oracle.checks((2, 1), n1, n2)}
        self.assertEqual(statuses["oracle:involution-N1(2,1)"], "fail")
        self.assertEqual(statuses["oracle:involution-N2(2,1)"], "pass")


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_workloads(self):
        spec = json.loads(run.SPEC.read_text())
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for m in (m for key in ("end_to_end", "per_layer") for m in spec[key]):
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertTrue(all(len(w["why"]) <= 200 and "\n" not in w["why"]
                            for w in spec["workloads"]))
        self.assertTrue(all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) for p in spec["paths"]))


if __name__ == "__main__":
    sys.exit(unittest.main())
