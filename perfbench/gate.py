"""Correctness gate: a report counts only if it holds exactly the expected
checks, each with its expected status and module dimension.

`Verdict.failed` counts the expected checks that failed or are missing.  A
nonzero exit, a report that cannot be parsed, an inconsistent `failures`
field or a wrong set of check names fails every expected check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from workloads import Expected, Workload, weyl_dim


@dataclass
class Verdict:
    expected: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail_all(self, problem: str) -> "Verdict":
        self.failed = self.expected
        self.problems.append(problem)
        return self


def check_records(checks: list[dict], expected: Expected) -> Verdict:
    """Gate a list of check records against what the workload expects."""
    verdict = Verdict(len(expected.status))
    names = [c.get("name") for c in checks]
    if sorted(names, key=str) != sorted(expected.status):
        missing = sorted(set(expected.status) - set(names))
        extra = sorted(set(names) - set(expected.status), key=str)
        return verdict.fail_all(
            f"wrong check names: {len(names)} records, missing {missing[:5]}, extra {extra[:5]}"
        )
    for c in checks:
        name = c["name"]
        want = expected.status[name]
        if c.get("status") != want:
            verdict.failed += 1
            verdict.problems.append(f"{name}: status {c.get('status')!r}, expected {want!r}")
        elif expected.dims[name] is not None and c.get("dim") != expected.dims[name]:
            verdict.failed += 1
            verdict.problems.append(f"{name}: dim {c.get('dim')}, expected {expected.dims[name]}")
    return verdict


def cli_report(workload: Workload, returncode: int,
               text: str | None) -> tuple[Verdict, dict | None]:
    """Gate one CLI run from its exit code and the text of its report file."""
    expected = workload.expected()
    verdict = Verdict(len(expected.status))
    if returncode != 0:
        return verdict.fail_all(f"exit code {returncode}"), None
    try:
        report = json.loads(text or "")
        checks = list(report["checks"])
        failures = report["failures"]
        modules = list(report.get("modules", []))
        if not all(isinstance(x, dict) for x in checks + modules):
            raise TypeError("a check or module record is not an object")
        if not isinstance(report["total_seconds"], (int, float)):
            raise TypeError("total_seconds is not a number")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return verdict.fail_all(f"unparsable report: {exc!r}"), None
    if "dim" in report:
        checks = [dict(c, dim=report["dim"]) for c in checks]
    if failures != sum(1 for c in checks if c.get("status") == "fail"):
        return verdict.fail_all(f"failures field {failures!r} disagrees with the checks"), None
    if expected.modules:
        got = [(tuple(m.get("lambda", ())), m.get("dim")) for m in modules]
        want = [(lam, weyl_dim(*lam)) for lam in expected.modules]
        if got != want:
            return verdict.fail_all(f"modules list disagrees: {len(got)} entries"), None
    verdict = check_records(checks, expected)
    if failures:
        verdict.problems.append(f"report says failures={failures}")
    return verdict, report


def strip_timing(value):
    """The report with every `seconds` and `total_seconds` field removed."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items()
                if k not in ("seconds", "total_seconds")}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value
