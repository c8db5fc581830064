"""Batch verification driver and exporter.

Every command assembles a JSON report with one record per check; the process
exits nonzero iff any check failed.  Reports are deterministic up to the
timing fields for a fixed seed and configuration.  Bad arguments are rejected
while parsing, with a one-line message and exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

from . import coxeter, crystal, repmodule, suites

TOOL_VERSION = "qcactus 0.1.0"
#: the version of the report layout; 3 drops the field with which 2 marked derived records,
#: as every module is now proved on its own (reports before 2 have no `schema` field)
REPORT_SCHEMA = 3
#: the largest sweep degree N whose (N + 2)^2 // 4 pair tasks fit one `suites.pool_map` call
MAX_SWEEP_DEGREE = math.isqrt(4 * suites.POOL_MAX_ITEMS + 3) - 2


def _report(command: str, config: dict, checks: list[dict], started: float) -> dict:
    failures = sum(1 for c in checks if c["status"] == "fail")
    return {
        "tool": TOOL_VERSION,
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": config,
        "checks": checks,
        "failures": failures,
        "total_seconds": round(time.perf_counter() - started, 4),
    }


def _emit(report: dict, out: str | None) -> int:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        summary = [
            f"{c['status']:7s} {c['name']}" for c in report["checks"]
        ]
        print("\n".join(summary))
        print(f"report written to {out}")
    else:
        print(text)
    return 1 if report["failures"] else 0


def cmd_verify_conjecture(max_degree: int, jobs: int, out: str | None) -> int:
    started = time.perf_counter()
    # one task per pair V(l1,l2), V(l2,l1); the report lists the modules sorted
    tasks = [lam for lam in sorted(suites.lambdas(max_degree)) if lam[0] <= lam[1]]
    results = sorted((r for pair in suites.pool_map(suites.conjecture_pair_task, tasks, jobs)
                      for r in pair), key=lambda r: r["lambda"])
    checks = [dict(c, dim=r["dim"]) for r in results for c in r["checks"]]
    report = _report(
        "verify-conjecture",
        {"max_degree": max_degree, "jobs": jobs},
        checks,
        started,
    )
    report["modules"] = [{k: r[k] for k in ("lambda", "dim", "seconds")} for r in results]
    return _emit(report, out)


def cmd_coxeter_kernel(d: coxeter.CoxeterDatum, J: frozenset, out: str | None) -> int:
    started, cpu_started = time.perf_counter(), time.process_time()
    type_name = d.type_name
    formula = coxeter.kernel_parabolic(d, J, "formula")
    brute = coxeter.kernel_parabolic(d, J, "bruteforce")
    agree = formula == brute
    checks = [
        {
            "name": f"kernel({type_name}, J={sorted(J)})",
            "anchor": "coset-action kernel: formula = brute force",
            "status": "pass" if agree else "fail",
            "witness": {
                "order_formula": len(formula),
                "order_bruteforce": len(brute),
                "formula_words": sorted(
                    "".join(map(str, coxeter.reduced_word(w))) or "e" for w in formula
                ),
            },
            "seconds": round(time.process_time() - cpu_started, 4),
        }
    ]
    return _emit(_report("coxeter kernel", {"type": type_name, "subset": sorted(J)},
                         checks, started), out)


def cmd_crystal_apply(m: crystal.Pattern, ops: list) -> int:
    for op in ops:  # parse_ops lists them in the order they apply
        m = op(m)
    print(str(m))
    return 0


def cmd_module_verify(l1: int, l2: int, suite: str, out: str | None) -> int:
    started = time.perf_counter()
    families = tuple(suites.MODULE_FAMILIES) if suite == "all" else (suite,)
    result = suites.module_task((l1, l2), families)
    checks = result["checks"]
    report = _report("module verify", {"lambda": [l1, l2], "suite": suite}, checks, started)
    report["lambda"] = [l1, l2]
    report["dim"] = result["dim"]
    return _emit(report, out)


def cmd_module_export(l1: int, l2: int, tags: list[str], out: str) -> int:
    mod = repmodule.ModuleVLambda(l1, l2)
    matrices = {tag: mod.matrix(tag).to_json() for tag in tags}
    payload = {
        "tool": TOOL_VERSION,
        "lambda": [l1, l2],
        "dim": mod.dim,
        "basis": [str(m) for m in mod.basis],
        "matrices": matrices,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"exported {', '.join(tags)} for lambda=({l1},{l2}) to {out}")
    return 0


def cmd_gk_normalform(element) -> int:
    from . import gkmodel

    print(json.dumps(gkmodel.to_json(element), indent=2))
    return 0


def cmd_suite(name: str, seed: int, out: str | None) -> int:
    started = time.perf_counter()
    checks = suites.run_suite(name, seed, suites.usable_cpus())
    return _emit(_report("suite", {"name": name, "seed": seed}, checks, started), out)


def _arg(parse):
    """An argparse type from a parser that raises ValueError on bad input, so
    that its message becomes the usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _integer(text: str, least: int, kind: str) -> int:
    """`text` as an integer of at least `least`; the error names the text."""
    value = coxeter.parse_int(text)
    if value is None or value < least:
        raise ValueError(f"expected a {kind} integer, got {text!r}")
    return value


def _natural(text: str) -> int:
    return _integer(text, 0, "nonnegative")


def _positive(text: str) -> int:
    return _integer(text, 1, "positive")


def _sweep_degree(text: str) -> int:
    value = _natural(text)
    if value > MAX_SWEEP_DEGREE:
        raise ValueError(f"expected a sweep degree of at most {MAX_SWEEP_DEGREE}, got {text!r}")
    return value


def _matrix_tags(text: str) -> list[str]:
    tags = [t.strip() for t in text.split(",") if t.strip()]
    if not tags:
        raise ValueError(f"no matrix tags given; expected some of {repmodule.MATRIX_TAGS}")
    bad = [t for t in tags if t not in repmodule.MATRIX_TAGS]
    if bad:
        raise ValueError(f"unknown matrix tags {bad}; expected some of {repmodule.MATRIX_TAGS}")
    repeated = sorted({t for t in tags if tags.count(t) > 1})
    if repeated:
        raise ValueError(f"repeated matrix tags {repeated}")
    return tags


def _out_path(text: str) -> str:
    """A report path that can be written, checked before any work starts."""
    if not text:
        raise ValueError("empty output path")
    if os.path.isdir(text):
        raise ValueError(f"output path {text!r} is a directory")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"directory {directory!r} of output path {text!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"directory {directory!r} of output path {text!r} is not writable")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise ValueError(f"output path {text!r} is not writable")
    return text


def _coxeter_type(text: str) -> coxeter.CoxeterDatum:
    """A type whose group is enumerated now, so that one over the cap is a usage error."""
    d = coxeter.CoxeterDatum.from_type(text)
    d.elements()
    return d


def _gk_expr(text: str):
    """A model-algebra expression; the model is imported only by the command
    that reads one."""
    from . import gkmodel

    return gkmodel.parse_expr(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcactus",
        description="exact verification of involution identities on quantum rank-2 modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-conjecture", help="sweep the composed-involution identity")
    p.add_argument("--max-degree", type=_arg(_sweep_degree), default=8)
    p.add_argument("--jobs", type=_arg(_positive), default=1)
    p.add_argument("--out", default=None, type=_arg(_out_path))

    p = sub.add_parser("coxeter", help="Coxeter group utilities")
    sc = p.add_subparsers(dest="sub", required=True)
    k = sc.add_parser("kernel", help="kernel of the action on a coset space")
    k.add_argument("--type", required=True, dest="datum", metavar="TYPE",
                   type=_arg(_coxeter_type))
    k.add_argument("--subset", default="", type=_arg(coxeter.parse_subset))
    k.add_argument("--out", default=None, type=_arg(_out_path))

    p = sub.add_parser("crystal", help="pattern combinatorics")
    sc = p.add_subparsers(dest="sub", required=True)
    a = sc.add_parser("apply", help="apply operators to a pattern, right to left")
    a.add_argument("--pattern", required=True, type=_arg(crystal.Pattern.parse))
    a.add_argument("--ops", required=True, type=_arg(crystal.parse_ops))

    p = sub.add_parser("module", help="symbolic module verification and export")
    sc = p.add_subparsers(dest="sub", required=True)
    v = sc.add_parser("verify")
    v.add_argument("--l1", type=_arg(_natural), required=True)
    v.add_argument("--l2", type=_arg(_natural), required=True)
    v.add_argument("--suite", choices=(*suites.MODULE_FAMILIES, "all"), default="all")
    v.add_argument("--out", default=None, type=_arg(_out_path))
    e = sc.add_parser("export")
    e.add_argument("--l1", type=_arg(_natural), required=True)
    e.add_argument("--l2", type=_arg(_natural), required=True)
    e.add_argument("--which", default=",".join(repmodule.MATRIX_TAGS), type=_arg(_matrix_tags))
    e.add_argument("--out", required=True, type=_arg(_out_path))

    p = sub.add_parser("gk", help="model-algebra utilities")
    sc = p.add_subparsers(dest="sub", required=True)
    n = sc.add_parser("normalform", help="straighten an expression")
    n.add_argument("--expr", required=True, type=_arg(_gk_expr))

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("--name", required=True, choices=(*suites.SUITE_NAMES, "all"))
    p.add_argument("--seed", type=_arg(_natural), default=1)
    p.add_argument("--out", default=None, type=_arg(_out_path))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-conjecture":
        return cmd_verify_conjecture(args.max_degree, args.jobs, args.out)
    if args.command == "coxeter":
        bad = sorted(j for j in args.subset if j not in args.datum.indices)
        if bad:
            parser.error(f"subset indices {bad} out of range for {args.datum.type_name}")
        return cmd_coxeter_kernel(args.datum, args.subset, args.out)
    if args.command == "crystal":
        return cmd_crystal_apply(args.pattern, args.ops)
    if args.command == "module":
        if args.sub == "verify":
            return cmd_module_verify(args.l1, args.l2, args.suite, args.out)
        return cmd_module_export(args.l1, args.l2, args.which, args.out)
    if args.command == "gk":
        return cmd_gk_normalform(args.expr)
    if args.command == "suite":
        return cmd_suite(args.name, args.seed, args.out)
    raise AssertionError("unreachable")


def run() -> int:
    """`main`, then a frozen heap, which the collection at exit skips."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
