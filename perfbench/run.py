#!/usr/bin/env python3
"""qcactus benchmark: time to an exact verdict on three CLI workloads, with a
traced per-layer breakdown.  Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-d8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all        # every workload, both modes

`--trace 0` runs the workload's `qcactus` command in a fresh process,
closed-loop, one run at a time, between `min_reps` and `max_reps` times and
starting no new run after `--seconds`, and reports the end-to-end metrics as
medians over the runs.  `--trace 1` runs the command once for its report, then
makes the same library calls in this process with the layer wrappers of
`tracing.py` installed, and reports the per-layer metrics.  Every run's output
is gated (`gate.py`); traced runs also check the oracle (`oracle.py`).  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the exit code is 1 when any gate failed.  Metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

import context  # noqa: E402
import gate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import FAMILIES, WORKLOADS, Workload, family  # noqa: E402

RUN_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_PER_RUN = 3
SETUP_CODE = "import sys\nfrom qcactus import cli\ncli.build_parser().parse_args(sys.argv[1:])"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Rep:
    verdict_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    text: str | None


def spawn(argv: list[str], deadline: float, stderr=subprocess.DEVNULL):
    """Run argv from the checkout root and wait for it with a blocking
    `wait4`: returns (wall seconds, exit code, rusage).  `wait4` reports the
    CPU time and peak RSS of the process together with the children it
    reaped, such as pool workers; the blocking wait keeps the wall time free of
    the polling steps of `subprocess` timeouts.  A process still running at
    `deadline` is killed with its whole process group."""
    t0 = clock()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - t0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


def run_cli(wl: Workload, seed: int, tag: str, deadline: float) -> Rep:
    """One closed-loop run of the workload's command in a fresh process."""
    report_path = OUT / f"report-{wl.name}-{tag}.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "qcactus.cli", *wl.argv(seed), "--out", str(report_path)]
    with open(OUT / f"stderr-{wl.name}-{tag}.txt", "wb") as err:
        seconds, code, usage = spawn(argv, deadline, err)
    text = report_path.read_text() if report_path.exists() else None
    return Rep(seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, text)


def setup_seconds(wl: Workload, seed: int, deadline: float) -> float:
    """Launch-to-exit time of a fresh interpreter that imports `qcactus.cli`
    and parses the workload's argv, and runs nothing else."""
    seconds, code, _ = spawn([sys.executable, "-c", SETUP_CODE, *wl.argv(seed)], deadline)
    if code != 0:
        raise RuntimeError(f"importing qcactus.cli failed with exit code {code}")
    return seconds


class Tally:
    """Checks attempted and failed over every gated output of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, where: str, verdict: gate.Verdict) -> None:
        self.attempted += verdict.expected
        self.failed += verdict.failed
        self.problems += [f"{where}: {p}" for p in verdict.problems]


def _same_result(tally: Tally, where: str, expected: int, a, b) -> None:
    """Determinism gate: two results of one seed agree once timing is removed."""
    v = gate.Verdict(expected)
    if gate.strip_timing(a) != gate.strip_timing(b):
        v.fail_all("differs from another run of this seed once timing is removed")
    tally.add(where, v)


def timed(wl: Workload, seed: int, seconds: int, deadline: float, tally: Tally):
    """Run the command closed-loop: at least `min_reps` and at most `max_reps`
    times, starting no new run after `seconds`.  The set-up samples are taken
    between the runs, so that their median spans the same stretch of time."""
    setups: list[float] = []
    reps: list[Rep] = []
    first = None
    start = clock()
    while len(reps) < wl.min_reps or (len(reps) < wl.max_reps and clock() - start < seconds):
        if reps and clock() + 1.5 * reps[-1].verdict_s > deadline:
            break
        setups += [setup_seconds(wl, seed, deadline) for _ in range(SETUP_PER_RUN)]
        rep = run_cli(wl, seed, str(len(reps)), deadline)
        reps.append(rep)
        verdict, report = gate.cli_report(wl, rep.returncode, rep.text)
        tally.add(f"run {len(reps)}", verdict)
        if report is not None and not wl.is_conjecture:
            if first is None:
                first = report
            else:
                _same_result(tally, f"run {len(reps)} determinism", verdict.expected, first,
                             report)
        print(f"run {len(reps)}: verdict_s={rep.verdict_s:.4f} cpu_s={rep.cpu_s:.4f} "
              f"peak_rss_mb={rep.peak_rss_mb:.1f} exit={rep.returncode} "
              f"failed={verdict.failed}/{verdict.expected}", flush=True)
    setups += [setup_seconds(wl, seed, deadline) for _ in range(SETUP_PER_RUN)]
    values = {
        "verdict_s": statistics.median(r.verdict_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "setup_s": statistics.median(setups),
        "check_fail_ratio": tally.failed / tally.attempted,
    }
    extra = {"runs": len(reps), "setup_runs": len(setups),
             "verdict_s_each": [r.verdict_s for r in reps], "cpu_s_each": [r.cpu_s for r in reps],
             "setup_s_each": setups}
    return values, extra


def _import_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qcactus
    from qcactus import cartan, coxeter, crystal, gkmodel, linalg, qarith, repmodule, suites

    if Path(qcactus.__file__).resolve().parent != SRC / "qcactus":
        raise RuntimeError(f"imported qcactus from {qcactus.__file__}, not from {SRC}")
    return qarith, linalg, repmodule, crystal, coxeter, cartan, gkmodel, suites


def untraced_calls(wl: Workload, seed: int) -> None:
    """Reference for the tracing overhead: the traced run's calls, without
    wrappers, in a fresh interpreter.  Prints one JSON line."""
    suites = _import_library()[-1]
    t0 = clock()
    checks = wl.run_calls(suites, seed)
    print(json.dumps({"wall_s": clock() - t0, "checks": checks}))


def layer_values(tracer: tracing.Tracer, probes: tracing.Probes) -> dict[str, float]:
    """Per-layer metrics from the wrappers' counters and the input probes."""
    values: dict[str, float] = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.s"] = st.s
        values[f"{name}.self_s"] = st.self_s
    values["qarith.divexact.int_ratio"] = probes.divexact_int / max(1, probes.divexact_all)
    values["linalg.invert.dim_max"] = probes.invert_dim_max
    values["linalg.invert.triangular_ratio"] = (
        probes.invert_triangular / max(1, probes.invert_all))
    values["repmodule.N.max_span"] = probes.n_max_span
    values["repmodule.N.max_coeff_bits"] = probes.n_max_coeff_bits
    values["repmodule.N.nonzeros"] = probes.n_nonzeros
    return values


def traced(wl: Workload, seed: int, deadline: float, tally: Tally):
    # 1. one untraced run of the command, for the cli and suites metrics
    rep = run_cli(wl, seed, "traced", deadline)
    verdict, report = gate.cli_report(wl, rep.returncode, rep.text)
    tally.add("command", verdict)
    check_fail_ratio = verdict.failed / verdict.expected
    cli_checks = report["checks"] if report else []

    # 2. the same library calls without wrappers, in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--untraced-calls", "--workload", wl.name,
         "--seed", str(seed)],
        cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=max(1.0, deadline - clock()), check=True)
    untraced = json.loads(proc.stdout.splitlines()[-1])
    expected = wl.expected()
    tally.add("untraced calls", gate.check_records(untraced["checks"], expected))

    # 3. the traced calls, in this process
    modules = _import_library()
    repmodule = modules[2]
    tracer = tracing.Tracer()
    probes = tracing.Probes(keep_n=oracle.LAMBDAS)
    patches = tracing.install(tracer, probes, modules)
    try:
        t0 = clock()
        checks = wl.run_calls(modules[-1], seed, lambda task: setattr(tracer, "task", task))
        wall = clock() - t0
    finally:
        patches.restore()
    restored = gate.Verdict(1)
    if not patches.restored():
        restored.fail_all("a wrapper is still installed after the traced run")
    tally.add("wrappers", restored)
    tally.add("traced calls", gate.check_records(checks, expected))
    if not wl.is_conjecture:
        n = len(expected.status)
        _same_result(tally, "untraced calls determinism", n, cli_checks, untraced["checks"])
        _same_result(tally, "traced calls determinism", n, cli_checks, checks)

    # 4. the oracle, on N matrices the run built or, failing that, built here
    for lam in oracle.LAMBDAS:
        mats = []
        for i in (1, 2):
            rows = probes.kept.get((*lam, i))
            if rows is None:
                rows = repmodule.ModuleVLambda(*lam).matrix(f"N{i}").rows
            mats.append(oracle.specialise(rows))
        for c in oracle.checks(lam, *mats):
            v = gate.Verdict(1)
            if c["status"] != "pass":
                v.fail_all(f"{c['name']} fails at v = {oracle.V_AT}")
            tally.add("oracle", v)

    OUT.joinpath(f"spans-{wl.name}-seed{seed}.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in tracer.spans))

    values = layer_values(tracer, probes)
    seconds_by_family = dict.fromkeys(FAMILIES, 0.0)
    for c in cli_checks:
        fam = family(c["name"])
        seconds_by_family[fam] = seconds_by_family.get(fam, 0.0) + c.get("seconds", 0.0)
    for fam, s in seconds_by_family.items():
        values[f"suites.check.{fam}.s"] = s
    values["suites.checks_attempted"] = len(cli_checks)

    # A task is one module in the conjecture workloads and the whole suite in
    # suite-all; parallel efficiency is task seconds over worker-seconds.
    if report and report.get("modules"):
        task_s = [m["seconds"] for m in report["modules"]]
    else:
        task_s = [sum(c.get("seconds", 0.0) for c in cli_checks)]
    values["cli.parallel_efficiency"] = sum(task_s) / (wl.jobs * rep.verdict_s)
    values["cli.straggler_s"] = max(task_s)
    values["cli.overhead_s"] = rep.verdict_s - (report["total_seconds"] if report else 0.0)

    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = wall / untraced["wall_s"]
    values["trace.unattributed_s"] = wall - sum(st.self_s for st in tracer.stats.values())
    values["check_fail_ratio"] = check_fail_ratio
    extra = {"spans": len(tracer.spans), "untraced_wall_s": untraced["wall_s"],
             "command_verdict_s": rep.verdict_s}
    return values, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 0 and --trace 1")
    parser.add_argument("--untraced-calls", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qcactus" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no qcactus sources under {SRC} or no {SPEC.name}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    if args.untraced_calls:
        untraced_calls(wl, args.seed)
        return 0

    deadline = clock() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    ctx = context.RunContext(ROOT)
    tally = Tally()
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values, extra = traced(wl, args.seed, deadline, tally)
    else:
        values, extra = timed(wl, args.seed, seconds, deadline, tally)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {"workload": wl.name, "seed": args.seed, "seconds": seconds, "trace": args.trace,
              "context": ctx.finish(), "extra": extra, "problems": tally.problems,
              "metrics": metrics}
    OUT.joinpath(f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("context " + json.dumps(record["context"]))
    for p in tally.problems:
        print(f"problem {p}")
    for name, value in extra.items():
        print(f"{name} {value}")
    if "check_fail_ratio" not in metrics:
        print(f"check_fail_ratio {values['check_fail_ratio']} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each in its own process so that no run
    inherits another's caches; prints every metric with its unit."""
    status = 0
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            print(f"== {name} --trace {trace_flag}", flush=True)
            code = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace_flag)], cwd=ROOT).returncode
            status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
