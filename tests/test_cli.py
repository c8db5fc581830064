import json
import time

import pytest

from qcactus import cli, coxeter, crystal, gkmodel, properties, repmodule, suites
from qcactus.qarith import RatFunc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_returns_the_exit_code_of_main_and_then_freezes_the_heap(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    assert cli.run() == 3
    assert calls == ["main", "freeze"]


def test_crystal_apply(capsys):
    code, out = run(capsys, "crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "sigma1")
    assert code == 0
    assert out.strip() == "0,0,0,0,1,0"


def test_crystal_apply_right_to_left(capsys):
    # e1^1 fires before sigma
    code, out = run(
        capsys, "crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "sigma,e1^1"
    )
    assert code == 0
    assert out.strip() == "0,0,0,1,0,0"


def test_crystal_apply_parses_its_operators_once(monkeypatch, capsys):
    calls = []
    parse_ops = crystal.parse_ops

    def counted(text):
        calls.append(text)
        return parse_ops(text)

    monkeypatch.setattr(crystal, "parse_ops", counted)
    code, out = run(
        capsys, "crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "sigma,e1^1"
    )
    assert (code, out.strip()) == (0, "0,0,0,1,0,0")
    assert calls == ["sigma,e1^1"]


@pytest.mark.parametrize("ops, message", [
    ("", "no operators given"),
    (",", "no operators given"),
    (" , ", "no operators given"),
    ("e1^x", "'e1^x'"),
    ("sigma,e2^", "'e2^'"),
])
def test_crystal_apply_bad_ops_name_the_fault(capsys, ops, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", ops])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ops: " in err and message in err and "int()" not in err


def test_coxeter_kernel_faithful(capsys):
    code, out = run(capsys, "coxeter", "kernel", "--type", "A2", "--subset", "1")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    assert report["checks"][0]["witness"]["order_formula"] == 1


def test_coxeter_kernel_product(capsys):
    code, out = run(capsys, "coxeter", "kernel", "--type", "A1xA1", "--subset", "1")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["witness"]["order_formula"] == 2


def test_coxeter_kernel_empty_subset(capsys):
    code, out = run(capsys, "coxeter", "kernel", "--type", "A3", "--subset", "")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["witness"]["order_formula"] == 1


def test_coxeter_kernel_bad_subset(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coxeter", "kernel", "--type", "A2", "--subset", "5"])
    assert exc.value.code == 2


def test_coxeter_kernel_check_records_cpu_seconds(monkeypatch, capsys):
    # the two kernel computations wait 0.2 s without computing: the check
    # records CPU time, as every suite check does, and the total stays wall time
    kernel = coxeter.kernel_parabolic

    def waiting(*args):
        time.sleep(0.1)
        return kernel(*args)

    monkeypatch.setattr(coxeter, "kernel_parabolic", waiting)
    code, out = run(capsys, "coxeter", "kernel", "--type", "A1xA2", "--subset", "1,3")
    report = json.loads(out)
    assert code == 0 and report["failures"] == 0
    assert report["checks"][0]["seconds"] < 0.1 and report["total_seconds"] >= 0.2


def test_gk_normalform(capsys):
    code, out = run(capsys, "gk", "normalform", "--expr", "z2*z1*v1")
    assert code == 0
    data = json.loads(out)
    assert all(set(item) == {"monomial", "coeff"} for item in data)
    assert all(len(item["monomial"]) == 6 for item in data)
    # each coefficient is written as its rational function's to_json
    element = gkmodel.parse_expr("z2*z1*v1")
    assert len(data) == len(element)
    for item in data:
        assert item["coeff"] == element[crystal.Pattern(*item["monomial"])].to_json()


def test_gk_normalform_ignores_surrounding_whitespace(capsys):
    code, out = run(capsys, "gk", "normalform", "--expr", "z1*z2")
    assert code == 0
    for padded in ("z1*z2 ", " z1 * z2 "):
        assert run(capsys, "gk", "normalform", "--expr", padded) == (0, out)


def test_verify_conjecture_trivial(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _ = run(capsys, "verify-conjecture", "--max-degree", "0", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["failures"] == 0
    assert report["modules"] == [{"lambda": [0, 0], "dim": 1,
                                  "seconds": report["modules"][0]["seconds"]}]


def test_verify_conjecture_small(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _ = run(
        capsys, "verify-conjecture", "--max-degree", "2", "--jobs", "1",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["failures"] == 0
    assert len(report["modules"]) == 6
    lams = [tuple(m["lambda"]) for m in report["modules"]]
    assert lams == sorted(lams)


def test_verify_conjecture_maps_one_task_per_swap_pair(monkeypatch, capsys, tmp_path,
                                                       pool_sizes):
    monkeypatch.setattr(suites, "usable_cpus", lambda: 2)
    # the tasks run in worker processes, so each one appends itself to a file
    log = tmp_path / "tasks.txt"
    pair_task, pool_map, handed = suites.conjecture_pair_task, suites.pool_map, []

    def logged(lam):
        with open(log, "a") as fh:
            fh.write(f"{lam[0]},{lam[1]}\n")
        return pair_task(lam)

    monkeypatch.setattr(suites, "conjecture_pair_task", logged)
    monkeypatch.setattr(suites, "pool_map",
                        lambda fn, items, jobs: handed.extend(items) or pool_map(fn, items, jobs))
    code, out = run(capsys, "verify-conjecture", "--max-degree", "4", "--jobs", "2")
    assert code == 0 and pool_sizes == [2]
    tasks = [lam for lam in sorted(suites.lambdas(4)) if lam[0] <= lam[1]]
    # handed to the pool in this order, and each run once by a worker
    assert handed == tasks
    assert sorted(tuple(map(int, line.split(","))) for line in log.read_text().split()) == tasks
    report = json.loads(out)
    lams = sorted(suites.lambdas(4))
    assert len(lams) == 15
    assert [tuple(m["lambda"]) for m in report["modules"]] == lams
    # every module's own four records, in module order, with the module's dim
    names = [f"{c}({l1},{l2})" for l1, l2 in lams
             for c in ("involution-N1", "involution-N2", "braid", "cube")]
    assert [c["name"] for c in report["checks"]] == names
    modules = {"({},{})".format(*m["lambda"]): m for m in report["modules"]}
    for c in report["checks"]:
        module = modules[c["name"][c["name"].index("("):]]
        assert c["status"] == "pass" and c["dim"] == module["dim"]
    assert all(set(m) == {"lambda", "dim", "seconds"} for m in report["modules"])
    assert all("via" not in c for c in report["checks"])


@pytest.mark.parametrize("argv", [
    ("verify-conjecture", "--max-degree", "1"),
    ("module", "verify", "--l1", "1", "--l2", "0", "--suite", "conjecture"),
    ("suite", "--name", "crystal", "--seed", "1"),
    ("coxeter", "kernel", "--type", "A2", "--subset", "1"),
])
def test_every_report_names_its_schema(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["schema"] == cli.REPORT_SCHEMA == 3
    assert '"via"' not in out


def test_module_verify_report_schema(capsys):
    code, out = run(capsys, "module", "verify", "--l1", "1", "--l2", "0", "--suite", "all")
    assert code == 0
    report = json.loads(out)
    assert report["lambda"] == [1, 0]
    assert report["dim"] == 3
    assert report["failures"] == 0
    for check in report["checks"]:
        assert check["status"] in ("pass", "fail", "skipped")
        assert "name" in check and "anchor" in check


def test_module_verify_all_is_the_three_families_in_order(capsys):
    def checks(suite):
        code, out = run(capsys, "module", "verify", "--l1", "1", "--l2", "1", "--suite", suite)
        assert code == 0
        return [{k: v for k, v in c.items() if k != "seconds"} for c in json.loads(out)["checks"]]

    assert checks("all") == checks("relations") + checks("sigma") + checks("conjecture")


def test_module_export(capsys, tmp_path):
    out_file = tmp_path / "matrices.json"
    code, _ = run(
        capsys, "module", "export", "--l1", "1", "--l2", "0",
        "--which", "C1,N1,P1", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["lambda"] == [1, 0]
    assert payload["dim"] == 3
    assert payload["basis"] == ["0,0,0,0,1,0", "0,0,0,1,0,0", "1,0,0,0,0,0"]
    assert set(payload["matrices"]) == {"C1", "N1", "P1"}
    n1 = payload["matrices"]["N1"]
    assert n1[0][2] == RatFunc.one().to_json()
    assert n1[0][0] == RatFunc.zero().to_json()


def test_module_export_writes_each_entry_as_its_to_json(capsys, tmp_path):
    out_file = tmp_path / "matrices.json"
    code, _ = run(
        capsys, "module", "export", "--l1", "2", "--l2", "1",
        "--which", "C1,C2,N1,N2", "--out", str(out_file),
    )
    assert code == 0
    matrices = json.loads(out_file.read_text())["matrices"]
    for tag, rows in matrices.items():
        expected = repmodule.ModuleVLambda(2, 1).matrix(tag).rows
        for row, row_expected in zip(rows, expected, strict=True):
            for entry, value in zip(row, row_expected, strict=True):
                assert entry == value.to_json()


def test_module_export_bad_tag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["module", "export", "--l1", "0", "--l2", "0", "--which", "Z9",
                  "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("denied", ["directory", "file"])
def test_an_unwritable_report_path_is_a_usage_error(monkeypatch, capsys, tmp_path, denied):
    # os.access is replaced, since a root user may write anywhere
    out = tmp_path / "report.json"
    if denied == "file":
        out.write_text("kept")
    refused = str(tmp_path if denied == "directory" else out)
    access = cli.os.access
    monkeypatch.setattr(cli.os, "access", lambda path, mode: path != refused and access(path, mode))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-conjecture", "--max-degree", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{str(out)!r} is not writable" in err and "Traceback" not in err
    assert out.read_text() == "kept" if denied == "file" else not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify-conjecture", "--max-degree", "-3"],
    ["module", "verify", "--l1", "-1", "--l2", "0"],
    ["module", "export", "--l1", "0", "--l2", "-2", "--out", "unused.json"],
    ["module", "export", "--l1", "1", "--l2", "1", "--which", "N10", "--out", "unused.json"],
    ["crystal", "apply", "--pattern", "1,1,0,0,0,0", "--ops", "sigma"],
    ["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "bogus"],
    ["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "e1^x"],
    ["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", ""],
    ["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", ","],
    ["gk", "normalform", "--expr", "z3"],
    ["coxeter", "kernel", "--type", "Z9"],
    ["coxeter", "kernel", "--type", "A2", "--subset", "x"],
    ["verify-conjecture", "--max-degree", "2", "--jobs", "-3"],
    ["verify-conjecture", "--max-degree", "2", "--jobs", "0"],
    ["gk", "normalform", "--expr", "q^{1/2}^2"],
    ["gk", "normalform", "--expr", "^2"],
    ["gk", "normalform", "--expr", "z1**z2"],
    ["gk", "normalform", "--expr", "z1-2"],
    ["gk", "normalform", "--expr", ""],
    ["gk", "normalform", "--expr", " "],
    ["module", "export", "--l1", "1", "--l2", "0", "--which", "", "--out", "unused.json"],
    ["module", "export", "--l1", "1", "--l2", "0", "--which", ",", "--out", "unused.json"],
    ["verify-conjecture", "--max-degree", "0", "--out", "missing-dir/report.json"],
    ["coxeter", "kernel", "--type", "A2", "--subset", "1", "--out", "missing-dir/report.json"],
    ["module", "verify", "--l1", "0", "--l2", "0", "--out", "missing-dir/report.json"],
    ["module", "export", "--l1", "0", "--l2", "0", "--out", "missing-dir/matrices.json"],
    ["suite", "--name", "qarith", "--out", "missing-dir/report.json"],
    ["suite", "--name", "qarith", "--out", "."],
    ["suite", "--name", "qarith", "--out", ""],
    ["coxeter", "kernel", "--type", "A2", "--subset", "1,1"],
    ["coxeter", "kernel", "--type", "A4xA4", "--subset", "1"],
    ["coxeter", "kernel", "--type", "x".join(["A4"] * 13)],
    ["module", "export", "--l1", "1", "--l2", "0", "--which", "N1,N1", "--out", "unused.json"],
    ["suite", "--name", "coxeter", "--seed", "-3"],
    ["gk", "normalform", "--expr", "z1^1000001"],
    ["gk", "normalform", "--expr", "v12"],
    ["gk", "normalform", "--expr", "z123"],
    # int() and the regex \d also read underscores and non-ASCII digits
    ["verify-conjecture", "--max-degree", "1_0"],
    ["verify-conjecture", "--max-degree", "\uff12"],
    ["crystal", "apply", "--pattern", "\u0661,0,0,0,0,0", "--ops", "sigma"],
    ["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "e1^\u0662"],
    ["coxeter", "kernel", "--type", "A2", "--subset", "\u0661"],
    ["gk", "normalform", "--expr", "z1^\u0662"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, option, text", [
    (["module", "verify", "--l1", "x", "--l2", "0"], "--l1", "'x'"),
    (["verify-conjecture", "--max-degree", "1.5"], "--max-degree", "'1.5'"),
    (["verify-conjecture", "--jobs", ""], "--jobs", "''"),
    (["suite", "--name", "qarith", "--seed", "x"], "--seed", "'x'"),
    (["coxeter", "kernel", "--type", "A2", "--subset", "1,,2"], "--subset", "'1,,2'"),
    (["coxeter", "kernel", "--type", "A2", "--subset", "1,x"], "--subset", "'1,x'"),
    (["crystal", "apply", "--pattern", "1,x,0,0,0,0", "--ops", "sigma"], "--pattern",
     "expected six comma-separated integers, got '1,x,0,0,0,0'"),
    (["verify-conjecture", "--max-degree", "1_0"], "--max-degree", "'1_0'"),
    (["verify-conjecture", "--max-degree", "\uff12"], "--max-degree", "'\uff12'"),
    (["coxeter", "kernel", "--type", "A2", "--subset", "1,\u0662"], "--subset", "'1,\u0662'"),
    (["crystal", "apply", "--pattern", "\u0661,0,0,0,0,0", "--ops", "sigma"], "--pattern",
     "'\u0661,0,0,0,0,0'"),
    (["crystal", "apply", "--pattern", "1,0,0,0,0,0", "--ops", "e1^\u0662"], "--ops",
     "'e1^\u0662'"),
    (["gk", "normalform", "--expr", "z1^\u0662"], "--expr", "'^\u0662'"),
])
def test_non_integer_arguments_name_the_bad_text(capsys, argv, option, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and text in err and "int()" not in err


@pytest.mark.parametrize("text", ["x", "A1x", "Z9"])
def test_coxeter_kernel_unknown_type_names_the_argument(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coxeter", "kernel", "--type", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --type: unknown type" in err and f"in {text!r}" in err


def test_gk_normalform_over_the_rewriting_budget_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(gkmodel, "REWRITE_BUDGET", 50)
    with pytest.raises(SystemExit) as exc:
        cli.main(["gk", "normalform", "--expr", "z2^3*z1^3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "rewriting budget of 50 steps exhausted" in err and "Traceback" not in err


def test_suite_seed_determinism(capsys):
    code1, out1 = run(capsys, "suite", "--name", "crystal", "--seed", "7")
    code2, out2 = run(capsys, "suite", "--name", "crystal", "--seed", "7")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    strip = lambda checks: [
        {k: v for k, v in c.items() if k != "seconds"} for c in checks
    ]
    assert strip(r1["checks"]) == strip(r2["checks"])


@pytest.mark.parametrize("cpus, workers", [(1, []), (2, [2])])
def test_suite_all_runs_on_one_worker_per_usable_cpu(monkeypatch, capsys, pool_sizes, cpus,
                                                     workers):
    families = {key: lambda seed: [{"name": "check", "status": "pass"}]
                for key in properties.SUITES}
    monkeypatch.setattr(suites, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(properties, "SUITES", families)
    code, out = run(capsys, "suite", "--name", "all", "--seed", "3")
    assert code == 0
    assert pool_sizes == workers
    assert [c["name"] for c in json.loads(out)["checks"]] == [f"{k}:check" for k in families]
