"""Pinned reports: a change to any record's name, anchor, status, witness,
`dim` or order fails here, and the message names the first differing JSON
path.

Each golden file under `tests/golden/` holds one report with its timing
fields stripped.  A deliberate report change rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
import pathlib

import pytest

from qcactus import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
#: the fields that vary from run to run; they are dropped at any depth
TIMING_FIELDS = ("seconds", "total_seconds")
#: golden file name -> the command whose report it pins
COMMANDS = {
    "verify-conjecture-d6.json": ["verify-conjecture", "--max-degree", "6", "--jobs", "1"],
    "module-verify-1-3-all.json": ["module", "verify", "--l1", "1", "--l2", "3",
                                   "--suite", "all"],
    "suite-all-seed-1.json": ["suite", "--name", "all", "--seed", "1"],
    "coxeter-kernel-A1xA2-1-3.json": ["coxeter", "kernel", "--type", "A1xA2",
                                      "--subset", "1,3"],
}


def strip_timings(value):
    """`value` without the keys of TIMING_FIELDS, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items() if k not in TIMING_FIELDS}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def first_difference(got, want, path="$"):
    """The JSON path of the first place where `got` differs from `want`, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        unmatched = [k for k in want if k not in got] + [k for k in got if k not in want]
        if unmatched:
            return f"{path}.{unmatched[0]}"
        if list(got) != list(want):
            return f"{path} (key order)"
        return next((d for k in want if (d := first_difference(got[k], want[k], f"{path}.{k}"))),
                    None)
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            if d := first_difference(g, w, f"{path}[{i}]"):
                return d
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if type(got) is type(want) and got == want else path


def report(argv, out_file) -> dict:
    """The timing-stripped report of one command, written through `--out`."""
    cli.main([*argv, "--out", str(out_file)])
    return strip_timings(json.loads(out_file.read_text()))


def assert_matches(got: dict, want: dict, what: str) -> None:
    path = first_difference(got, want)
    assert path is None, f"{what}: the report differs from its golden file first at {path}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_its_golden_file(name, tmp_path, capsys):
    want = json.loads((GOLDEN / name).read_text())
    assert_matches(report(COMMANDS[name], tmp_path / name), want, name)
    capsys.readouterr()


def test_sweep_on_two_workers_matches_the_serial_golden_file(tmp_path, capsys):
    want = json.loads((GOLDEN / "verify-conjecture-d6.json").read_text())
    argv = ["verify-conjecture", "--max-degree", "6", "--jobs", "2"]
    got = report(argv, tmp_path / "sweep.json")
    assert got["config"]["jobs"] == 2
    got["config"]["jobs"] = want["config"]["jobs"]
    assert_matches(got, want, "verify-conjecture --jobs 2")
    capsys.readouterr()


@pytest.mark.parametrize("got, want, path", [
    ({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2}]}, None),
    ({"a": [1, {"b": 3}]}, {"a": [1, {"b": 2}]}, "$.a[1].b"),
    ({"a": [1]}, {"a": [1, 2]}, "$.a[1]"),
    ({"a": 1}, {"a": 1, "b": 2}, "$.b"),
    ({"b": 2, "a": 1}, {"a": 1, "b": 2}, "$ (key order)"),
    ({"a": 1.0}, {"a": 1}, "$.a"),
    ({"a": True}, {"a": 1}, "$.a"),
])
def test_first_difference_names_the_path(got, want, path):
    assert first_difference(got, want) == path


def test_strip_timings_drops_exactly_the_timing_fields():
    value = {"total_seconds": 1.0, "checks": [{"name": "x", "seconds": 0.1, "dim": 3}],
             "modules": [{"seconds": 2.0, "lambda": [1, 0]}]}
    assert strip_timings(value) == {"checks": [{"name": "x", "dim": 3}],
                                    "modules": [{"lambda": [1, 0]}]}


def write_golden_files(directory: pathlib.Path) -> None:
    """Rewrite every golden file from the current code, one field a line."""
    directory.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        got = report(argv, directory / name)
        (directory / name).write_text(json.dumps(got, indent=1, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    write_golden_files(GOLDEN)
