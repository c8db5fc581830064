"""What each command imports, each case in a fresh interpreter: pytest itself
imports `dataclasses`, and other tests import the property suites."""

import json
import os
import subprocess
import sys

import pytest

import qcactus

SRC = os.path.dirname(os.path.dirname(qcactus.__file__))
#: what the conjecture commands never run
UNUSED = ("qcactus.gkmodel", "qcactus.properties", "dataclasses")


def imported_after(code: str) -> list[str]:
    """The modules of UNUSED that `code` leaves in `sys.modules`; the code
    runs in a fresh interpreter with `cli` imported and stdout discarded."""
    script = (
        "import contextlib, io, json, sys\n"
        "from qcactus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    'assert cli.main(["verify-conjecture", "--max-degree", "3", "--jobs", "1"]) == 0',
    'assert cli.main(["module", "verify", "--l1", "2", "--l2", "1",'
    ' "--suite", "conjecture"]) == 0',
    'cli.build_parser().parse_args(["verify-conjecture", "--max-degree", "8", "--jobs", "2"])',
    'cli.build_parser().parse_args(["module", "verify", "--l1", "5", "--l2", "5",'
    ' "--suite", "conjecture"])',
], ids=["verify-conjecture", "module-verify", "parse-verify-conjecture", "parse-module-verify"])
def test_conjecture_commands_import_neither_suites_nor_model_nor_dataclasses(code):
    assert imported_after(code) == []


@pytest.mark.parametrize("code, expected", [
    ('assert cli.main(["gk", "normalform", "--expr", "z2*z1"]) == 0', ["qcactus.gkmodel"]),
    ('assert cli.main(["suite", "--name", "gk"]) == 0', ["qcactus.gkmodel", "qcactus.properties"]),
], ids=["gk-normalform", "suite-gk"])
def test_model_commands_import_the_model(code, expected):
    assert imported_after(code) == expected


def test_run_suite_imports_the_suites_before_the_pool_starts():
    code = (
        "from qcactus import suites\n"
        "seen = []\n"
        "def pool_map(fn, items, jobs):\n"
        "    seen.append('qcactus.properties' in sys.modules)\n"
        "    return [[] for _ in items]\n"
        "suites.pool_map = pool_map\n"
        "assert suites.run_suite('all', 3, 2) == []\n"
        "assert seen == [True]"
    )
    assert imported_after(code) == ["qcactus.gkmodel", "qcactus.properties"]
