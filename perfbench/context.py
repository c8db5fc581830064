"""Run context recorded beside every run's numbers and never used to drop a
run: the machine, the interpreter, the code measured, and how busy the host
was.  On a shared VM the same code can drift by half its time within minutes,
and a reader needs to see that next to the figures.  /proc is only read."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def steal_ticks() -> int | None:
    """Ticks the hypervisor took from this VM, summed over all CPUs."""
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "qcactus").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class RunContext:
    def __init__(self, root: Path):
        self.root = root
        self.start_loadavg = loadavg()
        self.start_steal = steal_ticks()

    def finish(self) -> dict:
        steal = steal_ticks()
        return {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "commit": _commit(self.root),
            "src_sha256": src_digest(self.root),
            "loadavg_start": self.start_loadavg,
            "loadavg_end": loadavg(),
            "steal_ticks_delta": (steal - self.start_steal
                                  if steal is not None and self.start_steal is not None
                                  else None),
        }
