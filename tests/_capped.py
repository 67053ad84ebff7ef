"""Run a Python snippet in a child process whose address space may grow
only a fixed amount past its size once the snippet's setup has run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CAP = """
import resource
with open("/proc/self/statm") as f:
    cap = int(f.read().split()[0]) * resource.getpagesize() + ({headroom_mb} << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
"""


def run_capped(setup: str, body: str, headroom_mb: int, timeout: float) -> list[str]:
    """The words `body` prints when it runs after `setup` in a fresh
    interpreter, under an RLIMIT_AS cap of the size the process has after
    `setup` plus `headroom_mb`. The child must exit 0 within `timeout`
    seconds. Skips where `resource` is missing or /proc/self/statm, from
    which the size is read, does not exist."""
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the process's address-space size is read from /proc")
    child = setup + CAP.format(headroom_mb=headroom_mb) + body
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()
