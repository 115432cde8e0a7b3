"""Measurements that need a fresh interpreter: set-up time, cold runs, peak RSS.

Children run one after another, never in parallel, and are waited for;
a child that outlives its timeout is killed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

TIMEOUT_S = 120.0

#: Import the CLI and build the first Scenario from a config, timed in the child.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import blipsim.cli as cli
cli._scenario_from_config(cli._load_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def setup_seconds(src: Path, config: Path) -> float:
    """``import blipsim.cli`` plus ``_load_config`` and ``_scenario_from_config``."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        env=child_env(src), capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def cold_run(src: Path, config: Path, out_dir: Path) -> tuple[float, int, float]:
    """One ``python -m blipsim.cli run --strict`` in a fresh process.

    Returns the wall time from spawn to exit, the exit code, and the child's
    peak RSS in MiB (``ru_maxrss`` of that child alone, from ``wait4``).
    """
    argv = [
        sys.executable, "-m", "blipsim.cli", "run",
        "--config", str(config), "--out", str(out_dir), "--strict",
    ]
    with open(out_dir.parent / f"{out_dir.name}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(src), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0
