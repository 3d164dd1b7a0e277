"""Workload definitions and the child-process runner.

Each workload is an endless stream of ``dagdescents`` argv lists drawn
from a seeded ``random.Random``; the program only ever sees the argv.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from check import FORMATS, VERIFY_CHECKS

#: Largest n any workload asks for; the reference is computed this far.
MAX_N = 11

VERIFY_ARGV = ["verify", "--max-n", "8", "--oracle-max-n", "5",
               "--checks", ",".join(VERIFY_CHECKS)]

HELP_ARGV = ["--help"]

SNAPSHOT_HEADER = "DESCENTS-CACHE v1"

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def table_cold(rng: random.Random):
    while True:
        yield ["table", "--max-n", "10", "--format", rng.choice(FORMATS)]


def query_mix(rng: random.Random):
    while True:
        if rng.random() < 0.2:
            yield ["table", "--max-n", str(rng.randint(1, MAX_N)),
                   "--format", rng.choice(FORMATS)]
        else:
            n = rng.randint(0, MAX_N)
            yield ["value", "--n", str(n),
                   "--k", str(rng.randint(0, n * (n - 1) // 2))]


def verify_oracle(rng: random.Random):
    # The seed is not used: every invocation is the same fixed check list.
    while True:
        yield VERIFY_ARGV


#: Calibration children: fixed Python code that shares nothing with the
#: package, run after every workload invocation.  "pass" is interpreter
#: start-up alone; "loop" adds about 0.1 s of integer arithmetic.
CALIBRATORS = {
    "pass": "pass",
    "loop": "x = 0\nfor i in range(400000):\n    x += (i * i) % 7\n",
}

#: Seconds each calibrator takes, about the median over 10 minutes on the
#: host where the baseline was recorded (2 vCPU Xeon at 2.0 GHz, Python
#: 3.11.7).  Timings are scaled to these, so they read as seconds on that
#: host at its median speed.
CALIBRATION_REFERENCE_S = {"pass": 0.065, "loop": 0.15}


class Workload(NamedTuple):
    stream: Callable[[random.Random], Iterator[list[str]]]
    uses_snapshot: bool  # DESCENTS_CACHE points at the n <= 11 snapshot
    calibrator: str  # the CALIBRATORS entry closest in kind to the work


WORKLOADS = {
    "table_cold": Workload(table_cold, False, "loop"),
    "query_mix": Workload(query_mix, True, "pass"),
    "verify_oracle": Workload(verify_oracle, False, "loop"),
}


def write_snapshot(path: Path, counter) -> None:
    """Write every memoized cell of ``counter`` as a DESCENTS-CACHE v1 file."""
    lines = [SNAPSHOT_HEADER]
    lines.extend(f"{family} {n} {k} {value}"
                 for family, n, k, value in counter.entries())
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def child_env(src: Path, snapshot: Path | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DESCENTS_CACHE", None)
    if snapshot is not None:
        env["DESCENTS_CACHE"] = str(snapshot)
    return env


class Runner:
    """Runs one ``python -m dagdescents`` child at a time through the
    launcher process; use it as a context manager."""

    def __init__(self, workdir: Path, env: dict[str, str]) -> None:
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, argv: list[str]) -> tuple[float, int, str, str, float]:
        return self.spawn([sys.executable, "-m", "dagdescents", *argv])

    def slowdown(self, calibrator: str) -> float:
        """The host's slowdown now: a calibration child's time over its
        reference time."""
        wall, code, _, err, _ = self.spawn(
            [sys.executable, "-c", CALIBRATORS[calibrator]])
        if code != 0:
            raise SystemExit(f"calibration child failed (exit {code})\n{err}")
        return wall / CALIBRATION_REFERENCE_S[calibrator]

    def spawn(self, command: list[str]) -> tuple[float, int, str, str, float]:
        """Returns (wall seconds, exit code, stdout, stderr, max RSS in MB)."""
        self.launcher.stdin.write(json.dumps(command) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        result = json.loads(line)
        return (result["wall"], result["code"], result["stdout"],
                result["stderr"], result["rss_mb"])
