"""dagdescents benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload table_cold --seed 1 \
        --seconds 40 --trace 0

With ``--trace 0`` it runs the workload's seeded stream of real CLI
invocations, one child at a time (a closed loop with one client), with a
``dagdescents --help`` start-up probe and calibration children after
each, for ``--seconds`` seconds.  It prints the end-to-end metrics,
scaled for the host's speed at the moment (see ``measure``).  With
``--trace 1`` it runs the layer probes and a traced in-process replay of
the same stream instead, and prints the per-layer metrics.  The last
line of stdout is always one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Records, spans included, go to perfbench/.out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

from check import check_output, reference_rows  # noqa: E402
from workloads import (HELP_ARGV, MAX_N, WORKLOADS, Runner,  # noqa: E402
                       child_env, write_snapshot)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    ten samples above it; with fewer than 11 samples, the minimum."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def timed_run(workload: str, seed: int, seconds: float, reference,
              snapshot: Path | None) -> dict:
    spec = WORKLOADS[workload]
    stream = spec.stream(random.Random(seed))
    with Runner(OUT, child_env(SRC, snapshot)) as runner:
        return measure(runner, stream, spec.calibrator, reference, seconds)


def measure(runner: Runner, stream, calibrator: str, reference,
            seconds: float) -> dict:
    """Closed loop for ``seconds``: each workload invocation is followed
    by a --help probe and the calibration children.

    The host's speed swings by up to 2x within seconds, and every child
    swings with it.  So each time is divided by the host's slowdown,
    measured by calibration children, which share no code with the
    program: for an invocation, the mean of the slowdowns just before
    and just after it; for a --help probe, the one just after it.  The
    program's own cost stays, the host's phase cancels.
    """
    # --help imports every module: it warms the page and bytecode caches.
    _, code, out, err, _ = runner.run(HELP_ARGV)
    if check_output(HELP_ARGV, code, out, reference):
        raise SystemExit(f"warm-up --help failed (exit {code})\n{err}")

    raw = {"wall_s": [], "setup_s": [], "slowdown_pass": [],
           "slowdown_loop": []}
    walls, setups, rss, failures = [], [], [], []
    before = runner.slowdown(calibrator)
    deadline = time.perf_counter() + seconds
    while True:
        argv = next(stream)
        wall, code, out, err, peak = runner.run(argv)
        raw["wall_s"].append(wall)
        rss.append(peak)
        problem = check_output(argv, code, out, reference)
        if problem:
            failures.append({"argv": argv, "problem": problem,
                             "stderr": err[-2000:]})
        help_wall, code, out, err, _ = runner.run(HELP_ARGV)
        if check_output(HELP_ARGV, code, out, reference):
            raise SystemExit(f"start-up probe failed (exit {code})\n{err}")
        raw["setup_s"].append(help_wall)
        slowdown = {name: runner.slowdown(name)
                    for name in dict.fromkeys(("pass", calibrator))}
        for name, factor in slowdown.items():
            raw[f"slowdown_{name}"].append(factor)
        walls.append(wall / ((before + slowdown[calibrator]) / 2))
        setups.append(help_wall / slowdown["pass"])
        before = slowdown[calibrator]
        if time.perf_counter() >= deadline:
            break

    tail_value, tail_pct = tail(walls)
    notes = {
        "wall_s.tail": f"p{tail_pct:.1f} of {len(walls)} invocations",
        "setup_s": f"median of {len(setups)} --help probes",
        "error_rate": f"{len(failures) / len(walls):.4g} "
                      f"({len(failures)}/{len(walls)})",
    }
    for name, values in raw.items():
        if values:
            notes[f"raw.{name}"] = f"median {statistics.median(values):.6g}"
    return {
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s.p50": (statistics.median(walls), "s"),
            "wall_s.tail": (tail_value, "s"),
            "peak_rss_mb": (max(rss), "MB"),
        },
        "notes": notes,
        "failures": failures,
        "samples": {"wall_s": walls, "setup_s": setups, "rss_mb": rss,
                    "raw": raw},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dagdescents" / "__init__.py").is_file():
        print(f"error: no dagdescents package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    start_facts = host_facts()
    reference = reference_rows(MAX_N)
    from dagdescents import GOLDEN_COUNTS
    if any(reference[n] != list(row) for n, row in GOLDEN_COUNTS.items()):
        print("error: reference disagrees with GOLDEN_COUNTS",
              file=sys.stderr)
        return 2

    if args.trace:
        from traced import traced_run
        result = traced_run(args.workload, args.seed, args.seconds,
                            reference, SRC, OUT)
    else:
        snapshot = None
        if WORKLOADS[args.workload].uses_snapshot:
            from dagdescents import DescentCounter
            counter = DescentCounter()
            counter.table(MAX_N)
            snapshot = OUT / "snapshot.cache"
            write_snapshot(snapshot, counter)
        result = timed_run(args.workload, args.seed, args.seconds,
                           reference, snapshot)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host_start": start_facts, "host_end": host_facts(), **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} "
          f"nproc {start_facts['nproc']} python {start_facts['python']} "
          f"loadavg {start_facts['loadavg'][0]:.2f} -> "
          f"{record['host_end']['loadavg'][0]:.2f}")
    for name in result.get("missing", []):
        print(f"{name} missing")
    for failure in result["failures"][:5]:
        print(f"FAILED {' '.join(failure['argv'])}: {failure['problem']}")
    for metric, (value, unit) in result["metrics"].items():
        note = result["notes"].get(metric)
        print(f"{metric} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for metric, note in result["notes"].items():
        if metric not in result["metrics"]:
            print(f"{metric} {note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
