"""Traced run: per-layer probes plus a traced in-process replay.

Only public names that the ROADMAP keeps are touched:
``DescentCounter.table/dag_count/entries``, ``enumerate_counts``,
``cli.main``, ``cli.FORMATTERS``, the cache module's load/apply/save
functions and the ``combinatorics`` names that ``dagdescents.engine``
imported.  A probe whose names have gone reports its metrics as
missing; the run goes on.

Each probe group's times are scaled for the host's speed like the timed
run's.  Wrappers on hot kernels only count and time, and their timer
cost is calibrated out: a span per kernel call would triple a
``table(10)``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

from check import FORMATS, PARSERS, VERIFY_CHECKS, check_output
from workloads import MAX_N, WORKLOADS, Runner, child_env, write_snapshot

KERNELS = ("binomial", "gaussian_coeffs", "gaussian_coefficient", "pow2")

PROBE_METRICS = {
    "startup": ["startup.bare_interpreter_s", "startup.import_s"],
    "engine": [f"engine.fill_s.n{n}" for n in range(7, 11)]
    + ["engine.fill_s.total", "engine.cells"],
    "cache": ["engine.staged_fill_s", "cache.load_s", "cache.save_s",
              "cache.records", "cache.bytes"],
    "combinatorics": [f"combinatorics.calls.{name}" for name in KERNELS]
    + ["combinatorics.busy_s"],
    "oracle": ["oracle.enumerate_s.n5", "oracle.dags_per_s"],
    "verify": [f"cli.verify_s.{name}" for name in VERIFY_CHECKS],
    "format": [f"cli.{kind}.{fmt}" for fmt in FORMATS
               for kind in ("format_s", "output_bytes")],
}


class Missing(Exception):
    """A public name the probe needs is gone."""


def public(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise Missing(f"{module}.{name}") from exc


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class Tracer:
    """In-memory spans: name, start, end, parent index, invocation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.invocation = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "invocation": self.invocation,
                    "parent": self.stack[-1] if self.stack else None,
                    "start": time.perf_counter()}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        totals: dict[str, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]["name"]
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals


def _get(container, key):
    if isinstance(container, dict):
        return container.get(key)
    return getattr(container, key, None)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextlib.contextmanager
def swapped(entries):
    """For the duration, replace each (container, key) that exists by
    ``make(original)``; containers are dicts, modules or classes."""
    saved = [(container, key, _get(container, key), make)
             for container, key, make in entries
             if _get(container, key) is not None]
    try:
        for container, key, original, make in saved:
            _set(container, key, make(original))
        yield
    finally:
        for container, key, original, _ in saved:
            _set(container, key, original)


@contextlib.contextmanager
def cache_env(snapshot: Path | None):
    saved = os.environ.pop("DESCENTS_CACHE", None)
    if snapshot is not None:
        os.environ["DESCENTS_CACHE"] = str(snapshot)
    try:
        yield
    finally:
        os.environ.pop("DESCENTS_CACHE", None)
        if saved is not None:
            os.environ["DESCENTS_CACHE"] = saved


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)`` in-process; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation
            traceback.print_exc()
            code = 1
    return code, buffer.getvalue()


class Probes:
    """Per-layer measurements; each check of an output is counted."""

    def __init__(self, reference, out: Path, runner: Runner) -> None:
        self.reference = reference
        self.out = out
        self.runner = runner
        self.metrics: dict[str, tuple[float, str]] = {}
        self.missing: list[str] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.filled = None  # a counter filled to MAX_N by the engine probe

    def expect(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append({"argv": [what], "problem": problem,
                                  "stderr": ""})

    def expect_rows(self, what: str, rows, top: int) -> None:
        ok = rows == self.reference[1:top + 1]
        self.expect(what, None if ok else f"{what} differs from reference")

    def run(self, group: str, probe) -> None:
        """Run one probe group and scale its times for the host's speed,
        as the timed run does: by the mean slowdown just before and just
        after it, measured by the "loop" calibration child."""
        before = self.runner.slowdown("loop")
        try:
            probe()
        except Missing:
            self.missing.extend(PROBE_METRICS[group])
            return
        factor = (before + self.runner.slowdown("loop")) / 2
        for name in PROBE_METRICS[group]:
            value, unit = self.metrics.get(name, (None, None))
            if unit == "s":
                self.metrics[name] = (value / factor, unit)
            elif unit == "1/s":
                self.metrics[name] = (value * factor, unit)

    def startup(self) -> None:
        bare, imported = [], []
        for _ in range(7):
            bare.append(self.runner.spawn([sys.executable, "-c", "pass"])[0])
            wall, code, _, _, _ = self.runner.spawn(
                [sys.executable, "-c", "import dagdescents.cli"])
            imported.append(wall)
            self.expect("import dagdescents.cli",
                        None if code == 0 else f"exit code {code}")
        self.metrics["startup.bare_interpreter_s"] = (
            statistics.median(bare), "s")
        self.metrics["startup.import_s"] = (statistics.median(imported), "s")

    def engine(self) -> None:
        counter = public("dagdescents.engine", "DescentCounter")()
        fills = {}
        for level in range(1, 11):
            fills[level], rows = timed(counter.table, level)
        self.expect_rows("table(10)", rows, 10)
        for level in range(7, 11):
            self.metrics[f"engine.fill_s.n{level}"] = (fills[level], "s")
        self.metrics["engine.fill_s.total"] = (sum(fills.values()), "s")
        self.metrics["engine.cells"] = (
            sum(1 for _ in counter.entries()), "count")
        self.expect_rows("table(11)", counter.table(MAX_N), MAX_N)
        self.filled = counter

    def cache(self, snapshot: Path) -> None:
        counter_class = public("dagdescents.engine", "DescentCounter")
        load = public("dagdescents.cache", "load_records")
        apply = public("dagdescents.cache", "apply_records")
        save = public("dagdescents.cache", "save_cache")
        loads, fills, saves = [], [], []
        for _ in range(5):
            start = time.perf_counter()
            records = load(snapshot)
            staged = counter_class()
            apply(staged, records)
            loads.append(time.perf_counter() - start)
            elapsed, rows = timed(staged.table, MAX_N)
            fills.append(elapsed)
            self.expect_rows("staged table(11)", rows, MAX_N)
            elapsed, count = timed(save, self.out / "saved.cache",
                                   self.filled)
            saves.append(elapsed)
        self.metrics["engine.staged_fill_s"] = (statistics.median(fills), "s")
        self.metrics["cache.load_s"] = (statistics.median(loads), "s")
        self.metrics["cache.save_s"] = (statistics.median(saves), "s")
        self.metrics["cache.records"] = (count, "count")
        self.metrics["cache.bytes"] = (
            (self.out / "saved.cache").stat().st_size, "bytes")

    def combinatorics(self) -> None:
        engine = importlib.import_module("dagdescents.engine")
        counter = public("dagdescents.engine", "DescentCounter")()
        calls = dict.fromkeys(KERNELS, 0)
        busy = [0.0]

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                busy[0] += time.perf_counter() - start
                return result
            return wrapper

        # Timer cost per call, measured through the same wrapper.
        noop = counting("pow2", lambda *args: None)
        for _ in range(100_000):
            noop(1, 2)
        bias = busy[0] / calls["pow2"]
        calls["pow2"], busy[0] = 0, 0.0

        present = [name for name in KERNELS if hasattr(engine, name)]
        self.missing.extend(f"combinatorics.calls.{name}"
                            for name in KERNELS if name not in present)
        with swapped([(engine, name, functools.partial(counting, name))
                      for name in present]):
            rows = counter.table(10)
        self.expect_rows("table(10) with counted kernels", rows, 10)
        for name in present:
            self.metrics[f"combinatorics.calls.{name}"] = (
                calls[name], "count")
        self.metrics["combinatorics.busy_s"] = (
            busy[0] - bias * sum(calls.values()), "s")

    def oracle(self) -> None:
        enumerate_counts = public("dagdescents.oracle", "enumerate_counts")
        elapsed, counts = timed(enumerate_counts, 5)
        self.expect("enumerate_counts(5)",
                    None if list(counts.by_descents) == self.reference[5]
                    else "enumerate_counts(5) differs from reference")
        self.metrics["oracle.enumerate_s.n5"] = (elapsed, "s")
        self.metrics["oracle.dags_per_s"] = (
            sum(self.reference[5]) / elapsed, "1/s")

    def verify(self) -> None:
        main = public("dagdescents.cli", "main")
        for name in VERIFY_CHECKS:
            argv = ["verify", "--max-n", "8", "--oracle-max-n", "5",
                    "--checks", name]
            elapsed, (code, out) = timed(call_cli, main, argv)
            self.expect(" ".join(argv),
                        check_output(argv, code, out, self.reference))
            self.metrics[f"cli.verify_s.{name}"] = (elapsed, "s")

    def format(self) -> None:
        formatters = public("dagdescents.cli", "FORMATTERS")
        rows = [list(row) for row in self.reference[1:11]]
        for fmt in FORMATS:
            times = []
            for _ in range(20):
                elapsed, text = timed(formatters[fmt], rows, None)
                times.append(elapsed)
            try:
                ok = PARSERS[fmt](text)[0] == rows
            except ValueError:
                ok = False
            self.expect(f"{fmt} formatter", None if ok else "bad output")
            self.metrics[f"cli.format_s.{fmt}"] = (
                statistics.median(times), "s")
            self.metrics[f"cli.output_bytes.{fmt}"] = (
                len(text.encode()), "bytes")


def replay(workload: str, seed: int, budget: float, probes: Probes,
           snapshot: Path) -> tuple[Tracer, dict]:
    """Run the workload's argv stream in-process, untraced for ``budget``
    seconds (at least one invocation), then the same list traced."""
    import dagdescents.cli as cli
    counter_class = public("dagdescents.engine", "DescentCounter")
    spec = WORKLOADS[workload]
    stream = spec.stream(random.Random(seed))
    reference = probes.reference
    tracer = Tracer()
    cache_module = sys.modules.get("dagdescents.cache")
    targets = [(counter_class, "table", "engine.table"),
               (counter_class, "dag_count", "engine.dag_count"),
               (cli, "enumerate_counts", "oracle.enumerate_counts")]
    targets += [(cli.FORMATTERS, fmt, "cli.format") for fmt in FORMATS]
    targets += [(cache_module, name, f"cache.{name}")
                for name in ("load_records", "apply_records")]
    spans = [(container, key, functools.partial(tracer.wrap, name))
             for container, key, name in targets]

    argvs: list[list[str]] = []
    with cache_env(snapshot if spec.uses_snapshot else None):
        start = time.perf_counter()
        deadline = start + budget
        while not argvs or time.perf_counter() < deadline:
            argv = next(stream)
            argvs.append(argv)
            code, out = call_cli(cli.main, argv)
            probes.expect(" ".join(argv),
                          check_output(argv, code, out, reference))
        untraced = time.perf_counter() - start

        traced_main = tracer.wrap("cli.main", cli.main)
        start = time.perf_counter()
        with swapped(spans):
            for index, argv in enumerate(argvs):
                tracer.invocation = index
                code, out = tracer.wrap("invocation", call_cli)(
                    traced_main, argv)
                probes.expect(" ".join(argv),
                              check_output(argv, code, out, reference))
        traced = time.perf_counter() - start
    probes.metrics["trace.overhead_s"] = (traced - untraced, "s")
    return tracer, {"invocations": len(argvs), "untraced_s": untraced,
                    "traced_s": traced}


def traced_run(workload: str, seed: int, seconds: float, reference,
               src: Path, out: Path) -> dict:
    snapshot = out / "snapshot.cache"
    with Runner(out, child_env(src, None)) as runner:
        probes = Probes(reference, out, runner)
        probes.run("startup", probes.startup)
        probes.run("engine", probes.engine)
        if probes.filled is None:
            raise SystemExit("error: DescentCounter is gone; "
                             "the snapshot needs it")
        write_snapshot(snapshot, probes.filled)
        probes.run("cache", lambda: probes.cache(snapshot))
        probes.run("combinatorics", probes.combinatorics)
        probes.run("oracle", probes.oracle)
        probes.run("verify", probes.verify)
        probes.run("format", probes.format)
    tracer, replayed = replay(workload, seed, seconds / 8, probes, snapshot)

    self_times = tracer.self_times()
    total = sum(self_times.values())
    largest = max((name for name in self_times if name != "invocation"),
                  key=self_times.__getitem__)
    notes = {
        "replay": f"{replayed['invocations']} invocations, "
                  f"untraced {replayed['untraced_s']:.3f} s, "
                  f"traced {replayed['traced_s']:.3f} s",
        "largest_self_time": f"{largest} "
                             f"({self_times[largest] / total:.1%} of "
                             f"traced invocation time {total:.3f} s)",
    }
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1]):
        notes[f"self_s.{name}"] = (f"{value:.4f} s "
                                   f"({value / total:.1%} of {total:.3f} s)")
    return {"attempted": probes.attempted, "failed": len(probes.failures),
            "metrics": probes.metrics, "notes": notes,
            "failures": probes.failures, "missing": probes.missing,
            "spans": tracer.spans}
