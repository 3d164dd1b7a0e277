"""Command-line frontend.

Four subcommands:

- ``value``: print one count d(n,k).
- ``table``: emit the full triangle up to --max-n as csv, json, md or latex.
- ``verify``: recompute everything from scratch and cross-check it against
  the golden fixture, the exhaustive enumerator, the labeled-DAG totals,
  the reciprocal-series identity, and the subset-pair histograms.
- ``cache``: save, validate-load, or clear a memo snapshot file.

Exit codes: 0 success, 1 verification or cache-data mismatch or an
internal inconsistency (a filled count came out negative, as a poisoned
cache can cause), 2 usage error.  The DESCENTS_CACHE environment
variable supplies a default cache path; ``value`` and ``table`` preload
it when it exists (ignoring it with a warning if it fails validation),
while ``verify`` always starts cold so the checks actually exercise the
recurrences.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache as cache_io
from .combinatorics import gaussian_coefficient
from .engine import (
    DescentCounter,
    EngineInconsistency,
    labeled_dag_total,
    series_identity_check,
)
from .golden import GOLDEN_COUNTS, GOLDEN_MAX_N
from .oracle import MAX_ORACLE_N, enumerate_counts, subset_pair_histogram

CHECK_NAMES = ("golden", "totals", "series", "subsets", "oracle")

TABLE_FORMATS = ("csv", "json", "md", "latex")


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = _nonnegative(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagdescents",
        description="Count labeled acyclic digraphs by number of descents "
                    "(edges x->y with x > y).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser(
        "value", help="print a single count d(n,k)")
    p_value.add_argument("--n", type=_nonnegative, required=True,
                         help="number of vertices")
    p_value.add_argument("--k", type=_nonnegative, required=True,
                         help="number of descents")

    p_table = sub.add_parser(
        "table", help="emit the table of counts for n = 1..max-n")
    p_table.add_argument("--max-n", type=_positive, required=True,
                         dest="max_n", help="largest vertex count")
    p_table.add_argument("--max-k", type=_nonnegative, default=None,
                         dest="max_k",
                         help="cap on emitted k columns (default: full rows)")
    p_table.add_argument("--format", choices=TABLE_FORMATS, default="csv",
                         help="output format (default csv)")
    p_table.add_argument("--out", default=None,
                         help="write to this file instead of stdout")

    p_verify = sub.add_parser(
        "verify",
        help="cross-check the recurrences against independent ground truth")
    p_verify.add_argument("--max-n", type=_positive, default=8, dest="max_n",
                          help="verify totals/series up to this n (default 8)")
    p_verify.add_argument("--oracle-max-n", type=_positive, default=4,
                          dest="oracle_max_n",
                          help="exhaustively enumerate up to this n "
                               "(default 4, max 6)")
    p_verify.add_argument("--allow-slow", action="store_true",
                          help="permit the n=6 exhaustive run (2**30 masks)")
    p_verify.add_argument("--checks", default=",".join(CHECK_NAMES),
                          help="comma-separated subset of: "
                               + ", ".join(CHECK_NAMES))

    p_cache = sub.add_parser(
        "cache", help="manage a persisted memo snapshot")
    p_cache.add_argument("action", choices=("save", "load", "clear"))
    p_cache.add_argument("--path", default=None,
                         help="cache file (default: $DESCENTS_CACHE)")
    p_cache.add_argument("--max-n", type=_positive, default=8, dest="max_n",
                         help="for save: fill tables up to this n first "
                              "(default 8)")
    return parser


# ----------------------------------------------------------------------
# table formatting

def _capped(row: list[int], max_k: int | None) -> list[int]:
    if max_k is None:
        return row
    return row[:max_k + 1]


def format_csv(rows: list[list[int]], max_k: int | None) -> str:
    lines = ["n,k,count"]
    for index, row in enumerate(rows):
        n = index + 1
        for k, count in enumerate(_capped(row, max_k)):
            lines.append(f"{n},{k},{count}")
    return "\n".join(lines) + "\n"


def format_json(rows: list[list[int]], max_k: int | None) -> str:
    payload = {
        "max_n": len(rows),
        "d": {str(index + 1): [str(count) for count in _capped(row, max_k)]
              for index, row in enumerate(rows)},
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _grid(rows: list[list[int]], max_k: int | None):
    """Shared layout for md/latex: k down the side, n across the top.

    The TOTAL line always sums full rows, even when --max-k hides columns,
    because it reports the number of acyclic digraphs, not a partial sum.
    """
    height = max(len(row) for row in rows) - 1
    if max_k is not None:
        height = min(height, max_k)
    body = []
    for k in range(height + 1):
        body.append([row[k] if k < len(row) else 0 for row in rows])
    totals = [sum(row) for row in rows]
    return body, totals


def format_md(rows: list[list[int]], max_k: int | None) -> str:
    body, totals = _grid(rows, max_k)
    header = ["k \\ n"] + [str(n) for n in range(1, len(rows) + 1)]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join([" --- "] + [" ---: "] * len(rows)) + "|"]
    for k, cells in enumerate(body):
        lines.append("| " + " | ".join([str(k)] + [str(c) for c in cells])
                     + " |")
    lines.append("| TOTAL | " + " | ".join(str(t) for t in totals) + " |")
    return "\n".join(lines) + "\n"


def format_latex(rows: list[list[int]], max_k: int | None) -> str:
    body, totals = _grid(rows, max_k)
    columns = len(rows)
    lines = ["\\begin{tabular}{l|" + "r" * columns + "}",
             "$k \\backslash n$ & "
             + " & ".join(str(n) for n in range(1, columns + 1))
             + " \\\\ \\hline"]
    for k, cells in enumerate(body):
        lines.append(f"{k} & " + " & ".join(str(c) for c in cells) + " \\\\")
    lines.append("\\hline")
    lines.append("TOTAL & " + " & ".join(str(t) for t in totals) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


FORMATTERS = {
    "csv": format_csv,
    "json": format_json,
    "md": format_md,
    "latex": format_latex,
}


# ----------------------------------------------------------------------
# verify checks: each returns None on success or a failure detail string

def _check_golden(counter: DescentCounter, max_n: int) -> str | None:
    top = min(max_n, GOLDEN_MAX_N)
    for n in range(1, top + 1):
        expected_row = GOLDEN_COUNTS[n]
        actual_row = counter.table(n)[n - 1]
        for k, expected in enumerate(expected_row):
            actual = actual_row[k]
            if actual != expected:
                return f"d {n} {k} expected {expected} actual {actual}"
    return None


def _check_totals(counter: DescentCounter, max_n: int) -> str | None:
    for n in range(max_n + 1):
        expected = labeled_dag_total(n)
        actual = counter.row_total(n)
        if actual != expected:
            return f"total {n} expected {expected} actual {actual}"
    return None


def _check_series(max_n: int) -> str | None:
    if not series_identity_check(max_n):
        return f"reciprocal series identity fails by degree {max_n}"
    return None


def _check_subsets() -> str | None:
    for n in range(9):
        for j in range(n + 1):
            histogram = subset_pair_histogram(n, j)
            for i, actual in enumerate(histogram):
                expected = gaussian_coefficient(n, j, i)
                if actual != expected:
                    return (f"histogram {n} {j} index {i} "
                            f"expected {expected} actual {actual}")
    return None


def _check_oracle(counter: DescentCounter, oracle_max_n: int,
                  allow_slow: bool) -> str | None:
    for n in range(1, oracle_max_n + 1):
        counts = enumerate_counts(n, allow_slow=allow_slow)
        per_family = (
            ("d", counter.dag_count, counts.by_descents.__getitem__),
            ("t", counter.spanning_from_lowest,
             counts.spanning_from_lowest.__getitem__),
            ("u", counter.spanning_from_highest,
             counts.spanning_from_highest.__getitem__),
            ("A", counter.descent_incidences_into_lowest,
             counts.descent_incidences_into_lowest),
            ("B", counter.reachability_incidences_from_lowest,
             counts.reachability_incidences_from_lowest),
            ("Cw", counter.lowest_indegree_overcount,
             counts.lowest_indegree_overcount),
        )
        for k in range(n * (n - 1) // 2 + 1):
            for family, engine_side, oracle_side in per_family:
                expected = oracle_side(k)
                actual = engine_side(n, k)
                if actual != expected:
                    return (f"{family} {n} {k} "
                            f"expected {expected} actual {actual}")
    return None


# ----------------------------------------------------------------------
# subcommands

def _preload_from_env() -> DescentCounter:
    """A counter preloaded from $DESCENTS_CACHE; a cache that fails
    validation is ignored with a warning, never fatal."""
    counter = DescentCounter()
    path = os.environ.get(cache_io.ENV_VAR)
    if not path or not os.path.exists(path):
        return counter
    try:
        cache_io.apply_records(counter, cache_io.load_records(path))
    except cache_io.CacheError as exc:
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        return DescentCounter()  # drop whatever was staged before the error
    return counter


def _cmd_value(args: argparse.Namespace) -> int:
    print(_preload_from_env().dag_count(args.n, args.k))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rows = _preload_from_env().table(args.max_n)
    text = FORMATTERS[args.format](rows, args.max_k)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    requested = [name.strip() for name in args.checks.split(",")
                 if name.strip()]
    unknown = [name for name in requested if name not in CHECK_NAMES]
    if unknown:
        parser.error(f"unknown checks: {', '.join(unknown)} "
                     f"(valid: {', '.join(CHECK_NAMES)})")
    if args.oracle_max_n > MAX_ORACLE_N:
        parser.error(f"--oracle-max-n is capped at {MAX_ORACLE_N}")
    if args.oracle_max_n == MAX_ORACLE_N and not args.allow_slow:
        parser.error("--oracle-max-n 6 scans 2**30 masks; "
                     "pass --allow-slow to confirm")

    counter = DescentCounter()  # deliberately cold: no cache preload
    failures = 0
    for name in CHECK_NAMES:
        if name not in requested:
            continue
        if name == "golden":
            detail = _check_golden(counter, args.max_n)
            scope = f"rows 1..{min(args.max_n, GOLDEN_MAX_N)} vs fixture"
        elif name == "totals":
            detail = _check_totals(counter, args.max_n)
            scope = f"row sums vs alternating recurrence, n <= {args.max_n}"
        elif name == "series":
            detail = _check_series(args.max_n)
            scope = f"reciprocal series through degree {args.max_n}"
        elif name == "subsets":
            detail = _check_subsets()
            scope = "pair histograms vs coefficients, n <= 8"
        else:
            detail = _check_oracle(counter, args.oracle_max_n,
                                   args.allow_slow)
            scope = (f"six families vs exhaustive enumeration, "
                     f"n <= {args.oracle_max_n}")
        if detail is None:
            print(f"PASS {name}: {scope}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    path = args.path or os.environ.get(cache_io.ENV_VAR)
    if not path:
        parser.error("no cache path: pass --path or set $DESCENTS_CACHE")
    if args.action == "save":
        counter = DescentCounter()
        counter.table(args.max_n)
        try:
            count = cache_io.save_cache(path, counter)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 2
        print(f"saved {count} entries to {path}")
        return 0
    if args.action == "load":
        try:
            records = cache_io.load_records(path)
            counter = DescentCounter()
            cache_io.apply_records(counter, records)
        except cache_io.CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"loaded {len(records)} entries from {path} "
              f"(fixture overlap verified)")
        return 0
    try:
        cache_io.clear_cache(path)
    except OSError as exc:
        print(f"error: cannot clear {path}: {exc}", file=sys.stderr)
        return 2
    print(f"cleared {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "value":
            return _cmd_value(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        return _cmd_cache(args, parser)
    except EngineInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
