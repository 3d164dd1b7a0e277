"""Command-line frontend.

Three subcommands:

- ``value``: print one count d(n,k).
- ``table``: emit the full triangle up to --max-n as csv, json, md or latex.
- ``verify``: recompute everything from scratch and cross-check it against
  the golden fixture, the exhaustive enumerator, the labeled-DAG totals,
  the reciprocal-series identity, and the subset-pair histograms.  The
  checks live in the ``verify`` module, which only this subcommand loads.

Each computes from a cold engine and writes its output, help text
included, only to stdout.  Numeric options take what ``int()`` takes,
so ``--n ３`` reads as 3 and ``--n 1_0`` as 10.  Exit codes: 0 success,
1 verification mismatch, an internal inconsistency (a filled count came
out negative or broke one of the engine's identities) or a failed
stdout write (a full device, or fd 1 closed), 2 usage error, including
a vertex count above ``engine.MAX_N``, 130 interrupted (SIGINT), 141
stdout closed by its reader (128 + SIGPIPE, nothing on stderr).
"""
import argparse
import errno
import os
import sys

from .engine import MAX_N, DescentCounter, EngineInconsistency

# Every call pays for the imports above at start-up, so they are only
# what ``value`` and ``table`` run.  json and the ``verify`` module (its
# checks, the golden fixture and the oracle) are imported inside the code
# that uses them.

#: The names of ``verify.VERIFY_CHECKS``, in run order, for the parser.
CHECK_NAMES = ("golden", "totals", "series", "subsets", "oracle")


def _count(low: int, high: int | None = None):
    """An argparse type: an integer >= low, and <= high unless it is None."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # int() also refuses an integer past the interpreter's int/str
            # digit limit (Python >= 3.10.7; 0 is no limit)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and sum(map(str.isdecimal, text)) > limit:
                raise argparse.ArgumentTypeError(f"more than {limit} digits")
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _oracle_depth(text: str) -> int:
    from .oracle import MAX_ORACLE_N  # only when --oracle-max-n is given

    return _count(1, MAX_ORACLE_N)(text)


def _check_names(text: str) -> tuple[str, ...]:
    requested = tuple(filter(None, map(str.strip, text.split(","))))
    valid = f"(valid: {', '.join(CHECK_NAMES)})"
    if not requested:
        raise argparse.ArgumentTypeError(f"no checks named {valid}")
    unknown = [name for name in requested if name not in CHECK_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown checks: {', '.join(unknown)} {valid}")
    return requested


class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of help text; here it raises, so that
    ``--help`` fails like every other write.  Subparsers share the class."""

    def print_help(self, file=None):
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dagdescents",
        description="Count labeled acyclic digraphs by number of descents "
                    "(edges x->y with x > y).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser(
        "value", help="print a single count d(n,k)")
    p_value.add_argument("--n", type=_count(0, MAX_N), required=True,
                         help="number of vertices")
    p_value.add_argument("--k", type=_count(0), required=True,
                         help="number of descents")
    p_value.set_defaults(handler=_cmd_value)

    p_table = sub.add_parser(
        "table", help="emit the table of counts for n = 1..max-n")
    p_table.add_argument("--max-n", type=_count(1, MAX_N), required=True,
                         help="largest vertex count")
    p_table.add_argument("--max-k", type=_count(0), default=None,
                         help="cap on emitted k columns (default: full rows)")
    p_table.add_argument("--format", choices=FORMATTERS, default="csv",
                         help="output format (default csv)")
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser(
        "verify",
        help="cross-check the recurrences against independent ground truth")
    p_verify.add_argument("--max-n", type=_count(1, MAX_N), default=8,
                          help="check golden (to at most n = 8), totals and "
                               "series up to this n (default 8)")
    p_verify.add_argument("--oracle-max-n", type=_oracle_depth, default=4,
                          help="exhaustively enumerate up to this n "
                               "(default 4, max 6)")
    p_verify.add_argument("--checks", type=_check_names, default=CHECK_NAMES,
                          help="comma-separated subset of: "
                               + ", ".join(CHECK_NAMES))
    p_verify.set_defaults(handler=_cmd_verify)
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
    import json

    payload = {
        "max_n": len(rows),
        "d": {str(index + 1): [str(count) for count in _capped(row, max_k)]
              for index, row in enumerate(rows)},
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _grid(rows: list[list[int]], max_k: int | None, corner: str):
    """The md/latex table, k down and n across, as lines of cells: the
    header (``corner``, then n = 1..N), one line per k (k, then d(n,k),
    0 past C(n,2)), and the TOTAL line, which sums full rows even when
    --max-k hides columns: it reports the number of acyclic digraphs."""
    capped = [_capped(row, max_k) for row in rows]
    body = [[k] + [row[k] if k < len(row) else 0 for row in capped]
            for k in range(max(map(len, capped)))]
    lines = [[corner, *range(1, len(rows) + 1)], *body,
             ["TOTAL", *map(sum, rows)]]
    return [[str(cell) for cell in line] for line in lines]


def format_md(rows: list[list[int]], max_k: int | None) -> str:
    header, *lines = ["| " + " | ".join(cells) + " |"
                      for cells in _grid(rows, max_k, "k \\ n")]
    rule = "|" + "|".join([" --- "] + [" ---: "] * len(rows)) + "|"
    return "\n".join([header, rule, *lines]) + "\n"


def format_latex(rows: list[list[int]], max_k: int | None) -> str:
    header, *body, total = [" & ".join(cells) + " \\\\" for cells
                            in _grid(rows, max_k, "$k \\backslash n$")]
    return "\n".join(["\\begin{tabular}{l|" + "r" * len(rows) + "}",
                      header + " \\hline", *body, "\\hline", total,
                      "\\end{tabular}"]) + "\n"


FORMATTERS = {
    "csv": format_csv,
    "json": format_json,
    "md": format_md,
    "latex": format_latex,
}


# ----------------------------------------------------------------------
# subcommands

def _cmd_value(args: argparse.Namespace) -> int:
    print(DescentCounter().dag_count(args.n, args.k))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rows = DescentCounter().table(args.max_n)
    sys.stdout.write(FORMATTERS[args.format](rows, args.max_k))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run

    return run(args)


def main(argv: list[str] | None = None) -> int:
    if sys.stderr is None:  # fd 2 was closed before start-up
        # left None, print() and argparse would write error text to stdout
        sys.stderr = open(os.devnull, "w")
    try:
        if sys.stdout is None:  # fd 1 was closed before start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            args = build_parser().parse_args(argv)
            code = args.handler(args)
        except SystemExit as exc:  # --help, or a usage error
            code = exc.code
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except EngineInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:  # a write to stdout failed
        if sys.stdout is not None:
            # fd 1 goes to devnull, so the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1
