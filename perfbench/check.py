"""Independent output checker for the dagdescents benchmark.

The reference table comes from the source-set inclusion-exclusion
recurrence, the descent-weighted form of Robinson's recurrence
(R. W. Robinson, "Counting labeled acyclic digraphs", 1973).  It shares
no code with the package: even its Gaussian coefficients come from the
other q-Pascal identity than the one ``dagdescents.combinatorics`` uses.

``check_output`` judges one invocation from its argv, exit code and
stdout, and returns ``None`` when every emitted cell is right or a
one-line reason when anything is off.
"""
from __future__ import annotations

import json
import math

VERIFY_CHECKS = ("golden", "totals", "series", "subsets", "oracle")
FORMATS = ("csv", "json", "md", "latex")


def gaussian_triangle(n_max: int) -> list[list[list[int]]]:
    """tri[n][j] = coefficients of (n choose j)_q, by the identity
    (n choose j)_q = (n-1 choose j)_q + q^(n-j) (n-1 choose j-1)_q."""
    tri = [[[1]]]
    for n in range(1, n_max + 1):
        row = []
        for j in range(n + 1):
            coeffs = [0] * (j * (n - j) + 1)
            if j < n:
                for i, c in enumerate(tri[n - 1][j]):
                    coeffs[i] += c
            if j > 0:
                for i, c in enumerate(tri[n - 1][j - 1]):
                    coeffs[i + n - j] += c
            row.append(coeffs)
        tri.append(row)
    return tri


def reference_rows(n_max: int) -> list[list[int]]:
    """Rows [d(n,0), ..., d(n,C(n,2))] for n = 0..n_max.

    Inclusion-exclusion over the nonempty set S of sources, |S| = m: the
    Gaussian coefficient counts the descent slots between S and the rest,
    each cross pair is an edge or not, and an edge is a descent exactly
    when it runs from a higher label to a lower one.
    """
    tri = gaussian_triangle(n_max)
    polys = [[1]]
    for n in range(1, n_max + 1):
        acc = [0] * (n * (n - 1) // 2 + 1)
        for m in range(1, n + 1):
            span = m * (n - m)
            cross = [0] * (span + 1)
            for e, q in enumerate(tri[n][m]):
                weight = q << (span - e)
                for i in range(e + 1):
                    cross[i] += weight * math.comb(e, i)
            sign = 1 if m % 2 else -1
            for i, ci in enumerate(cross):
                for jj, sj in enumerate(polys[n - m]):
                    acc[i + jj] += sign * ci * sj
        polys.append(acc)
    return polys


# ----------------------------------------------------------------------
# parsers: each returns (rows for n = 1..max_n, TOTAL row or None) and
# raises ValueError on anything malformed

def _integer(text: str) -> int:
    if not text.isdigit():
        raise ValueError(f"not a count: {text!r}")
    return int(text)


def _lines(text: str) -> list[str]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return text[:-1].split("\n")


def parse_csv(text: str):
    lines = _lines(text)
    if lines[0] != "n,k,count":
        raise ValueError(f"bad csv header {lines[0]!r}")
    rows: list[list[int]] = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"bad csv line {line!r}")
        n, k, count = (_integer(field) for field in fields)
        if k == 0 and n == len(rows) + 1:
            rows.append([])
        if not rows or n != len(rows) or k != len(rows[-1]):
            raise ValueError(f"csv cell out of order: {line!r}")
        rows[-1].append(count)
    return rows, None


def parse_json(text: str):
    lines = _lines(text)
    if len(lines) != 1:
        raise ValueError("json output is not one line")
    payload = json.loads(lines[0])
    if not isinstance(payload, dict) or set(payload) != {"max_n", "d"}:
        raise ValueError("bad json keys")
    max_n, table = payload["max_n"], payload["d"]
    if list(table) != [str(n) for n in range(1, max_n + 1)]:
        raise ValueError("json rows missing or out of order")
    return [[_integer(cell) for cell in table[key]] for key in table], None


def _columns(grid: list[list[str]], totals: list[str], columns: int):
    """Turn k-down, n-across cells into rows; cells past C(n,2) must be 0."""
    if columns < 1 or len(grid) != columns * (columns - 1) // 2 + 1:
        raise ValueError("grid height does not match its width")
    rows = []
    for index in range(columns):
        column = [_integer(cells[index]) for cells in grid]
        size = index * (index + 1) // 2 + 1
        if any(column[size:]):
            raise ValueError(f"nonzero cell past the end of row {index + 1}")
        rows.append(column[:size])
    return rows, [_integer(total) for total in totals]


def _split_md(line: str) -> list[str]:
    if not (line.startswith("| ") and line.endswith(" |")):
        raise ValueError(f"bad md line {line!r}")
    return line[2:-2].split(" | ")


def parse_md(text: str):
    lines = _lines(text)
    header = _split_md(lines[0])
    columns = len(header) - 1
    if header != ["k \\ n"] + [str(n) for n in range(1, columns + 1)]:
        raise ValueError("bad md header")
    if lines[1] != "|" + "|".join([" --- "] + [" ---: "] * columns) + "|":
        raise ValueError("bad md separator")
    grid = []
    for k, line in enumerate(lines[2:-1]):
        cells = _split_md(line)
        if len(cells) != columns + 1 or cells[0] != str(k):
            raise ValueError(f"bad md body line {line!r}")
        grid.append(cells[1:])
    totals = _split_md(lines[-1])
    if len(totals) != columns + 1 or totals[0] != "TOTAL":
        raise ValueError("bad md TOTAL line")
    return _columns(grid, totals[1:], columns)


def _split_latex(line: str, columns: int) -> list[str]:
    if not line.endswith(" \\\\"):
        raise ValueError(f"bad latex line {line!r}")
    cells = line[:-3].split(" & ")
    if len(cells) != columns + 1:
        raise ValueError(f"bad latex cell count in {line!r}")
    return cells


def parse_latex(text: str):
    lines = _lines(text)
    opening = lines[0]
    prefix, suffix = "\\begin{tabular}{l|", "}"
    if not (opening.startswith(prefix) and opening.endswith(suffix)):
        raise ValueError("bad latex opening")
    columns = len(opening) - len(prefix) - len(suffix)
    if opening != prefix + "r" * columns + suffix:
        raise ValueError("bad latex column spec")
    expected_header = ("$k \\backslash n$ & "
                       + " & ".join(str(n) for n in range(1, columns + 1))
                       + " \\\\ \\hline")
    if lines[1] != expected_header:
        raise ValueError("bad latex header")
    if lines[-3] != "\\hline" or lines[-1] != "\\end{tabular}":
        raise ValueError("bad latex footer")
    grid = []
    for k, line in enumerate(lines[2:-3]):
        cells = _split_latex(line, columns)
        if cells[0] != str(k):
            raise ValueError(f"bad latex body line {line!r}")
        grid.append(cells[1:])
    totals = _split_latex(lines[-2], columns)
    if totals[0] != "TOTAL":
        raise ValueError("bad latex TOTAL line")
    return _columns(grid, totals[1:], columns)


PARSERS = {"csv": parse_csv, "json": parse_json, "md": parse_md,
           "latex": parse_latex}


# ----------------------------------------------------------------------
# the checker

def _option(argv: list[str], name: str, default: str | None = None) -> str:
    if name in argv:
        return argv[argv.index(name) + 1]
    if default is None:
        raise ValueError(f"argv has no {name}")
    return default


def _check_table(argv, stdout, reference):
    fmt = _option(argv, "--format", "csv")
    max_n = int(_option(argv, "--max-n"))
    rows, totals = PARSERS[fmt](stdout)
    if len(rows) != max_n:
        return f"{fmt}: {len(rows)} rows, expected {max_n}"
    for n, row in enumerate(rows, start=1):
        if row != reference[n]:
            return f"{fmt}: row n={n} differs from the reference"
    if totals is not None:
        if totals != [sum(row) for row in rows]:
            return f"{fmt}: TOTAL row differs from the row sums"
    return None


def _check_value(argv, stdout, reference):
    n, k = int(_option(argv, "--n")), int(_option(argv, "--k"))
    expected = reference[n][k] if k < len(reference[n]) else 0
    if stdout != f"{expected}\n":
        return f"value d({n},{k}) printed {stdout.strip()!r}"
    return None


def _check_verify(argv, stdout, reference):
    checks = _option(argv, "--checks", ",".join(VERIFY_CHECKS)).split(",")
    lines = stdout.splitlines()
    if len(lines) != len(checks) or not all(
            line.startswith(f"PASS {name}:")
            for line, name in zip(lines, checks)):
        return f"verify printed {lines!r}"
    return None


def _check_help(argv, stdout, reference):
    if not stdout.startswith("usage: "):
        return "help output does not start with usage"
    return None


CHECKERS = {"table": _check_table, "value": _check_value,
            "verify": _check_verify, "--help": _check_help}


def check_output(argv: list[str], returncode: int, stdout: str,
                 reference: list[list[int]]) -> str | None:
    """None when the invocation succeeded and every cell matches."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKERS[argv[0]](argv, stdout, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc}"
