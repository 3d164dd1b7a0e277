"""Plain-text snapshots of the engine's memo tables.

File layout (one record per line; a header with zero records is legal):

    DESCENTS-CACHE v1
    d 0 0 1
    d 1 0 1
    t 1 0 1
    ...

Each record is "<family> <n> <k> <decimal-value>" with the family drawn
from the engine's six tags and n at most the engine's ``MAX_N``.  Keys
must not repeat.  Loading validates the syntax strictly, and applying
records compares each one with the counter's computed cell, the only
check a record gets: nothing read from the file is stored.  No CLI
command reads or writes these files: ``value``, ``table`` and
``verify`` fill a cold counter, which is faster than loading a
snapshot.
"""
import os
import sys

from .engine import FAMILIES, MAX_N, DescentCounter

HEADER = "DESCENTS-CACHE v1"


class CacheError(Exception):
    """A cache file is corrupt or contradicts the computed cells."""


def save_cache(path: str | os.PathLike, counter: DescentCounter) -> int:
    """Write all memoized entries of ``counter``; returns the record count."""
    lines = [HEADER] + [f"{family} {n} {k} {value}"
                        for family, n, k, value in counter.entries()]
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines) - 1


def load_records(path: str | os.PathLike) -> list[tuple[str, int, int, int]]:
    """Parse and validate a cache file; raises CacheError on any defect."""
    try:
        # universal newlines end a line at LF, CRLF or CR, and nothing
        # else: str.splitlines() would also split at \f, \v and \x1c-\x1e
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    if lines[-1] == "":
        lines.pop()  # the empty string after the final newline
    if not lines or lines[0] != HEADER:
        found = lines[0] if lines else "<empty file>"
        raise CacheError(f"bad cache header: expected {HEADER!r}, "
                         f"found {found!r}")
    records: list[tuple[str, int, int, int]] = []
    seen: set[tuple[str, int, int]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(" ")
        if len(fields) != 4:
            raise CacheError(f"line {lineno}: expected 4 fields, "
                             f"got {len(fields)}")
        family, n_text, k_text, value_text = fields
        if family not in FAMILIES:
            raise CacheError(f"line {lineno}: unknown family {family!r}")
        if not (n_text.isdigit() and k_text.isdigit()
                and value_text.isdigit()):
            raise CacheError(f"line {lineno}: fields must be decimal "
                             f"integers: {line!r}")
        try:
            n, k, value = int(n_text), int(k_text), int(value_text)
        except ValueError:  # past the interpreter's int/str digit limit
            limit = sys.get_int_max_str_digits()
            raise CacheError(f"line {lineno}: integer field longer than "
                             f"{limit} digits") from None
        if n > MAX_N:
            raise CacheError(f"line {lineno}: n = {n} is above the "
                             f"supported maximum {MAX_N}")
        if (family, n, k) in seen:
            raise CacheError(f"line {lineno}: duplicate key "
                             f"{family} {n} {k}")
        seen.add((family, n, k))
        records.append((family, n, k, value))
    return records


def apply_records(counter: DescentCounter,
                  records: list[tuple[str, int, int, int]]) -> None:
    """Check validated records against ``counter``'s computed cells.

    Each record, in order, is compared with ``counter.cell``, which
    fills to the record's level: one at n = 40 costs a fill to 40
    (16-23 s).  The first record that differs raises, after the fills
    for the records before it.  Nothing read is stored.
    """
    for family, n, k, value in records:
        try:
            computed = counter.cell(family, n, k)
            if value != computed:
                raise ValueError(f"{family}({n},{k}) is {computed}, "
                                 f"not {value}")
        except ValueError as exc:
            raise CacheError(f"rejected cache entry "
                             f"{family} {n} {k} {value}: {exc}") from exc
