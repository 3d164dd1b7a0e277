"""The ``verify`` subcommand's checks.

Each check recomputes part of the table from a cold engine and compares
it with an independent source: the golden fixture, the alternating
labeled-DAG recurrence, the reciprocal-series identity, the subset-pair
histograms and the exhaustive enumerator.  Only ``verify`` imports this
module, so ``value`` and ``table`` neither load nor compile it.
"""
from __future__ import annotations

import argparse
import math

from .combinatorics import gaussian_coefficient
from .engine import FAMILIES, DescentCounter, labeled_dag_total
from .golden import GOLDEN_COUNTS, GOLDEN_MAX_N

SUBSETS_MAX_N = 8  # ``subsets`` compares the histograms of every n <= this


def series_identity_check(degree: int) -> bool:
    """Verify the reciprocal-series identity for DAG totals, exactly.

    With weights w_n = 1 / (n! * 2^C(n,2)), the series sum a_n w_n x^n
    (a_n = labeled_dag_total(n)) and sum (-1)^n w_n x^n are reciprocal
    formal power series.  Returns True iff their Cauchy product equals 1
    through the requested degree.  Everything is scaled by
    M = degree! * 2^C(degree,2), which makes every M * w_m an integer, so
    the check is exact integer arithmetic: the scaled product must be M^2
    at degree 0 and 0 above it.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    scale = math.factorial(degree) << math.comb(degree, 2)
    weights = [scale // (math.factorial(m) << math.comb(m, 2))
               for m in range(degree + 1)]
    lead = [labeled_dag_total(m) * weights[m] for m in range(degree + 1)]
    alternating = [(-1) ** m * weights[m] for m in range(degree + 1)]
    for d in range(degree + 1):
        convolution = sum(lead[i] * alternating[d - i] for i in range(d + 1))
        if convolution != (scale * scale if d == 0 else 0):
            return False
    return True


# ----------------------------------------------------------------------
# checks: each takes (counter, args) and yields a failure detail string
# per mismatch, in order; ``run`` reports the first

def _mismatches(cells):
    """``label expected E actual A`` for each (label, expected, actual)
    triple whose values differ; a label is a tuple of words."""
    for label, expected, actual in cells:
        if actual != expected:
            words = " ".join(map(str, label))
            yield f"{words} expected {expected} actual {actual}"


def _check_golden(counter: DescentCounter, args: argparse.Namespace):
    top = min(args.max_n, GOLDEN_MAX_N)
    return _mismatches((("d", n, k), expected, counter.cell("d", n, k))
                       for n in range(1, top + 1)
                       for k, expected in enumerate(GOLDEN_COUNTS[n]))


def _check_totals(counter: DescentCounter, args: argparse.Namespace):
    return _mismatches((("total", n), labeled_dag_total(n),
                        counter.row_total(n))
                       for n in range(args.max_n + 1))


def _check_series(counter: DescentCounter, args: argparse.Namespace):
    if not series_identity_check(args.max_n):
        yield f"reciprocal series identity fails by degree {args.max_n}"


def _check_subsets(counter: DescentCounter, args: argparse.Namespace):
    from .oracle import subset_pair_histogram

    return _mismatches((("histogram", n, j, "index", i),
                        gaussian_coefficient(n, j, i), actual)
                       for n in range(SUBSETS_MAX_N + 1) for j in range(n + 1)
                       for i, actual in enumerate(subset_pair_histogram(n, j)))


def _check_oracle(counter: DescentCounter, args: argparse.Namespace):
    from .oracle import enumerate_counts

    for n in range(1, args.oracle_max_n + 1):
        counts = enumerate_counts(n)
        yield from _mismatches(((family, n, k), counts.cell(family, k),
                                counter.cell(family, n, k))
                               for k in range(n * (n - 1) // 2 + 1)
                               for family in FAMILIES)


#: The checks in run order: (name, check, scope(args) -> the text after
#: "PASS name: ").  ``cli.CHECK_NAMES`` lists the same names, in the same
#: order, for the parser.
VERIFY_CHECKS = (
    ("golden", _check_golden,
     lambda args: f"rows 1..{min(args.max_n, GOLDEN_MAX_N)} vs fixture"),
    ("totals", _check_totals,
     lambda args: f"row sums vs alternating recurrence, n <= {args.max_n}"),
    ("series", _check_series,
     lambda args: f"reciprocal series through degree {args.max_n}"),
    ("subsets", _check_subsets,
     lambda args: f"pair histograms vs coefficients, n <= {SUBSETS_MAX_N}"),
    ("oracle", _check_oracle,
     lambda args: (f"six families vs exhaustive enumeration, "
                   f"n <= {args.oracle_max_n}")),
)


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the checks ``args.checks`` names, printing one PASS or FAIL
    line each; usage errors go through ``parser`` (exit 2)."""
    from .oracle import MAX_ORACLE_N

    names = [name for name, _, _ in VERIFY_CHECKS]
    valid = ", ".join(names)
    requested = [name.strip() for name in args.checks.split(",")
                 if name.strip()]
    if not requested:
        parser.error(f"no checks named (valid: {valid})")
    unknown = [name for name in requested if name not in names]
    if unknown:
        parser.error(f"unknown checks: {', '.join(unknown)} "
                     f"(valid: {valid})")
    if args.oracle_max_n > MAX_ORACLE_N:
        parser.error(f"--oracle-max-n is capped at {MAX_ORACLE_N}")

    counter = DescentCounter()
    failures = 0
    for name, check, scope in VERIFY_CHECKS:
        if name not in requested:
            continue
        detail = next(check(counter, args), None)
        if detail is None:
            print(f"PASS {name}: {scope(args)}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0
