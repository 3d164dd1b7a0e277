"""The ``verify`` subcommand's checks.

Each check recomputes part of the table from a cold engine and compares
it with an independent source: the golden fixture, the alternating
labeled-DAG recurrence, the reciprocal-series identity, the subset-pair
histograms and the exhaustive enumerator.  Each ``VERIFY_CHECKS`` row sets
its check's depth once, and its PASS line reports that depth: golden
min(--max-n, GOLDEN_MAX_N), totals and series --max-n, subsets a fixed
SUBSETS_MAX_N, oracle --oracle-max-n.  Only ``verify`` imports this
module, so ``value`` and ``table`` neither load nor compile it.
"""
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
# checks: each takes (counter, top), top the deepest n it compares, and
# yields a failure detail per mismatch, in order; ``run`` reports the first

def _mismatches(cells):
    """``label expected E actual A`` for each (label, expected, actual)
    triple whose values differ; a label is a tuple of words."""
    for label, expected, actual in cells:
        if actual != expected:
            words = " ".join(map(str, label))
            yield f"{words} expected {expected} actual {actual}"


def _check_golden(counter: DescentCounter, top: int):
    return _mismatches((("d", n, k), expected, counter.cell("d", n, k))
                       for n in range(1, top + 1)
                       for k, expected in enumerate(GOLDEN_COUNTS[n]))


def _check_totals(counter: DescentCounter, top: int):
    return _mismatches((("total", n), labeled_dag_total(n),
                        counter.row_total(n))
                       for n in range(top + 1))


def _check_series(counter: DescentCounter, top: int):
    if not series_identity_check(top):
        yield f"reciprocal series identity fails by degree {top}"


def _check_subsets(counter: DescentCounter, top: int):
    from .oracle import subset_pair_histogram

    return _mismatches((("histogram", n, j, "index", i),
                        gaussian_coefficient(n, j, i), actual)
                       for n in range(top + 1) for j in range(n + 1)
                       for i, actual in enumerate(subset_pair_histogram(n, j)))


def _check_oracle(counter: DescentCounter, top: int):
    from .oracle import enumerate_counts

    for n in range(1, top + 1):
        counts = enumerate_counts(n)
        yield from _mismatches(((family, n, k), counts.cell(family, k),
                                counter.cell(family, n, k))
                               for k in range(n * (n - 1) // 2 + 1)
                               for family in FAMILIES)


#: The checks in run order: (name, check, depth(args) -> top, scope); the
#: check runs to ``top`` and its PASS line reads ``scope.format(top)``.
#: ``cli.CHECK_NAMES`` lists the names, in this order, for the parser.
VERIFY_CHECKS = (
    ("golden", _check_golden, lambda args: min(args.max_n, GOLDEN_MAX_N),
     "rows 1..{} vs fixture"),
    ("totals", _check_totals, lambda args: args.max_n,
     "row sums vs alternating recurrence, n <= {}"),
    ("series", _check_series, lambda args: args.max_n,
     "reciprocal series through degree {}"),
    ("subsets", _check_subsets, lambda args: SUBSETS_MAX_N,
     "pair histograms vs coefficients, n <= {}"),
    ("oracle", _check_oracle, lambda args: args.oracle_max_n,
     "six families vs exhaustive enumeration, n <= {}"),
)


def run(args) -> int:
    """Run the checks named in ``args.checks``, which the parser has
    validated, printing one PASS or FAIL line each."""
    counter = DescentCounter()
    failures = 0
    for name, check, depth, scope in VERIFY_CHECKS:
        if name not in args.checks:
            continue
        top = depth(args)
        detail = next(check(counter, top), None)
        if detail is None:
            print(f"PASS {name}: {scope.format(top)}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0
