"""Recurrence engine counting labeled acyclic digraphs by descents.

A descent of a labeled digraph is an edge x -> y with x > y.  The
central quantity is d(n,k), the number of acyclic digraphs on vertices
1..n with exactly k descents.  It is computed through six mutually
recursive count families, all memoized in dense per-n rows.  Row n of a
family F is read as the polynomial F_n(x) = sum_k F(n,k) x^k:

- ``d``: all acyclic digraphs with k descents;
- ``t``: those in which every vertex is reachable from vertex 1;
- ``u``: those in which every vertex is reachable from vertex n;
- ``A``: incidence pairs (graph, edge m -> 1) — each graph counted once
  per edge into vertex 1;
- ``B``: incidence pairs (graph, vertex m >= 2 reachable from 1);
- ``Cw``: the weighted sum over m >= 2 of (m-1) times the number of
  graphs with exactly m edges into vertex 1.

The d recurrence splits on whether vertex 1 is a source.  If it is, the
rest of the graph is any (n-1)-vertex graph with k descents plus any
subset of ascents out of vertex 1, giving 2^(n-1) * d(n-1,k).  If not,
the graph arises from some k-1-descent graph by inserting one edge
m -> 1; insertions that would duplicate an edge (A), or close a cycle
because m was already reachable from 1 (B), are subtracted, and graphs
reachable through several insertions are compensated by Cw:

    d(n,k) = 2^(n-1) d(n-1,k) + (n-1) d(n,k-1)
             - A(n,k-1) - B(n,k-1) - Cw(n,k)

The five other families are built a whole row at a time.  Each splits
the vertices into a set X of j vertices closed under reachability from
a root (vertex n for t, vertex 1 for the rest) and its complement Y of
o = n - j vertices, so every cross edge runs from Y into X:

    F_n(x) = sum_j  P_j(x) * Q_o(x) * W_j(x) * cross_F(x)

- P_j Q_o is the product of two finished rows, one on each side: u_j t_o
  for t, t_j u_o for u, and t_j d_o for A, B and Cw.
- W_j(x) = sum_i w_i (1+x)^i covers the cross pairs the family leaves
  free.  w_i counts the placements of X with i of those pairs descents
  (a Gaussian binomial coefficient) times 2 for each free ascent pair,
  present or absent; a descent pair contributes 1+x.
- cross_F(x) covers the pairs into the root, where the families differ.
  The o pairs into vertex n are ascents; those into vertex 1 are
  descents, m of them present in C(o,m) ways:

      family | cross polynomial              | edges into the root
      -------+-------------------------------+-------------------------
      t      | 2^o - 1                       | at least one, into n
      u      | (1+x)^o - 1                   | at least one, into 1
      A      | o x (1+x)^(o-1)               | m of them, weight m
      B      | (j-1) (1+x)^o                 | any, weight j-1 = |X - 1|
      Cw     | o x (1+x)^(o-1) - (1+x)^o + 1 | m >= 2, weight m-1

A, B and Cw share P_j Q_o W_j, so each split is multiplied out once for
all three.  For u the pairs from vertex n into X are descents too; its
weights carry them as the Gaussian-coefficient offset i - n + 1.

Everything is exact integer arithmetic.  Tables fill bottom-up level by
level (no deep call recursion), so large n cannot exhaust the stack.
Values are deterministic: any query order produces identical tables.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .combinatorics import (
    binomial,
    gaussian_coefficient,
    gaussian_coeffs,
    pow2,
)

#: Family tags, also used as the on-disk cache vocabulary.
FAMILIES = ("d", "t", "u", "A", "B", "Cw")


class EngineInconsistency(RuntimeError):
    """A filled cell came out negative, so some input row was wrong."""


class DescentCounter:
    """Memo-table holder for the six count families.

    Rows fill strictly bottom-up: all six families at vertex count m are
    completed before level m+1 starts, so every recurrence only ever
    reads finished rows.  Instances are not thread-safe; confine each to
    one thread of control.
    """

    def __init__(self) -> None:
        self._rows: dict[str, dict[int, list[int]]] = {
            tag: {} for tag in FAMILIES}
        self._rows["d"][0] = [1]  # the empty graph has zero descents
        # staged cells {k: value} per (family, n), until that row fills
        self._staged: dict[tuple[str, int], dict[int, int]] = {}

    # ------------------------------------------------------------------
    # public queries

    def dag_count(self, n: int, k: int) -> int:
        """Number of labeled acyclic digraphs on n vertices with k descents."""
        self._validate(n, k, smallest_n=0)
        self._ensure(n)
        return self._lookup("d", n, k)

    def spanning_from_lowest(self, n: int, k: int) -> int:
        """Count of such digraphs where every vertex is reachable from 1."""
        self._validate(n, k, smallest_n=1)
        self._ensure(n)
        return self._lookup("t", n, k)

    def spanning_from_highest(self, n: int, k: int) -> int:
        """Count of such digraphs where every vertex is reachable from n."""
        self._validate(n, k, smallest_n=1)
        self._ensure(n)
        return self._lookup("u", n, k)

    def descent_incidences_into_lowest(self, n: int, k: int) -> int:
        """Number of (graph, edge m->1) pairs over graphs with k descents."""
        self._validate(n, k, smallest_n=1)
        self._ensure(n)
        return self._lookup("A", n, k)

    def reachability_incidences_from_lowest(self, n: int, k: int) -> int:
        """Number of (graph, vertex m>=2 reachable from 1) pairs."""
        self._validate(n, k, smallest_n=1)
        self._ensure(n)
        return self._lookup("B", n, k)

    def lowest_indegree_overcount(self, n: int, k: int) -> int:
        """Sum of (m-1) * #graphs with exactly m edges into vertex 1, m >= 2."""
        self._validate(n, k, smallest_n=1)
        self._ensure(n)
        return self._lookup("Cw", n, k)

    def table(self, n_max: int) -> list[list[int]]:
        """Rows [d(n,0), ..., d(n,C(n,2))] for n = 1..n_max."""
        if n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {n_max}")
        self._ensure(n_max)
        return [list(self._rows["d"][n]) for n in range(1, n_max + 1)]

    def row_total(self, n: int) -> int:
        """Sum over k of dag_count(n, k)."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self._ensure(n)
        return sum(self._rows["d"][n])

    # ------------------------------------------------------------------
    # memo persistence hooks (used by the cache file layer)

    def entries(self) -> Iterator[tuple[str, int, int, int]]:
        """All memoized values as (family, n, k, value), deterministic order."""
        for tag in FAMILIES:
            for n in sorted(self._rows[tag]):
                for k, value in enumerate(self._rows[tag][n]):
                    yield tag, n, k, value

    def preload(self, family: str, n: int, k: int, value: int) -> None:
        """Stage a known value that overrides the computed cell.

        A row whose every cell is staged is taken as is and not computed.
        Staged values are trusted, so callers are expected to validate
        them first (the cache layer re-checks everything that overlaps
        the golden fixture).  Values that contradict structural facts —
        a nonzero count past k = C(n,2), or a mismatch with an already
        computed cell — are rejected with ValueError.
        """
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if n < 0 or k < 0:
            raise ValueError(f"indices must be nonnegative, got n={n} k={k}")
        if value < 0:
            raise ValueError(f"counts are nonnegative, got {value}")
        if family != "d" and n == 0:
            raise ValueError(f"family {family} starts at n=1")
        if k > n * (n - 1) // 2:
            if value != 0:
                raise ValueError(
                    f"{family}({n},{k}) must be 0: k exceeds C(n,2)")
            return  # nothing to store; lookups past the row end are 0
        row = self._rows[family].get(n)
        if row is not None:
            if row[k] != value:
                raise ValueError(
                    f"{family} {n} {k} conflicts with computed value "
                    f"{row[k]} (got {value})")
            return
        cells = self._staged.setdefault((family, n), {})
        if cells.get(k, value) != value:
            raise ValueError(f"conflicting staged values for {family} {n} {k}")
        cells[k] = value

    # ------------------------------------------------------------------
    # internals

    @staticmethod
    def _validate(n: int, k: int, smallest_n: int) -> None:
        if n < smallest_n:
            raise ValueError(f"n must be at least {smallest_n}, got {n}")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")

    def _lookup(self, family: str, n: int, k: int) -> int:
        row = self._rows[family].get(n)
        if row is None:  # t/u/... at n=0 have no row; only d(0,*) is queried
            raise ValueError(f"family {family} starts at n=1")
        return row[k] if k < len(row) else 0

    def _ensure(self, n: int) -> None:
        done = self._rows["d"]
        for level in range(1, n + 1):
            if level not in done:
                self._fill_level(level)

    def _fill_level(self, n: int) -> None:
        size = n * (n - 1) // 2 + 1
        staged = {tag: self._staged.pop((tag, n), {}) for tag in FAMILIES}

        def settle(tags, compute) -> None:
            """Store the level-n rows of ``tags``.  If every cell is
            staged the rows are taken as they are; otherwise they are
            computed and staged cells override computed ones."""
            if all(len(staged[tag]) == size for tag in tags):
                for tag in tags:
                    cells = staged[tag]
                    self._rows[tag][n] = [cells[k] for k in range(size)]
                return
            for tag, row in zip(tags, compute(n, size)):
                cells = staged[tag]
                for k, value in enumerate(row):
                    if k in cells:
                        row[k] = cells[k]
                    elif value < 0:
                        raise EngineInconsistency(
                            f"internal inconsistency: {tag}({n},{k}) = "
                            f"{value}")
                self._rows[tag][n] = row

        # Order matters: B's j = n term reads the finished level-n t row,
        # and the d row reads all of A, B, Cw at level n.
        settle(("t", "u"), self._spanning_rows)
        settle(("A", "B", "Cw"), self._incidence_rows)

        a_row, b_row, cw_row = (self._rows[tag][n]
                                for tag in ("A", "B", "Cw"))
        d_prev = self._rows["d"][n - 1]
        d_row = [0] * size
        source_ways = pow2(n - 1)
        for k in range(size):
            cached = staged["d"].get(k)
            if cached is not None:
                d_row[k] = cached
                continue
            if k == 0:
                d_row[0] = pow2(n * (n - 1) // 2)
                continue
            above = d_prev[k] if k < len(d_prev) else 0
            value = (source_ways * above + (n - 1) * d_row[k - 1]
                     - a_row[k - 1] - b_row[k - 1] - cw_row[k])
            if value < 0:
                raise EngineInconsistency(
                    f"internal inconsistency: d({n},{k}) = {value}")
            d_row[k] = value
        self._rows["d"][n] = d_row

    def _spanning_rows(self, n: int, size: int) -> tuple[list[int], ...]:
        """Level-n rows of t and u (see the module docstring).

        For t, X is the set reachable from vertex n: u on X, t on Y.  For
        u, X is the set reachable from vertex 1: t on X, u on Y.
        """
        if n == 1:
            return [1], [1]  # a lone vertex reaches itself
        rows_t, rows_u = self._rows["t"], self._rows["u"]
        t_row, u_row = [0] * size, [0] * size
        for j in range(1, n):
            o = n - j
            free = (j - 1) * o  # pairs from Y into X other than the root
            into_top = pow2(o) - 1
            t_weights = _binomial_sum(
                (i, q * into_top * pow2(free - i))
                for i, q in enumerate(gaussian_coeffs(n - 2, j - 1)))
            _add(t_row, _mul(rows_u[j], rows_t[o], t_weights))
            top = j * o
            u_weights = _binomial_sum(
                (i - o, gaussian_coefficient(n - 2, j - 1, i - n + 1)
                 * pow2(top - i))
                for i in range(n - 1, top + 1))
            into_lowest = _binomial_sum([(o, 1)])
            into_lowest[0] = 0  # (1+x)^o - 1
            _add(u_row, _mul(rows_t[j], rows_u[o], u_weights, into_lowest))
        return t_row, u_row

    def _incidence_rows(self, n: int, size: int) -> tuple[list[int], ...]:
        """Level-n rows of A, B and Cw (see the module docstring).

        X is the set reachable from vertex 1: t on X, d on Y.  The three
        share that split and differ only in how the m edges from Y into
        vertex 1, chosen in C(o,m) ways, are weighted.
        """
        rows_t, rows_d = self._rows["t"], self._rows["d"]
        a_row, b_row, cw_row = [0] * size, [0] * size, [0] * size
        for j in range(1, n + 1):
            o = n - j
            free = (j - 1) * o  # pairs from Y into X other than into 1
            split = _mul(rows_t[j], rows_d[o], _binomial_sum(
                (i, q * pow2(free - i))
                for i, q in enumerate(gaussian_coeffs(n - 1, j - 1))))
            choose = _binomial_sum([(o, 1)])
            _add(a_row, _mul(split, [m * c for m, c in enumerate(choose)]))
            _add(b_row, _mul(split, [(j - 1) * c for c in choose]))
            _add(cw_row, _mul(split, [max(m - 1, 0) * c
                                      for m, c in enumerate(choose)]))
        return a_row, b_row, cw_row


def _mul(*factors: list[int]) -> list[int]:
    """Coefficient list of the product of the given polynomials."""
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            if a:
                for k, b in enumerate(factor, i):
                    out[k] += a * b
        product = out
    return product


def _add(total: list[int], poly: list[int]) -> None:
    """Add ``poly`` into ``total`` in place, lengthening it if needed."""
    total.extend([0] * (len(poly) - len(total)))
    for k, c in enumerate(poly):
        total[k] += c


def _binomial_sum(terms: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficient list of the sum of w * (1+x)^i over the (i, w) pairs."""
    total: list[int] = []
    for i, w in terms:
        _add(total, [w * binomial(i, r) for r in range(i + 1)])
    return total


def labeled_dag_total(n: int) -> int:
    """Total number of labeled acyclic digraphs on n vertices.

    Computed by the classic alternating inclusion-exclusion over the
    nonempty set of k source vertices:

        a_n = sum_{k=1..n} (-1)^(k+1) C(n,k) 2^(k(n-k)) a_(n-k),  a_0 = 1.

    Entirely independent of the descent recurrences, which makes it a
    useful cross-check on their row sums.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    totals = [1]
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            term = math.comb(m, k) * (1 << (k * (m - k))) * totals[m - k]
            acc += term if k % 2 else -term
        totals.append(acc)
    return totals[n]


def series_identity_check(degree: int) -> bool:
    """Verify the reciprocal-series identity for DAG totals, exactly.

    With weights w_n = 1 / (n! * 2^C(n,2)), the series sum a_n w_n x^n
    (a_n = labeled_dag_total(n)) and sum (-1)^n w_n x^n are reciprocal
    formal power series.  Returns True iff their Cauchy product equals 1
    through the requested degree, using exact rationals throughout.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    weights = [Fraction(1, math.factorial(m) * (1 << math.comb(m, 2)))
               for m in range(degree + 1)]
    lead = [labeled_dag_total(m) * weights[m] for m in range(degree + 1)]
    alternating = [(-1) ** m * weights[m] for m in range(degree + 1)]
    for d in range(degree + 1):
        convolution = sum(lead[i] * alternating[d - i] for i in range(d + 1))
        if convolution != (1 if d == 0 else 0):
            return False
    return True
