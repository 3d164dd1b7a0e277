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

Counting the outcomes of those insertions gives the two identities
behind it.  Each pair (graph with k-1 descents, m) repeats an edge (A),
closes a cycle (B), or yields a graph with k descents and the edge
m -> 1 (A at k).  With c_j the graphs in which vertex 1 has in-degree
j, A - d = Cw - c_0, and c_0 = 2^(n-1) d(n-1,k) counts those in which
vertex 1 is a source:

    (i)  (n-1) d(n,k-1) = A(n,k-1) + B(n,k-1) + A(n,k)
    (ii) Cw(n,k) = A(n,k) - d(n,k) + 2^(n-1) d(n-1,k)

Eliminating A(n,k) between them gives the d recurrence.  Relabeling
v -> n+1-v maps "every vertex reachable from n" to "every vertex
reachable from 1" and keeps the number of graphs, so the u and t rows
have the same sum:

    (iii) sum_k u(n,k) = sum_k t(n,k)

All three are checked on every level once it fills, and the level is
appended whole only once they pass, so a wrong cell raises
``EngineInconsistency`` instead of reaching an answer or ``entries()``.
(i) is checked at every k >= 1, (ii) at k = 0 only: given the d
recurrence, (ii) at 1 <= k <= C(n,2) is (i) at the same k, and past the
row it reads 0 = 0, so k = 0 is its one case, the one guard on Cw(n,0),
which no d cell reads.  A wrong t, A, B or Cw cell of the level shifts
its d row (t through B's j = n split) until a d cell goes negative or
(i) fails.  A wrong u cell feeds no other row of its level and breaks
(iii).  A wrong stored d, t or u cell breaks the next level's
identities, except that a negative one, or a nonzero one past the end of
its row, overflows the packed slots instead; stored A, B and Cw rows
feed no later level, so nothing sees them once their level passed.
Adding 1 to one cell at a time, each of the 29 t, u, A, B and Cw cells
of level 8 raises at level 8, and each of the 16 stored d, t and u cells
of level 6 at level 7; no stored A, B or Cw cell does.  Of 348 faults
(-1, +1 or +7 on one level-8 t, A, B or Cw cell), (ii) raised 4, all at
k = 0.  Errors that cancel in u's sum, such as two swapped u cells, pass
(iii); only an independent per-cell reference catches those.

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

A, B and Cw share R = P_j Q_o W_j (1+x)^(o-1), one product per split,
and u's (1+x)^o is (1+x) (1+x)^(o-1): one binomial row per split.  For
u the j-1 pairs from vertex n into X - 1 are descents too; its weights
carry them as the Gaussian-coefficient offset i - j + 1.  At j = n
(o = 0) only B has a term, (n-1) t_n, which reads the level's own t row.

A level is evaluated at one integer point x = 2^w, not multiplied out
cell by cell (Kronecker substitution; D. Harvey, J. Symbolic Comput. 44,
2009): each stored row packs into one integer with a w-bit slot per
cell, each product above is one big-integer multiply, W_j follows by
Horner's rule in 1+x, and the result's slots are the level's cells.
One pass over j < n gives all five rows; B's j = n term is added cell by
cell once t is unpacked.  The same pass run at x = 1 first gives w: all
weights and cross polynomials have nonnegative coefficients, so no cell
exceeds its row's value at 1, and w one bit wider than the largest such
value cannot alias, whatever the stored input rows hold.  A bound taken
from the true counts would do only while every stored row is right; this
one keeps a row that a bug made wrong from aliasing too, so the guards
still see it.

Everything is exact integer arithmetic.  Levels fill bottom-up (no deep
call recursion), so large n cannot exhaust the stack.
Values are deterministic: any query order produces identical tables.
"""
import math
from collections.abc import Iterator

from .combinatorics import (
    binomial,
    gaussian_coefficient,
    gaussian_coeffs,
    pow2,
)

#: Family tags: the first argument of ``DescentCounter.cell``, and the
#: on-disk cache vocabulary.
FAMILIES = ("d", "t", "u", "A", "B", "Cw")

#: Largest vertex count the CLI and the cache accept.  Provisional: a
#: cold fill to n = 40 takes 16-23 s; the ceiling should follow the
#: engine's measured depth once deep fills get faster.
MAX_N = 40


class EngineInconsistency(RuntimeError):
    """A filled cell came out negative or outside its packed slot, or broke
    an insertion identity or the u/t row-sum identity, so some row was
    wrong."""


class DescentCounter:
    """Memo-table holder for the six count families.

    ``_levels[m]`` holds level m's six rows in ``FAMILIES`` order.  A
    level is appended whole once its checks pass, so levels never skip
    and every recurrence reads only finished rows.  Instances are not
    thread-safe; confine each to one thread of control.
    """

    def __init__(self) -> None:
        # the empty graph has zero descents; the other families start at 1
        self._levels: list[tuple[list[int], ...]] = [([1], [], [], [], [], [])]

    # ------------------------------------------------------------------
    # public queries

    def dag_count(self, n: int, k: int) -> int:
        """Number of labeled acyclic digraphs on n vertices with k descents."""
        return self.cell("d", n, k)

    def cell(self, family: str, n: int, k: int) -> int:
        """Cell (n, k) of the family tagged ``family``, one of ``FAMILIES``
        (module docstring); 0 past k = C(n,2).  d starts at n = 0, the
        other families at n = 1.  Fills to level n first."""
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        smallest_n = 0 if family == "d" else 1
        if n < smallest_n:
            raise ValueError(f"n must be at least {smallest_n}, got {n}")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        self._ensure(n)
        row = self._levels[n][FAMILIES.index(family)]
        return row[k] if k < len(row) else 0

    def table(self, n_max: int) -> list[list[int]]:
        """Rows [d(n,0), ..., d(n,C(n,2))] for n = 1..n_max."""
        if n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {n_max}")
        self._ensure(n_max)
        return [list(level[0]) for level in self._levels[1:n_max + 1]]

    def row_total(self, n: int) -> int:
        """Sum over k of dag_count(n, k)."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        self._ensure(n)
        return sum(self._levels[n][0])

    def entries(self) -> Iterator[tuple[str, int, int, int]]:
        """All memoized values as (family, n, k, value), by family in
        ``FAMILIES`` order, then n and k ascending; the cache writes these."""
        levels = self._levels[:]  # level 0 holds only d's row
        for index, tag in enumerate(FAMILIES):
            for n, level in enumerate(levels):
                for k, value in enumerate(level[index]):
                    yield tag, n, k, value

    # ------------------------------------------------------------------
    # internals

    def _ensure(self, n: int) -> None:
        while len(self._levels) <= n:
            self._fill_level(len(self._levels))

    def _fill_level(self, n: int) -> None:
        size = n * (n - 1) // 2 + 1
        rows = self._packed_rows(n, size)
        t_row, u_row, a_row, b_row, cw_row = rows
        # B's j = n split, (n-1) t(n,k), is added to the unpacked rows so
        # that the t row _packed_rows returns feeds B: d and identity (i)
        # then check each t cell at its own level.  Folded into
        # _level_values' B it gives the same entries(), but a wrong t cell
        # shows only in the row sum (iii), and test_negative_cell_exits_1,
        # test_guard_catches_every_computed_cell[t] and
        # test_level_rows_are_exact_above_the_true_counts fail.
        for k, value in enumerate(t_row):
            b_row[k] += (n - 1) * value

        # d(n-1,k) to k = C(n,2) and A(n,k) to C(n,2)+1, 0 past their rows
        above = self._levels[n - 1][0] + [0] * (n - 1)
        a = a_row + [0]
        d = [pow2(size - 1)] + [0] * (size - 1)  # 2^C(n,2) at k = 0
        source_ways = pow2(n - 1)
        for k in range(1, size):
            value = (source_ways * above[k] + (n - 1) * d[k - 1]
                     - a[k - 1] - b_row[k - 1] - cw_row[k])
            if value < 0:
                raise EngineInconsistency(
                    f"internal inconsistency: d({n},{k}) = {value}")
            d[k] = value

        # The insertion identities (module docstring) on the whole level:
        # (ii) at k = 0, (i) at each k >= 1.  The level is appended whole
        # once all three identities pass, so a level that fails leaves
        # nothing behind and is filled afresh next time.
        for k in range(size + 1):
            if k and (n - 1) * d[k - 1] != a[k - 1] + b_row[k - 1] + a[k]:
                identity = "(n-1) d(n,k-1) = A(n,k-1) + B(n,k-1) + A(n,k)"
            elif not k and cw_row[0] != a[0] - d[0] + source_ways * above[0]:
                identity = "Cw(n,k) = A(n,k) - d(n,k) + 2^(n-1) d(n-1,k)"
            else:
                continue
            raise EngineInconsistency(f"internal inconsistency: {identity} "
                                      f"fails at n={n}, k={k}")
        if sum(u_row) != sum(t_row):
            raise EngineInconsistency(
                "internal inconsistency: sum_k u(n,k) = sum_k t(n,k) "
                f"fails at n={n}")
        self._levels.append((d, *rows))

    def _packed_rows(self, n: int, size: int) -> list[list[int]]:
        """Level-n rows t, u, A, B and Cw, B without its j = n split, from
        ``_level_values`` at x = 2^w.  A run at x = 1 bounds every cell
        (module docstring), and each cell gets a slot of whole bytes."""
        bound = max(self._level_values(n, 0, sum))
        width = bound.bit_length() // 8 + 1  # bytes per cell

        def pack(row: list[int]) -> int:
            return int.from_bytes(b"".join(
                [c.to_bytes(width, "little") for c in row]), "little")

        try:
            data = [value.to_bytes(size * width, "little")
                    for value in self._level_values(n, 8 * width, pack)]
        except OverflowError:  # an input cell or a result out of its slots
            raise EngineInconsistency(
                f"internal inconsistency: level {n} does not fit "
                f"{size} cells of {width} bytes") from None
        return [[int.from_bytes(row[k:k + width], "little")
                 for k in range(0, size * width, width)] for row in data]

    def _level_values(self, n: int, w: int, pack) -> tuple[int, ...]:
        """t_n, u_n, A_n, B_n (without j = n) and Cw_n at x = 2^w, given
        ``pack`` for a stored row (see the module docstring).

        For t, X is the set reachable from vertex n: u on X, t on Y.  For
        the others X is reachable from vertex 1: t on X, u or d on Y.  A
        gets o x R, B (j-1)(1+x) R, Cw o x R - (1+x) R + P_j Q_o W_j."""
        if n == 1:
            return 1, 1, 0, 0, 0  # a lone vertex reaches itself
        t, u, d = ([pack(level[i]) for level in self._levels[:n]]
                   for i in (1, 2, 0))
        # sums of t, u, o R, (j-1) R, R and P_j Q_o W_j over the splits
        t_sum = u_sum = by_o = by_j = plain = splits = 0
        for j in range(1, n):
            o = n - j
            free = (j - 1) * o  # pairs from Y into X other than the root
            # (1+x)^(o-1): in R, and in u's (1+x)^o = (1+x) (1+x)^(o-1)
            lower = pack([binomial(o - 1, m) for m in range(o)])
            weights = _gaussian_weights(w, gaussian_coeffs(n - 2, j - 1),
                                        free)
            t_sum += u[j] * t[o] * weights * (pow2(o) - 1)
            weights = _gaussian_weights(w, [
                gaussian_coefficient(n - 2, j - 1, i - j + 1)
                for i in range(free + 1)], free)
            u_sum += t[j] * u[o] * weights * (lower + (lower << w) - 1)
            split = t[j] * d[o] * _gaussian_weights(
                w, gaussian_coeffs(n - 1, j - 1), free)
            r = split * lower
            by_o += o * r
            by_j += (j - 1) * r
            plain += r
            splits += split
        return (t_sum, u_sum, by_o << w, by_j + (by_j << w),
                (by_o << w) - plain - (plain << w) + splits)


def _gaussian_weights(w: int, coeffs, free: int) -> int:
    """W_j = sum_i coeffs[i] 2^(free-i) (1+x)^i at x = 2^w, by Horner."""
    acc = 0
    for i in range(len(coeffs) - 1, -1, -1):
        acc = (acc << w) + acc + (coeffs[i] << (free - i))
    return acc


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

