import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dagdescents.combinatorics import gaussian_coefficient, pow2, two_factorial
from dagdescents.engine import (
    DescentCounter,
    labeled_dag_total,
    series_identity_check,
)
from dagdescents.golden import GOLDEN_COUNTS, GOLDEN_TOTALS


@pytest.fixture(scope="module")
def counter():
    c = DescentCounter()
    c.table(8)
    return c


# ----------------------------------------------------------------------
# pinned values: from the golden fixture, and small cases the exhaustive
# enumerator re-derives (see test_oracle / the acceptance suite)

def test_fixture_spot_values(counter):
    assert counter.dag_count(1, 0) == 1
    assert counter.dag_count(3, 1) == 11
    assert counter.dag_count(4, 2) == 167
    assert counter.dag_count(5, 2) == 6698
    assert counter.dag_count(7, 10) == 49085984
    assert counter.dag_count(8, 28) == 1


def test_small_values_match_exhaustive_counts(counter):
    assert counter.dag_count(2, 1) == 1
    assert counter.spanning_from_lowest(3, 1) == 2
    assert counter.spanning_from_highest(2, 1) == 1
    assert counter.descent_incidences_into_lowest(2, 1) == 1
    assert counter.descent_incidences_into_lowest(3, 1) == 7
    assert counter.reachability_incidences_from_lowest(2, 0) == 1
    assert counter.reachability_incidences_from_lowest(3, 0) == 9
    assert counter.lowest_indegree_overcount(3, 2) == 2


def test_base_cases(counter):
    assert counter.dag_count(0, 0) == 1
    assert counter.dag_count(0, 3) == 0
    assert counter.spanning_from_lowest(4, 0) == 21
    assert counter.spanning_from_lowest(1, 3) == 0
    assert counter.spanning_from_highest(1, 0) == 1
    assert counter.spanning_from_highest(3, 0) == 0


def test_incidence_sums_vanish_where_impossible(counter):
    for n in range(1, 7):
        assert counter.descent_incidences_into_lowest(n, 0) == 0
        assert counter.lowest_indegree_overcount(n, 0) == 0
        assert counter.lowest_indegree_overcount(n, 1) == 0
    for k in range(5):
        assert counter.reachability_incidences_from_lowest(1, k) == 0
        assert counter.lowest_indegree_overcount(2, k + 2) == 0


def test_full_table_matches_fixture(counter):
    rows = counter.table(8)
    for n in range(1, 9):
        assert rows[n - 1] == list(GOLDEN_COUNTS[n]), f"row {n}"


def test_row_totals(counter):
    for n in range(1, 9):
        total = counter.row_total(n)
        assert total == GOLDEN_TOTALS[n]
        assert total == labeled_dag_total(n)
    assert counter.row_total(0) == 1


def test_structural_invariants(counter):
    for n in range(1, 9):
        top = math.comb(n, 2)
        assert counter.dag_count(n, 0) == pow2(top)
        assert counter.dag_count(n, top) == 1
        assert counter.dag_count(n, top + 1) == 0
        assert counter.dag_count(n, top + 17) == 0
        assert counter.spanning_from_lowest(n, 0) == two_factorial(n - 1)
        assert counter.spanning_from_highest(n, 0) == (1 if n == 1 else 0)
        for k in range(top + 1):
            d = counter.dag_count(n, k)
            assert counter.spanning_from_lowest(n, k) <= d
            assert counter.spanning_from_highest(n, k) <= d


# ----------------------------------------------------------------------
# independent recurrence: inclusion-exclusion over nonempty source sets.
# If S is the set of sources, there are no edges within S, each cross
# pair (s, v) with s in S is a free slot — weight (1+x) when s > v,
# weight 2 otherwise — and the rest is any DAG on the remaining labels.
# The number of S with |S| = m and e descent slots is the coefficient
# gaussian_coefficient(n, m, e) (palindromy swaps ascent/descent slots).
# This shares nothing with the engine's edge-insertion recurrence, so
# agreement pins the whole table a second way.

def _rows_by_source_set_recurrence(n_max):
    polys = [[1]]
    for n in range(1, n_max + 1):
        acc = [0] * (n * (n - 1) // 2 + 1)
        for m in range(1, n + 1):
            span = m * (n - m)
            cross = [0] * (span + 1)
            for e in range(span + 1):
                q = gaussian_coefficient(n, m, e)
                if q == 0:
                    continue
                weight = q * (1 << (span - e))
                for i in range(e + 1):
                    cross[i] += weight * math.comb(e, i)
            sign = 1 if m % 2 else -1
            sub = polys[n - m]
            for i, ci in enumerate(cross):
                if ci == 0:
                    continue
                for jj, sj in enumerate(sub):
                    if sj:
                        acc[i + jj] += sign * ci * sj
        polys.append(acc)
    return polys[1:]


def test_table_matches_source_set_recurrence(counter):
    assert counter.table(8) == _rows_by_source_set_recurrence(8)


# The same inclusion-exclusion, extended to all six families and taken
# twice as deep.  P(N, M) sums, over the M-subsets S of an N-set, the
# product over cross pairs (s in S, y not in S) of (1+x) when s > y and
# 2 otherwise; splitting on whether the top element is in S gives
#     P(N, M) = (1+x)^(N-M) P(N-1, M-1) + 2^M P(N-1, M).
# With the sign (-1)^(m+1) over m = |S|:
# - d sums P(n, m) d_(n-m);
# - t keeps 1 in S (1 is then the only source, so it reaches every
#   vertex): 2^(n-m) P(n-1, m-1) d_(n-m);
# - u keeps n in S: (1+x)^(n-m) P(n-1, m-1) d_(n-m);
# - A keeps 1 out of S and weights each edge into 1 by w; the m edges
#   from S into 1 give (1+xw)^m, and d/dw at w = 1 leaves
#   P(n-1, m) (m x (1+x)^(m-1) d_(n-m) + (1+x)^m A_(n-m)).
# B and Cw are not summed independently: they are checked through the
# edge-insertion identities that tie them to d and A,
#     B(n,k) = (n-1) d(n,k) - A(n,k) - A(n,k+1),
#     Cw(n,k) = A(n,k) - d(n,k) + 2^(n-1) d(n-1,k).

def _poly_add(*polys):
    total = [0] * max(len(poly) for poly in polys)
    for poly in polys:
        for k, c in enumerate(poly):
            total[k] += c
    return total


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for jj, bj in enumerate(b):
            out[i + jj] += ai * bj
    return out


def _scaled(c, poly):
    return [c * v for v in poly]


def _six_families_by_source_sets(n_max):
    def power(e):  # (1+x)^e
        return [math.comb(e, i) for i in range(e + 1)]

    cross = {(0, 0): [1]}
    for big in range(1, n_max + 1):
        for m in range(big + 1):
            cross[big, m] = _poly_add(
                _poly_mul(power(big - m), cross.get((big - 1, m - 1), [0])),
                _scaled(2 ** m, cross.get((big - 1, m), [0])))
    d, t, u, a = {0: [1]}, {}, {}, {0: [0]}
    for n in range(1, n_max + 1):
        sums = {"d": [0], "t": [0], "u": [0], "A": [0]}
        for m in range(1, n + 1):
            sign = 1 if m % 2 else -1
            rest = d[n - m]
            sums["d"] = _poly_add(sums["d"], _scaled(
                sign, _poly_mul(cross[n, m], rest)))
            lower = _poly_mul(cross[n - 1, m - 1], rest)
            sums["t"] = _poly_add(sums["t"], _scaled(
                sign * 2 ** (n - m), lower))
            sums["u"] = _poly_add(sums["u"], _scaled(
                sign, _poly_mul(power(n - m), lower)))
            if m < n:
                into_one = [0] + _scaled(m, power(m - 1))
                sums["A"] = _poly_add(sums["A"], _scaled(
                    sign, _poly_mul(cross[n - 1, m], _poly_add(
                        _poly_mul(into_one, rest),
                        _poly_mul(power(m), a[n - m])))))
        d[n], t[n], u[n], a[n] = sums["d"], sums["t"], sums["u"], sums["A"]

    def cell(row, k):
        return row[k] if k < len(row) else 0

    families = {tag: {} for tag in ("d", "t", "u", "A", "B", "Cw")}
    for n in range(1, n_max + 1):
        ks = range(n * (n - 1) // 2 + 1)
        families["d"][n] = [cell(d[n], k) for k in ks]
        families["t"][n] = [cell(t[n], k) for k in ks]
        families["u"][n] = [cell(u[n], k) for k in ks]
        families["A"][n] = [cell(a[n], k) for k in ks]
        families["B"][n] = [(n - 1) * cell(d[n], k) - cell(a[n], k)
                            - cell(a[n], k + 1) for k in ks]
        families["Cw"][n] = [cell(a[n], k) - cell(d[n], k)
                             + 2 ** (n - 1) * cell(d[n - 1], k) for k in ks]
    return families


def test_six_families_match_source_sets_through_16():
    """Every cell of d, t, u and A for n <= 16 against the source-set
    sums; B and Cw against the identities above, which tie them to those
    independently summed d and A rows."""
    reference = _six_families_by_source_sets(16)
    engine = DescentCounter()
    engine.table(16)
    lookup = {"d": engine.dag_count, "t": engine.spanning_from_lowest,
              "u": engine.spanning_from_highest,
              "A": engine.descent_incidences_into_lowest,
              "B": engine.reachability_incidences_from_lowest,
              "Cw": engine.lowest_indegree_overcount}
    for family, rows in reference.items():
        for n, row in rows.items():
            actual = [lookup[family](n, k) for k in range(len(row))]
            assert actual == row, f"{family} row {n}"


# ----------------------------------------------------------------------
# determinism and validation

def test_query_order_does_not_change_tables():
    queries = [(7, 13), (3, 1), (8, 28), (5, 0), (6, 9), (2, 1)]
    first = DescentCounter()
    forward = {q: first.dag_count(*q) for q in queries}
    second = DescentCounter()
    for q in reversed(queries):
        assert second.dag_count(*q) == forward[q]
    assert list(first.entries()) == list(second.entries())


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_query_order_property(rng):
    domain = [(n, k) for n in range(7) for k in range(9)]
    rng.shuffle(domain)
    fresh = DescentCounter()
    reference = DescentCounter()
    for n, k in domain:
        assert fresh.dag_count(n, k) == reference.dag_count(n, k)


def test_argument_validation():
    c = DescentCounter()
    with pytest.raises(ValueError):
        c.dag_count(-1, 0)
    with pytest.raises(ValueError):
        c.dag_count(2, -1)
    with pytest.raises(ValueError):
        c.spanning_from_lowest(0, 0)
    with pytest.raises(ValueError):
        c.spanning_from_highest(0, 2)
    with pytest.raises(ValueError):
        c.table(0)
    with pytest.raises(ValueError):
        c.row_total(-1)


def test_series_identity_holds_through_degree_8():
    for degree in range(9):
        assert series_identity_check(degree)
    with pytest.raises(ValueError):
        series_identity_check(-1)


def test_labeled_dag_total_sequence():
    assert [labeled_dag_total(n) for n in range(9)] == \
        [1, 1, 3, 25, 543, 29281, 3781503, 1138779265, 783702329343]
    with pytest.raises(ValueError):
        labeled_dag_total(-1)


# ----------------------------------------------------------------------
# preload staging

def test_preload_short_circuits_fill():
    reference = DescentCounter()
    reference.table(5)
    warmed = DescentCounter()
    for family, n, k, value in reference.entries():
        warmed.preload(family, n, k, value)
    assert warmed.table(5) == reference.table(5)
    assert list(warmed.entries()) == list(reference.entries())


def test_preload_rejects_structural_nonsense():
    c = DescentCounter()
    with pytest.raises(ValueError):
        c.preload("x", 3, 1, 11)
    with pytest.raises(ValueError):
        c.preload("d", -1, 0, 1)
    with pytest.raises(ValueError):
        c.preload("d", 3, 1, -5)
    with pytest.raises(ValueError):
        c.preload("t", 0, 0, 1)  # only d is defined at n=0
    with pytest.raises(ValueError):
        c.preload("d", 3, 4, 7)  # k > C(3,2) forces the count to 0
    c.preload("d", 3, 4, 0)  # ...but an explicit zero there is fine
    assert c.dag_count(3, 4) == 0


def test_preload_conflicts_with_computed_value():
    c = DescentCounter()
    c.dag_count(3, 1)  # materializes row 3
    c.preload("d", 3, 1, 11)  # matching value is a no-op
    with pytest.raises(ValueError):
        c.preload("d", 3, 1, 12)


def test_preload_conflicting_staged_values():
    c = DescentCounter()
    c.preload("d", 9, 2, 900)
    with pytest.raises(ValueError):
        c.preload("d", 9, 2, 901)


def test_random_spot_checks_are_stable():
    # belt and braces: a handful of deep cells recomputed twice
    rng = random.Random(20240817)
    probes = [(rng.randrange(1, 10), rng.randrange(0, 30)) for _ in range(6)]
    a = DescentCounter()
    b = DescentCounter()
    for n, k in probes:
        assert a.dag_count(n, k) == b.dag_count(n, k)
