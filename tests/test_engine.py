import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import faults
from dag_reference import all_dags
from faults import bump
from kernel_reference import two_factorial
from test_acceptance import EXPECTED_TOTALS
from dagdescents import engine, verify
from dagdescents.combinatorics import gaussian_coefficient, pow2
from dagdescents.engine import (
    FAMILIES,
    DescentCounter,
    EngineInconsistency,
    labeled_dag_total,
)
from dagdescents.golden import GOLDEN_COUNTS
from dagdescents.verify import series_identity_check


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
    assert counter.cell("t", 3, 1) == 2
    assert counter.cell("u", 2, 1) == 1
    assert counter.cell("A", 2, 1) == 1
    assert counter.cell("A", 3, 1) == 7
    assert counter.cell("B", 2, 0) == 1
    assert counter.cell("B", 3, 0) == 9
    assert counter.cell("Cw", 3, 2) == 2


def test_base_cases(counter):
    assert counter.dag_count(0, 0) == 1
    assert counter.dag_count(0, 3) == 0
    assert counter.cell("t", 4, 0) == 21
    assert counter.cell("t", 1, 3) == 0
    assert counter.cell("u", 1, 0) == 1
    assert counter.cell("u", 3, 0) == 0


def test_incidence_sums_vanish_where_impossible(counter):
    for n in range(1, 7):
        assert counter.cell("A", n, 0) == 0
        assert counter.cell("Cw", n, 0) == 0
        assert counter.cell("Cw", n, 1) == 0
    for k in range(5):
        assert counter.cell("B", 1, k) == 0
        assert counter.cell("Cw", 2, k + 2) == 0


def test_full_table_matches_fixture(counter):
    rows = counter.table(8)
    for n in range(1, 9):
        assert rows[n - 1] == list(GOLDEN_COUNTS[n]), f"row {n}"


def test_row_totals(counter):
    for n in range(1, 9):
        total = counter.row_total(n)
        assert total == EXPECTED_TOTALS[n - 1]
        assert total == labeled_dag_total(n)
    assert counter.row_total(0) == 1


def test_structural_invariants(counter):
    for n in range(1, 9):
        top = math.comb(n, 2)
        assert counter.dag_count(n, 0) == pow2(top)
        assert counter.dag_count(n, top) == 1
        assert counter.dag_count(n, top + 1) == 0
        assert counter.dag_count(n, top + 17) == 0
        assert counter.cell("t", n, 0) == two_factorial(n - 1)
        assert counter.cell("u", n, 0) == (1 if n == 1 else 0)
        for k in range(top + 1):
            d = counter.dag_count(n, k)
            assert counter.cell("t", n, k) <= d
            assert counter.cell("u", n, k) <= d


# ----------------------------------------------------------------------
# independent recurrence: inclusion-exclusion over nonempty source sets.
# If S is the set of sources, there are no edges within S, each cross
# pair (s, y) with s in S is a free slot (weight 1+x when s > y, weight
# 2 otherwise), and the rest is any DAG on the remaining labels.  This
# shares nothing with the engine's edge-insertion recurrence, so
# agreement pins the six families a second way.  P(N, M) sums, over the
# M-subsets S of an N-set, the product over cross pairs of those
# weights; splitting on whether the top element is in S gives
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


def test_table_matches_source_set_recurrence(counter):
    reference = _six_families_by_source_sets(8)["d"]
    assert counter.table(8) == [reference[n] for n in range(1, 9)]


def test_six_families_match_source_sets_through_16():
    """Every cell of d, t, u and A for n <= 16 against the source-set
    sums; B and Cw against the identities above, which tie them to those
    independently summed d and A rows."""
    reference = _six_families_by_source_sets(16)
    counter = DescentCounter()
    counter.table(16)
    for family, rows in reference.items():
        for n, row in rows.items():
            actual = [counter.cell(family, n, k) for k in range(len(row))]
            assert actual == row, f"{family} row {n}"


def _stored_rows(counter):
    """{family: {n: row}} of every row ``counter`` holds, via entries()."""
    rows = {}
    for tag, n, k, value in counter.entries():
        rows.setdefault(tag, {}).setdefault(n, []).append(value)
    return rows


def test_six_families_match_source_sets_17_to_22():
    """The comparison above, continued for n = 17..22, where cells pass
    10^60 and the packed slots are many bytes wide."""
    reference = _six_families_by_source_sets(22)
    counter = DescentCounter()
    counter.table(22)
    rows = _stored_rows(counter)
    for family, by_n in reference.items():
        for n in range(17, 23):
            assert rows[family][n] == by_n[n], f"{family} row {n}"


# ----------------------------------------------------------------------
# the packed kernel's slot width follows the rows, not the true counts

def _level_by_row_formula(rows, n):
    """Level-n rows of t, u, A, B and Cw by the engine docstring's row
    formula, sum_j P_j Q_o W_j cross_F, in list arithmetic, from the
    stored rows (the level-n t row included, for B's j = n term)."""
    def power(e):  # (1+x)^e
        return [math.comb(e, i) for i in range(e + 1)]

    def weights(j, o, top, offset):  # W_j, w_i from Gaussian coefficients
        free = (j - 1) * o
        return _poly_add([0], *(
            _scaled(gaussian_coefficient(top, j - 1, i - offset)
                    * 2 ** (free - i), power(i)) for i in range(free + 1)))

    sums = {tag: [0] for tag in ("t", "u", "A", "B", "Cw")}
    for j in range(1, n + 1):
        o = n - j
        if o:
            t_part = _poly_mul(_poly_mul(rows["u"][j], rows["t"][o]),
                               weights(j, o, n - 2, 0))
            sums["t"] = _poly_add(sums["t"], _scaled(2 ** o - 1, t_part))
            u_cross = _poly_add(power(o), [-1])
            sums["u"] = _poly_add(sums["u"], _poly_mul(_poly_mul(
                _poly_mul(rows["t"][j], rows["u"][o]),
                weights(j, o, n - 2, j - 1)), u_cross))
        a_cross = [0] + _scaled(o, power(o - 1)) if o else [0]
        cross = {"A": a_cross, "B": _scaled(j - 1, power(o)),
                 "Cw": _poly_add(a_cross, _scaled(-1, power(o)), [1])}
        split = _poly_mul(_poly_mul(rows["t"][j], rows["d"][o]),
                          weights(j, o, n - 1, 0))
        for tag, poly in cross.items():
            sums[tag] = _poly_add(sums[tag], _poly_mul(split, poly))
    size = n * (n - 1) // 2 + 1
    assert all(not any(row[size:]) for row in sums.values())
    return {tag: (row + [0] * size)[:size] for tag, row in sums.items()}


def test_level_rows_are_exact_above_the_true_counts():
    # a stored u row near 10^60: the level-6 rows built from it hold
    # cells near 10^61, which slots sized from the true counts would alias
    wrong = DescentCounter()
    wrong.table(5)
    wrong._levels[5][FAMILIES.index("u")][:] = [10**60 + k for k in range(11)]
    # t(6,.) reads the wrong row, B(6,.) reads t(6,.), and d(6,1) then
    # comes out negative, so no row of level 6 is stored
    with pytest.raises(EngineInconsistency, match=r"d\(6,1\) = -"):
        wrong.table(6)
    rows = _stored_rows(wrong)
    assert rows["u"][5] == [10**60 + k for k in range(11)]
    assert all(6 not in by_n for by_n in rows.values())
    # the level's rows as the kernel builds them
    level = dict(zip(FAMILIES[1:], wrong._packed_rows(6, 16)))
    rows["t"][6] = level["t"]
    expected = _level_by_row_formula(rows, 6)
    assert expected["t"][0] > 10**61
    assert level == expected


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
    # the reference is asked in ascending order before the shuffled
    # queries, so a value that depends on what was asked first differs
    domain = [(n, k) for n in range(7) for k in range(9)]
    reference = DescentCounter()
    expected = {q: reference.dag_count(*q) for q in domain}
    rng.shuffle(domain)
    fresh = DescentCounter()
    for n, k in domain:
        assert fresh.dag_count(n, k) == expected[n, k]


def test_entries_order_is_family_then_n_then_k():
    counter = DescentCounter()
    for family, n, k in [("d", 5, 3), ("u", 3, 1), ("d", 2, 0), ("Cw", 6, 9)]:
        counter.cell(family, n, k)
    counter.table(7)
    expected = [(tag, n, k, counter.cell(tag, n, k))
                for tag in FAMILIES
                for n in range(0 if tag == "d" else 1, 8)
                for k in range(n * (n - 1) // 2 + 1)]
    assert list(counter.entries()) == expected


def test_entries_streams_the_levels_it_started_with():
    # levels filled while the stream is read do not join it: the rest of
    # the stream is that of a counter filled only to where it started
    counter, fresh = DescentCounter(), DescentCounter()
    counter.table(5)
    fresh.table(5)
    stream = counter.entries()
    first = next(stream)
    counter.table(7)
    assert [first, *stream] == list(fresh.entries())


def test_table_hands_out_copies():
    # writing to the rows table() returned leaves the memo as it was
    counter, fresh = DescentCounter(), DescentCounter()
    rows = counter.table(5)
    for row in rows:
        row[0] = 0
        row.append(1)
    for n in range(1, 6):
        for k in range(n * (n - 1) // 2 + 2):
            assert counter.dag_count(n, k) == fresh.dag_count(n, k)
    assert counter.table(5) == fresh.table(5)
    assert list(counter.entries()) == list(fresh.entries())


def test_argument_validation():
    c = DescentCounter()
    with pytest.raises(ValueError):
        c.dag_count(-1, 0)
    with pytest.raises(ValueError):
        c.dag_count(2, -1)
    with pytest.raises(ValueError):
        c.cell("t", 0, 0)
    with pytest.raises(ValueError):
        c.cell("u", 0, 2)
    with pytest.raises(ValueError):
        c.table(0)
    with pytest.raises(ValueError):
        c.row_total(-1)


def test_series_identity_holds_through_degree_8():
    for degree in range(9):
        assert series_identity_check(degree)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        series_identity_check(-1)


def test_series_identity_holds_through_degree_40_and_can_fail(monkeypatch):
    assert all(series_identity_check(degree) for degree in range(41))
    true_total = engine.labeled_dag_total
    monkeypatch.setattr(
        verify, "labeled_dag_total",
        lambda m: true_total(m) + (m == 5))
    assert series_identity_check(4)
    assert not series_identity_check(8)
    # a fault at the top degree itself: a loop that stops one short passes
    monkeypatch.setattr(
        verify, "labeled_dag_total",
        lambda m: true_total(m) + (m == 8))
    assert series_identity_check(7)
    assert not series_identity_check(8)


def test_labeled_dag_total_sequence():
    assert [labeled_dag_total(n) for n in range(9)] == \
        [1, 1, 3, 25, 543, 29281, 3781503, 1138779265, 783702329343]
    with pytest.raises(ValueError):
        labeled_dag_total(-1)


def _edge_totals(n_max):
    """E_n, the edges summed over all labeled DAGs on n vertices, for
    n = 0..n_max, by Robinson's edge-weighted count: the alternating
    recurrence with 2 made 1+y,

        a_n(y) = sum_m (-1)^(m+1) C(n,m) (1+y)^(m(n-m)) a_(n-m)(y),

    carried as pairs (a_n(1), a_n'(1)); E_n = a_n'(1)."""
    pairs = [(1, 0)]
    for n in range(1, n_max + 1):
        value = slope = 0
        for m in range(1, n + 1):
            e = m * (n - m)
            a, da = pairs[n - m]
            weight = (-1) ** (m + 1) * math.comb(n, m)
            # (1+y)^e is 2^e at y = 1, and its derivative e 2^(e-1)
            value += weight * 2 ** e * a
            slope += weight * (2 ** e * da + e * 2 ** e // 2 * a)
        assert value == labeled_dag_total(n)
        pairs.append((value, slope))
    return [slope for _, slope in pairs]


def _edge_total_failures(counter, n_max):
    """(family, n) of each level 1..n_max whose d or A row misses E_n.
    Reversing the labels swaps descents and ascents, so
    2 sum_k k d(n,k) = E_n; every vertex has the same total in-degree,
    so n sum_k A(n,k) = E_n."""
    totals = _edge_totals(n_max)
    rows = _stored_rows(counter)
    failures = []
    for n in range(1, n_max + 1):
        if 2 * sum(k * c for k, c in enumerate(rows["d"][n])) != totals[n]:
            failures.append(("d", n))
        if n * sum(rows["A"][n]) != totals[n]:
            failures.append(("A", n))
    return failures


def test_edge_totals():
    assert _edge_totals(5) == [0, 0, 2, 48, 2016, 176320]
    assert _edge_totals(4)[1:] == [sum(map(len, all_dags(n)))
                                   for n in range(1, 5)]


def test_descent_and_into_one_sums_match_edge_totals():
    counter = DescentCounter()
    counter.table(22)
    assert _edge_total_failures(counter, 22) == []


def test_edge_totals_see_a_stored_a_cell_the_guards_miss():
    # A(6,5) + 1 stored after level 6 passed feeds no later level, so
    # filling level 7 raises nothing (see the stored level-6 sweep)
    counter = DescentCounter()
    counter.table(6)
    counter._levels[6][FAMILIES.index("A")][5] += 1
    counter.table(7)
    assert _edge_total_failures(counter, 7) == [("A", 6)]


# ----------------------------------------------------------------------
# cell reads any family by its tag (cache.apply_records checks values
# against it; see test_cache)

def test_cell_returns_every_stored_value():
    reference = DescentCounter()
    reference.table(5)
    checked = DescentCounter()
    for family, n, k, value in reference.entries():
        assert checked.cell(family, n, k) == value
    assert checked.table(5) == reference.table(5)
    assert list(checked.entries()) == list(reference.entries())


def test_cell_rejects_structural_nonsense():
    c = DescentCounter()
    with pytest.raises(ValueError, match="unknown family 'x'"):
        c.cell("x", 3, 1)
    with pytest.raises(ValueError, match="n must be at least 0, got -1"):
        c.cell("d", -1, 0)
    with pytest.raises(ValueError, match="k must be nonnegative, got -5"):
        c.cell("d", 3, -5)
    for family in FAMILIES[1:]:  # only d is defined at n=0
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            c.cell(family, 0, 0)
    assert c.cell("d", 3, 4) == 0  # k > C(3,2) forces the count to 0
    assert c.dag_count(3, 4) == 0


@pytest.mark.parametrize("family", ["A", "B"])
def test_insertion_guard_catches_a_computed_cell(family, monkeypatch):
    # A(6,15) and B(6,15) feed no d cell, so raising either by one drives
    # nothing negative; only the insertion identities can see it
    reference = DescentCounter()
    reference.table(6)
    bumps = bump(monkeypatch.setattr, family, 6, 15)
    counter = DescentCounter()
    with pytest.raises(EngineInconsistency, match="fails at n=6, k=1[56]$"):
        counter.table(6)
    assert bumps == [6]
    # nothing of the failed level is stored, so a snapshot cannot save it
    filled_to_5 = DescentCounter()
    filled_to_5.table(5)
    assert list(counter.entries()) == list(filled_to_5.entries())
    # the failed level is not kept: with the fault gone, the next query
    # fills it afresh
    monkeypatch.undo()
    assert counter.table(6) == reference.table(6)
    assert list(counter.entries()) == list(reference.entries())


@pytest.mark.parametrize("family", ["t", "u", "A", "B", "Cw"])
def test_guard_catches_every_computed_cell(family, monkeypatch):
    # a +1 on any one of the 29 freshly computed cells of a level-8 row
    # must raise at level 8.  One on A, B or Cw shifts the d row, growing
    # sevenfold per k, until a d cell goes negative or an insertion
    # identity fails; t and u, bumped after the pass, feed no other row
    # of their level, so only the u/t row-sum identity sees them
    expected = (r"sum_k u\(n,k\) = sum_k t\(n,k\) fails at n=8$"
                if family in ("t", "u") else r"d\(8,\d+\) = -\d+$|n=8, k=\d+$")
    level_7 = DescentCounter()
    level_7.table(7)
    true_rows = faults._packed_rows(level_7, 8, 29)
    caught = []
    for k in range(29):
        bumps = bump(monkeypatch.setattr, family, 8, k)
        try:
            DescentCounter().table(8)
        except EngineInconsistency as exc:
            assert re.search(expected, str(exc)), str(exc)
            caught.append(k)
        assert bumps == [8]
        # one fault per case: patching again replaces, never stacks
        rows = DescentCounter._packed_rows(level_7, 8, 29)
        assert [(FAMILIES[index + 1], cell, got - true)
                for index, (row, true_row) in enumerate(zip(rows, true_rows))
                for cell, (got, true) in enumerate(zip(row, true_row))
                if got != true] == [(family, k, 1)]
    assert caught == list(range(29))


def test_guard_sweep_of_level_8_faults(monkeypatch):
    # the module docstring's sweep: -1, +1 and +7 on each of the 29
    # level-8 cells of t, u, A, B and Cw, 435 faults.  Each raises,
    # through identity (i) or (iii) or a negative d cell; no check names
    # (ii).  The t and u faults, injected after the pass, break (iii).
    # The one caught at k = 0 is A(8,0) - 1, by (i) there, 0 = A(8,0): it
    # drives no d cell negative.  A Cw(8,0) fault shifts d(8,0) and the
    # cells above it, and is caught higher up the row
    identity = re.escape("(n-1) d(n,k-1) = A(n,k-1) + B(n,k-1) + A(n,k)")
    sums = re.escape("sum_k u(n,k) = sum_k t(n,k)")
    caught = {"(i)": 0, "(iii)": 0, "negative": 0}
    at_k_0 = []
    for family, k, by in itertools.product(["t", "u", "A", "B", "Cw"],
                                           range(29), [-1, 1, 7]):
        bump(monkeypatch.setattr, family, 8, k, by)
        with pytest.raises(EngineInconsistency) as raised:
            DescentCounter().table(8)
        found = re.fullmatch(rf"internal inconsistency: (?:{identity} fails "
                             r"at n=8, k=(\d+)|d\(8,(\d+)\) = -\d+|"
                             rf"({sums}) fails at n=8)", str(raised.value))
        assert found, str(raised.value)
        caught["(i)" if found[1] else "(iii)" if found[3]
               else "negative"] += 1
        if (found[1] or found[2]) == "0":
            at_k_0.append((family, k, by))
    assert caught == {"(i)": 94, "(iii)": 174, "negative": 167}
    assert at_k_0 == [("A", 0, -1)]


def test_every_computed_fault_of_levels_2_to_7_raises_at_its_level(
        monkeypatch):
    # -1, +1 and +7 on each computed t, u, A, B and Cw cell of levels
    # 2..7, 930 faults: each raises while level n fills, and nothing of
    # level n is stored.  A Cw(n,0) fault reaches the guards only through
    # d(n,0), which the d step computes like every other d cell
    cases = 0
    for n in range(2, 8):
        for family, k, by in itertools.product(
                ["t", "u", "A", "B", "Cw"], range(n * (n - 1) // 2 + 1),
                [-1, 1, 7]):
            bumps = bump(monkeypatch.setattr, family, n, k, by)
            counter = DescentCounter()
            with pytest.raises(EngineInconsistency):
                counter.table(n)
            assert bumps == [n]
            assert len(counter._levels) == n
            cases += 1
    assert cases == 930


@pytest.mark.parametrize("family, caught", [
    ("d", 16), ("t", 16), ("u", 16), ("A", 0), ("B", 0), ("Cw", 0)])
def test_guard_sweep_of_stored_level_6_cells(family, caught):
    # a +1 on a stored d, t or u cell of level 6 breaks level 7's
    # identities; stored A, B and Cw rows feed no later level, so no
    # guard can see a wrong cell there: it stays out of the guard's reach
    raised = 0
    for k in range(16):
        counter = DescentCounter()
        counter.table(6)
        counter._levels[6][FAMILIES.index(family)][k] += 1
        try:
            counter.table(7)
        except EngineInconsistency:
            raised += 1
    assert raised == caught


@pytest.mark.parametrize("family, k, value", [
    ("u", 3, -1), ("t", 0, -1), ("d", 2, -1), ("t", 11, 1)])
def test_stored_cell_out_of_its_slot_raises(family, k, value):
    # a negative stored level-5 cell cannot be packed, and a nonzero one
    # past the end of its row (t has 11 cells at level 5) carries the
    # products past level 6's slots; neither reaches the identities, and
    # nothing from level 6 is stored
    counter = DescentCounter()
    counter.table(5)
    counter._levels[5][FAMILIES.index(family)][k:k + 1] = [value]
    with pytest.raises(EngineInconsistency,
                       match=r"^internal inconsistency: level 6 does not fit "
                             r"16 cells of \d+ bytes$"):
        counter.table(6)
    assert len(counter._levels) == 6


def test_random_spot_checks_are_stable():
    # belt and braces: a handful of deep cells, against a counter asked
    # for them in ascending order first
    rng = random.Random(20240817)
    probes = [(rng.randrange(1, 10), rng.randrange(0, 30)) for _ in range(6)]
    reference = DescentCounter()
    expected = {q: reference.dag_count(*q) for q in sorted(probes)}
    a = DescentCounter()
    for n, k in probes:
        assert a.dag_count(n, k) == expected[n, k]
