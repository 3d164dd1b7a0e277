import itertools

import pytest

from dag_reference import all_dags, per_graph_counts, reachable
from dagdescents.engine import FAMILIES, labeled_dag_total
from dagdescents.combinatorics import gaussian_coefficient
from dagdescents.oracle import (
    OracleCounts,
    enumerate_counts,
    subset_pair_histogram,
)


def test_oracle_counts_fields_are_the_engine_tags():
    assert OracleCounts._fields == ("n", *FAMILIES)


def test_oracle_counts_zeros_and_equality():
    zeros = OracleCounts.zeros(3)
    assert zeros.n == 3
    for family in FAMILIES:
        assert getattr(zeros, family) == [0, 0, 0, 0], family
    # the rows are independent lists, not aliases of one row
    zeros.A[0] = 1
    assert zeros.B == [0, 0, 0, 0] and zeros.A[1] == 0
    assert zeros != OracleCounts.zeros(3)
    assert OracleCounts.zeros(3) == OracleCounts.zeros(3)
    assert OracleCounts.zeros(3) != OracleCounts.zeros(4)
    assert enumerate_counts(3) == enumerate_counts(3)


def test_oracle_counts_add_sums_every_table():
    counts = enumerate_counts(3)
    doubled = counts + enumerate_counts(3)
    assert doubled.n == 3
    assert doubled.d == [16, 22, 10, 2]
    assert doubled.t == [6, 4, 0, 0]
    assert doubled.u == [0, 2, 6, 2]
    for family in ("A", "B", "Cw"):
        assert getattr(doubled, family) == [
            2 * c for c in getattr(counts, family)], family
    assert counts == enumerate_counts(3)  # operands are left unchanged
    with pytest.raises(TypeError):
        counts + 1


def _edge_sets(n):
    return [set(edges) for edges in all_dags(n)]


def test_is_acyclic():
    assert [len(list(all_dags(n))) for n in range(1, 5)] == [1, 3, 25, 543]
    assert set() in _edge_sets(3)
    assert {(2, 1), (1, 3)} in _edge_sets(3)


def test_stats_hand_examples():
    # descents, edges into 1, and the reach of 1 and of n, per graph
    for edges, descents, into_lowest, from_lowest, from_highest in [
        ([(2, 1), (1, 3)], 1, 1, {1, 3}, {3}),
        ([], 0, 0, {1}, {3}),
        ([(1, 3), (3, 2)], 1, 0, {1, 2, 3}, {2, 3}),
        ([(2, 1), (3, 1), (2, 3)], 2, 2, {1}, {1, 3}),
    ]:
        assert set(edges) in _edge_sets(3)
        assert sum(x > y for x, y in edges) == descents
        assert sum(y == 1 for x, y in edges) == into_lowest
        assert reachable(edges, 1) == from_lowest
        assert reachable(edges, 3) == from_highest


def test_stats_rejects_cycles():
    # no edge set holding a cycle is yielded, with or without other edges
    for cycle in ({(1, 2), (2, 1)}, {(3, 1), (1, 2), (2, 3)}):
        assert not any(cycle <= edges for edges in _edge_sets(3))
    assert not any({(1, 2), (2, 1)} <= edges for edges in _edge_sets(2))


def test_two_vertex_tables():
    counts = enumerate_counts(2)
    assert counts.d == [2, 1]
    assert counts.t == [1, 0]
    assert counts.u == [0, 1]
    assert counts.A == [0, 1]
    assert counts.B == [1, 0]
    assert counts.Cw == [0, 0]


def test_three_vertex_tables():
    counts = enumerate_counts(3)
    assert counts.d == [8, 11, 5, 1]
    assert counts.t == [3, 2, 0, 0]
    assert counts.u == [0, 1, 3, 1]
    assert counts.A == [0, 7, 7, 2]
    assert counts.B == [9, 8, 1, 0]
    assert counts.Cw == [0, 0, 2, 1]
    for family in FAMILIES:
        row = getattr(counts, family)
        assert [counts.cell(family, k) for k in range(len(row))] == row
    assert counts.by_descents is counts.d
    for tag in ("x", "n"):
        with pytest.raises(ValueError, match=f"unknown family '{tag}'"):
            counts.cell(tag, 0)


def test_cell_rejects_negative_k_and_reads_zero_past_the_row():
    counts = enumerate_counts(3)
    for family in FAMILIES:
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            counts.cell(family, -1)
        assert counts.cell(family, 4) == 0
        assert counts.cell(family, 100) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_totals_match_alternating_recurrence(n):
    assert sum(enumerate_counts(n).d) == labeled_dag_total(n)


def test_totals_are_labeled_dag_counts():
    # OEIS A003024 (Robinson, "Counting labeled acyclic digraphs", 1973)
    assert [sum(enumerate_counts(n).d) for n in range(1, 6)] == \
        [1, 3, 25, 543, 29281]


def test_size_gates():
    with pytest.raises(ValueError):
        enumerate_counts(0)
    with pytest.raises(ValueError):
        enumerate_counts(7)  # n = 6 is the largest


def test_merge_with_zeros_is_identity():
    assert OracleCounts.zeros(4) + enumerate_counts(4) == enumerate_counts(4)


def test_merge_rejects_different_n():
    with pytest.raises(ValueError):
        enumerate_counts(2) + enumerate_counts(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fast_path_agrees_with_per_graph_stats(n):
    """The direct enumerator tallies exactly what the per-graph reference
    reads off every acyclic edge set, in all six families."""
    assert per_graph_counts(n) == enumerate_counts(n)


@pytest.mark.parametrize("n, edges, reached, spanning", [
    (2, 1, 1, 1),
    (3, 8, 9, 5),
    (4, 168, 207, 79),
    (5, 8816, 11649, 3377),
])
def test_enumerator_bookkeeping_symmetries(n, edges, reached, spanning):
    """Relabeling two vertices other than 1 maps DAGs to DAGs, so every
    m >= 2 has the same number of graphs with the edge m -> 1 and with m
    reachable from 1; reversing the labels swaps "1 reaches all" with
    "n reaches all".  Vertex 1 has no in-edge in 2^(n-1) a_(n-1) graphs
    (a the labeled-DAG totals), so Cw, which counts j - 1 per graph with
    j >= 1 edges into 1, sums to sum(A) - a_n + 2^(n-1) a_(n-1).  This
    pins the into-lowest bits and the reach split of vertex 1 for n = 5,
    beyond the per-graph comparison's n <= 4."""
    counts = enumerate_counts(n)
    assert sum(counts.A) == (n - 1) * edges
    assert sum(counts.B) == (n - 1) * reached
    assert sum(counts.t) == spanning
    assert sum(counts.u) == spanning
    with_edge_into_one = (labeled_dag_total(n)
                        - 2 ** (n - 1) * labeled_dag_total(n - 1))
    assert sum(counts.Cw) == sum(counts.A) - with_edge_into_one


def test_cw_row_sums_for_n_up_to_5():
    assert [sum(enumerate_counts(n).Cw) for n in range(1, 6)] == \
        [0, 0, 3, 161, 14671]


def test_subset_pair_histogram_examples():
    assert subset_pair_histogram(2, 1) == [1, 1]
    assert subset_pair_histogram(4, 2) == [1, 1, 2, 1, 1]
    assert subset_pair_histogram(5, 0) == [1]
    assert subset_pair_histogram(4, 4) == [1]


def test_subset_pair_histogram_rejects_bad_j():
    with pytest.raises(ValueError):
        subset_pair_histogram(3, 4)
    with pytest.raises(ValueError):
        subset_pair_histogram(3, -1)


def test_subset_pair_histogram_matches_gaussian_coefficients():
    for n in range(9):
        for j in range(n + 1):
            hist = subset_pair_histogram(n, j)
            assert hist == [gaussian_coefficient(n, j, i)
                            for i in range(j * (n - j) + 1)], (n, j)


def _literal_pair_histogram(n, j):
    """The same histogram with every pair (x, y) counted one at a time."""
    hist = [0] * (j * (n - j) + 1)
    for subset in itertools.combinations(range(1, n + 1), j):
        members = set(subset)
        pairs = sum(1 for x in subset
                    for y in range(x + 1, n + 1) if y not in members)
        hist[pairs] += 1
    return hist


@pytest.mark.parametrize("n", range(10))
def test_subset_pair_histogram_matches_literal_pair_count(n):
    for j in range(n + 1):
        assert subset_pair_histogram(n, j) == _literal_pair_histogram(n, j), j
