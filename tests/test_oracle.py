import itertools

import pytest

from dag_reference import Dag, DagStats, is_acyclic, ordered_pairs, stats
from dagdescents.engine import labeled_dag_total
from dagdescents.combinatorics import gaussian_coefficient
from dagdescents.oracle import (
    OracleCounts,
    enumerate_counts,
    subset_pair_histogram,
)


def test_pair_ordering_is_lexicographic():
    assert ordered_pairs(3) == ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))


def test_dag_edge_round_trip():
    g = Dag.from_edges(4, [(2, 1), (1, 3), (3, 4)])
    assert set(g.edges()) == {(2, 1), (1, 3), (3, 4)}
    assert Dag(4, g.mask).edges() == g.edges()


def test_dag_rejects_bad_input():
    with pytest.raises(ValueError):
        Dag.from_edges(3, [(1, 1)])  # self-loop unrepresentable
    with pytest.raises(ValueError):
        Dag.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Dag(3, 1 << 6)  # only 6 pair bits exist for n=3
    with pytest.raises(ValueError):
        Dag(0, 0)


def test_dag_is_an_immutable_hashable_value():
    g = Dag(3, 5)
    with pytest.raises(AttributeError):
        g.mask = 6
    with pytest.raises(AttributeError):
        g.n = 4
    assert (g.n, g.mask) == (3, 5)
    assert g == Dag(3, 5) == Dag.from_edges(3, g.edges())
    assert g != Dag(3, 6)
    assert len({g, Dag(3, 5), Dag(3, 6)}) == 2


def test_dag_stats_fields_in_order():
    s = DagStats(2, frozenset({1}), frozenset({1, 3}), frozenset({2, 3}))
    assert s.descents == 2
    assert s.reachable_from_lowest == frozenset({1})
    assert s.reachable_from_highest == frozenset({1, 3})
    assert s.predecessors_of_lowest == frozenset({2, 3})
    assert s.descents_into_lowest == 2
    with pytest.raises(AttributeError):
        s.descents = 3
    assert s == stats(Dag.from_edges(3, [(2, 1), (3, 1), (2, 3)]))
    assert len({s, DagStats(2, frozenset({1}), frozenset({1, 3}),
                            frozenset({2, 3}))}) == 1


def test_oracle_counts_zeros_and_equality():
    zeros = OracleCounts.zeros(3)
    assert zeros.n == 3
    assert zeros.by_descents == [0, 0, 0, 0]
    assert zeros.spanning_from_lowest == [0, 0, 0, 0]
    assert zeros.spanning_from_highest == [0, 0, 0, 0]
    for table in (zeros.edge_into_lowest, zeros.vertex_reachable_from_lowest,
                  zeros.lowest_indegree):
        assert table == [[0] * 4 for _ in range(4)]
    # the rows are independent lists, not aliases of one row
    zeros.edge_into_lowest[0][2] = 1
    assert zeros.edge_into_lowest[1][2] == 0
    assert zeros != OracleCounts.zeros(3)
    assert OracleCounts.zeros(3) == OracleCounts.zeros(3)
    assert OracleCounts.zeros(3) != OracleCounts.zeros(4)
    assert enumerate_counts(3) == enumerate_counts(3)


def test_oracle_counts_add_sums_every_table():
    counts = enumerate_counts(3)
    doubled = counts + enumerate_counts(3)
    assert doubled.n == 3
    assert doubled.by_descents == [16, 22, 10, 2]
    assert doubled.spanning_from_lowest == [6, 4, 0, 0]
    assert doubled.spanning_from_highest == [0, 2, 6, 2]
    for name in ("edge_into_lowest", "vertex_reachable_from_lowest",
                 "lowest_indegree"):
        assert getattr(doubled, name) == [
            [2 * c for c in row] for row in getattr(counts, name)], name
    assert counts == enumerate_counts(3)  # operands are left unchanged
    with pytest.raises(TypeError):
        counts + 1


def test_is_acyclic():
    assert is_acyclic(Dag.from_edges(3, []))
    assert is_acyclic(Dag.from_edges(3, [(2, 1), (1, 3)]))
    assert not is_acyclic(Dag.from_edges(2, [(1, 2), (2, 1)]))
    assert not is_acyclic(Dag.from_edges(3, [(3, 1), (1, 2), (2, 3)]))


def test_stats_hand_examples():
    s = stats(Dag.from_edges(3, [(2, 1), (1, 3)]))
    assert s.descents == 1
    assert s.reachable_from_lowest == frozenset({1, 3})
    assert s.descents_into_lowest == 1
    assert s.predecessors_of_lowest == frozenset({2})

    s = stats(Dag.from_edges(2, []))
    assert s.descents == 0
    assert s.reachable_from_lowest == frozenset({1})
    assert s.reachable_from_highest == frozenset({2})

    s = stats(Dag.from_edges(3, [(1, 3), (3, 2)]))
    assert s.descents == 1  # 3 -> 2
    assert s.reachable_from_lowest == frozenset({1, 2, 3})
    assert s.reachable_from_highest == frozenset({2, 3})


def test_stats_rejects_cycles():
    with pytest.raises(ValueError):
        stats(Dag.from_edges(2, [(1, 2), (2, 1)]))


def test_two_vertex_tables():
    counts = enumerate_counts(2)
    assert counts.by_descents == [2, 1]
    assert counts.spanning_from_lowest == [1, 0]
    assert counts.spanning_from_highest == [0, 1]


def test_three_vertex_tables():
    counts = enumerate_counts(3)
    assert counts.by_descents == [8, 11, 5, 1]
    assert counts.spanning_from_lowest == [3, 2, 0, 0]
    assert counts.spanning_from_highest == [0, 1, 3, 1]
    ks = range(len(counts.by_descents))
    assert [counts.cell("A", k) for k in ks] == [0, 7, 7, 2]
    assert [counts.cell("B", k) for k in ks] == [9, 8, 1, 0]
    assert [counts.cell("Cw", k) for k in ks] == [0, 0, 2, 1]
    assert [counts.cell("u", k) for k in ks] == counts.spanning_from_highest
    with pytest.raises(ValueError, match="unknown family 'x'"):
        counts.cell("x", 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_totals_match_alternating_recurrence(n):
    assert enumerate_counts(n).total() == labeled_dag_total(n)


def test_totals_are_labeled_dag_counts():
    # OEIS A003024 (Robinson, "Counting labeled acyclic digraphs", 1973)
    assert [enumerate_counts(n).total() for n in range(1, 6)] == \
        [1, 3, 25, 543, 29281]


def test_size_gates():
    with pytest.raises(ValueError):
        enumerate_counts(0)
    with pytest.raises(ValueError):
        enumerate_counts(6)  # needs allow_slow
    with pytest.raises(ValueError):
        enumerate_counts(7, allow_slow=True)  # hard cap


def test_merge_with_zeros_is_identity():
    assert OracleCounts.zeros(4) + enumerate_counts(4) == enumerate_counts(4)


def test_merge_rejects_different_n():
    with pytest.raises(ValueError):
        enumerate_counts(2) + enumerate_counts(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fast_path_agrees_with_per_graph_stats(n):
    """The direct enumerator must tally exactly what stats() reports over
    every edge mask."""
    slow = OracleCounts.zeros(n)
    for mask in range(1 << (n * (n - 1))):
        g = Dag(n, mask)
        if not is_acyclic(g):
            continue
        s = stats(g)
        k = s.descents
        slow.by_descents[k] += 1
        if len(s.reachable_from_lowest) == n:
            slow.spanning_from_lowest[k] += 1
        if len(s.reachable_from_highest) == n:
            slow.spanning_from_highest[k] += 1
        for m in range(2, n + 1):
            if m in s.predecessors_of_lowest:
                slow.edge_into_lowest[k][m] += 1
            if m in s.reachable_from_lowest:
                slow.vertex_reachable_from_lowest[k][m] += 1
        slow.lowest_indegree[k][s.descents_into_lowest] += 1
    assert slow == enumerate_counts(n)


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
    "n reaches all".  This pins the into-lowest bits and the reach split
    of vertex 1 for n = 5, beyond the per-graph comparison's n <= 4."""
    counts = enumerate_counts(n)
    ks = range(len(counts.by_descents))
    into = [sum(counts.edge_into_lowest[k][m] for k in ks)
            for m in range(2, n + 1)]
    reach = [sum(counts.vertex_reachable_from_lowest[k][m] for k in ks)
             for m in range(2, n + 1)]
    assert into == [edges] * (n - 1)
    assert reach == [reached] * (n - 1)
    assert sum(counts.spanning_from_lowest) == spanning
    assert sum(counts.spanning_from_highest) == spanning
    assert sum(j * c for row in counts.lowest_indegree
               for j, c in enumerate(row)) == sum(into)
    assert sum(map(sum, counts.lowest_indegree)) == counts.total()


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
