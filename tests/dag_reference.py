"""Per-graph reference for the exhaustive enumerator, used only by tests.

A labeled digraph on vertices 1..n is a list of edges (x, y).  The tests
compare ``per_graph_counts`` with ``dagdescents.oracle.enumerate_counts``;
the two share no counting logic.
"""
import itertools

from dagdescents.oracle import OracleCounts


def reachable(edges, start):
    """The labels reachable from ``start`` along ``edges``, itself included."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for a, b in edges:
            if a == x and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def all_dags(n):
    """Each acyclic edge set on vertices 1..n, as a list of edges.  A set
    has a cycle iff some edge x -> y has x reachable from y."""
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        edges = list(itertools.compress(pairs, chosen))
        if not any(x in reachable(edges, y) for x, y in edges):
            yield edges


def per_graph_counts(n):
    """The six rows of ``OracleCounts``, read off one graph at a time."""
    counts = OracleCounts.zeros(n)
    for edges in all_dags(n):
        k = sum(x > y for x, y in edges)
        from_lowest = len(reachable(edges, 1))
        into_lowest = sum(y == 1 for x, y in edges)
        counts.d[k] += 1
        counts.t[k] += from_lowest == n
        counts.u[k] += len(reachable(edges, n)) == n
        counts.A[k] += into_lowest
        counts.B[k] += from_lowest - 1
        counts.Cw[k] += max(into_lowest - 1, 0)
    return counts
