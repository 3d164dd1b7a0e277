"""Exhaustive ground-truth enumeration of labeled DAGs.

This is the brute-force side of the differential test setup: build every
acyclic digraph on n vertices, one at a time, and tally the same
statistics the recurrence engine computes.  The two implementations
share no counting logic, so exact agreement on small n is strong
evidence for both.

Vertices carry labels 1..n.  An edge x -> y with x > y is a descent.
``enumerate_counts`` adds the labels in increasing order, so the edges
from each new label to lower ones are exactly its descents, and it only
offers in-edges that cannot close a cycle.  A table of the new label's
reach per out-set is built once per prefix, and the last label's
in-sets are walked in a tight loop that only asks whether each one
meets vertex 1's descendants.

``Dag`` is the small per-graph reference that the enumerator is tested
against.  It encodes an edge set as a bitmask over the n*(n-1) ordered
pairs (x, y) with x != y, taken in lexicographic order:

    (1,2), (1,3), ..., (1,n), (2,1), (2,3), ..., (n,n-1)

Bit p of the mask is set iff the p-th pair in that order is an edge.
``Dag`` masks rely on this order, so it must never change.

Enumeration cost is one step per DAG: n=5 has 29,281 DAGs (about 0.01 s)
and n=6 has 3,781,503 (1.0-1.2 s on a 2-core host, Python 3.11), so n=6
sits behind an explicit ``allow_slow`` override.  Larger n
(1,138,779,265 DAGs at n=7) is refused outright.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterator

MAX_ORACLE_N = 6


@lru_cache(maxsize=None)
def ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs (x, y), x != y, of labels 1..n in mask-bit order."""
    return tuple((x, y) for x in range(1, n + 1)
                 for y in range(1, n + 1) if y != x)


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: p for p, pair in enumerate(ordered_pairs(n))}


class Dag(namedtuple("Dag", "n mask")):
    """A labeled digraph on vertices 1..n held as an edge bitmask.

    Despite the name, the mask may describe a cyclic graph; only
    ``stats`` insists on acyclicity.  Self-loops are unrepresentable.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int) -> "Dag":
        if n < 1:
            raise ValueError(f"Dag needs at least one vertex, got n={n}")
        if not 0 <= mask < 1 << (n * (n - 1)):
            raise ValueError(f"edge mask out of range for n={n}")
        return super().__new__(cls, n, mask)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Dag":
        index = _pair_index(n)
        mask = 0
        for edge in edges:
            x, y = edge
            if edge not in index:
                raise ValueError(f"invalid edge {x}->{y} for n={n}")
            mask |= 1 << index[edge]
        return cls(n, mask)

    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = ordered_pairs(self.n)
        return tuple(pairs[p] for p in range(len(pairs))
                     if (self.mask >> p) & 1)


class DagStats(namedtuple("DagStats", "descents reachable_from_lowest "
                                      "reachable_from_highest "
                                      "predecessors_of_lowest")):
    """Per-graph statistics over an acyclic digraph.

    ``reachable_from_lowest`` / ``reachable_from_highest`` are the label
    sets reachable from vertex 1 / vertex n (every vertex reaches
    itself).  ``predecessors_of_lowest`` holds the labels m with an edge
    m -> 1; every such edge is a descent, since m > 1.
    """

    __slots__ = ()

    @property
    def descents_into_lowest(self) -> int:
        return len(self.predecessors_of_lowest)


def _adjacency(g: Dag) -> list[int]:
    """Out-neighbourhoods as vertex bitsets (bit v = label v+1)."""
    adj = [0] * g.n
    for x, y in g.edges():
        adj[x - 1] |= 1 << (y - 1)
    return adj


def is_acyclic(g: Dag) -> bool:
    """True iff the edge set admits a topological order.

    Iteratively strips vertices of in-degree zero; the graph is acyclic
    exactly when everything can be stripped.
    """
    preds = [0] * g.n
    for x, y in g.edges():
        preds[y - 1] |= 1 << (x - 1)
    remaining = (1 << g.n) - 1
    while remaining:
        sources = 0
        pending = remaining
        while pending:
            low = pending & -pending
            if preds[low.bit_length() - 1] & remaining == 0:
                sources |= low
            pending ^= low
        if sources == 0:
            return False
        remaining ^= sources
    return True


def _reachable(adj: list[int], start_bit: int) -> int:
    """Bitset of vertices reachable from the vertex bit, reflexively."""
    seen = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        pending = frontier
        while pending:
            low = pending & -pending
            nxt |= adj[low.bit_length() - 1]
            pending ^= low
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _labels(bits: int) -> frozenset[int]:
    return frozenset(v + 1 for v in range(bits.bit_length())
                     if (bits >> v) & 1)


def stats(g: Dag) -> DagStats:
    """Statistics bundle for an acyclic ``g``; rejects cyclic input."""
    if not is_acyclic(g):
        raise ValueError("graph has a directed cycle")
    edges = g.edges()
    adj = _adjacency(g)
    return DagStats(
        descents=sum(1 for x, y in edges if x > y),
        reachable_from_lowest=_labels(_reachable(adj, 1)),
        reachable_from_highest=_labels(_reachable(adj, 1 << (g.n - 1))),
        predecessors_of_lowest=frozenset(x for x, y in edges if y == 1),
    )


class OracleCounts(namedtuple("OracleCounts", (
        "n", "by_descents", "spanning_from_lowest", "spanning_from_highest",
        "edge_into_lowest", "vertex_reachable_from_lowest",
        "lowest_indegree"))):
    """Exhaustive count tables for one vertex count n.

    All lists are indexed by descent count k = 0..C(n,2).  The
    two-dimensional tables are indexed [k][m] with m a vertex label
    (entries for m outside the meaningful range stay 0):

    - ``by_descents[k]``: acyclic digraphs with k descents.
    - ``spanning_from_lowest[k]``: those where every vertex is reachable
      from vertex 1.
    - ``spanning_from_highest[k]``: every vertex reachable from vertex n.
    - ``edge_into_lowest[k][m]``: graphs containing the edge m -> 1.
    - ``vertex_reachable_from_lowest[k][m]``: graphs where m is
      reachable from vertex 1 (m >= 2).
    - ``lowest_indegree[k][m]``: graphs with exactly m edges into
      vertex 1.

    Tables over disjoint sets of graphs merge by ``+``.
    """

    __slots__ = ()

    @classmethod
    def zeros(cls, n: int) -> "OracleCounts":
        size = n * (n - 1) // 2 + 1
        return cls(
            n=n,
            by_descents=[0] * size,
            spanning_from_lowest=[0] * size,
            spanning_from_highest=[0] * size,
            edge_into_lowest=[[0] * (n + 1) for _ in range(size)],
            vertex_reachable_from_lowest=[[0] * (n + 1) for _ in range(size)],
            lowest_indegree=[[0] * (n + 1) for _ in range(size)],
        )

    def __add__(self, other: "OracleCounts") -> "OracleCounts":
        if not isinstance(other, OracleCounts):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot merge counts for different n")
        merged = OracleCounts.zeros(self.n)
        for k in range(len(self.by_descents)):
            merged.by_descents[k] = self.by_descents[k] + other.by_descents[k]
            merged.spanning_from_lowest[k] = (
                self.spanning_from_lowest[k] + other.spanning_from_lowest[k])
            merged.spanning_from_highest[k] = (
                self.spanning_from_highest[k] + other.spanning_from_highest[k])
            for m in range(self.n + 1):
                merged.edge_into_lowest[k][m] = (
                    self.edge_into_lowest[k][m] + other.edge_into_lowest[k][m])
                merged.vertex_reachable_from_lowest[k][m] = (
                    self.vertex_reachable_from_lowest[k][m]
                    + other.vertex_reachable_from_lowest[k][m])
                merged.lowest_indegree[k][m] = (
                    self.lowest_indegree[k][m] + other.lowest_indegree[k][m])
        return merged

    def total(self) -> int:
        return sum(self.by_descents)

    def descent_incidences_into_lowest(self, k: int) -> int:
        """Number of (graph, edge m->1) pairs among graphs with k descents."""
        return sum(self.edge_into_lowest[k][2:])

    def reachability_incidences_from_lowest(self, k: int) -> int:
        """Number of (graph, vertex m reachable from 1) pairs, m >= 2."""
        return sum(self.vertex_reachable_from_lowest[k][2:])

    def lowest_indegree_overcount(self, k: int) -> int:
        """Sum of (m-1) * #graphs with exactly m edges into vertex 1, m >= 2."""
        return sum((m - 1) * c
                   for m, c in enumerate(self.lowest_indegree[k]) if m >= 2)


def _subsets(bits: int) -> Iterator[int]:
    """Every subset of the bitset ``bits``, itself first and 0 last."""
    subset = bits
    while subset:
        yield subset
        subset = (subset - 1) & bits
    yield 0


def enumerate_counts(n: int, *, allow_slow: bool = False) -> OracleCounts:
    """Count every acyclic digraph on n vertices by building each once.

    Labels are added in the order 1, 2, ..., n.  Label v chooses an
    out-set O among the lower labels (those edges are exactly v's
    descents) and then an in-set I among the lower labels it cannot
    reach, so that no edge closes a cycle.  A DAG restricted to the
    labels 1..v is a DAG, and (O, I) fixes the edges of v, so every DAG
    is visited exactly once.  A descendant bitset is kept per vertex:
    v reaches itself and the descendants of O, and every earlier vertex
    that reaches I gains all of that.  For each prefix, ``reaches[O]``
    holds v's reach for every out-set O at once, built by doubling over
    the earlier labels' descendant sets.

    Each finished DAG is tallied once by its signature (descents, the
    labels m with an edge m -> 1, the labels reachable from 1, whether n
    reaches everything); the signatures are expanded into the tables at
    the end.  For the last label only the labels reachable from 1 still
    depend on I: they gain n's reach exactly when I meets the
    descendants of 1.  So its in-sets are walked inline, each adding 1
    to a hit or a miss counter, and the two counters are tallied once
    per (prefix, O).

    n = 6 visits 3,781,503 DAGs (1.0-1.2 s on a 2-core host) and
    therefore requires ``allow_slow=True``; n > 6 is refused.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if n > MAX_ORACLE_N:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_N}; "
            f"got n={n}")
    if n == MAX_ORACLE_N and not allow_slow:
        raise ValueError(
            "n=6 enumerates 3,781,503 DAGs and takes about a second; "
            "pass allow_slow=True to run it anyway")

    full = (1 << n) - 1
    tally: dict[tuple[int, int, int, bool], int] = {}

    def extend(desc: list[int], k: int, into_lowest: int) -> None:
        # desc[u]: reflexive descendants of label u+1 (bit b = label b+1)
        v = len(desc)
        bit = 1 << v
        below = bit - 1
        # reaches[O]: v's own bit and the descendants of every label in O
        reaches = [bit]
        for d in desc:
            reaches += [r | d for r in reaches]
        if v < n - 1:
            for out, reach in enumerate(reaches):
                k_out = k + out.bit_count()
                into_out = into_lowest | bit if out & 1 else into_lowest
                for in_set in _subsets(below & ~reach):
                    grown = [d | reach if d & in_set else d for d in desc]
                    grown.append(reach)
                    extend(grown, k_out, into_out)
            return
        # Last label: only vertex 1's final reach varies with I, so each
        # in-set either hits vertex 1's descendants or misses them.
        lowest = desc[0] if desc else bit
        for out, reach in enumerate(reaches):
            free = below & ~reach
            hits, misses = 0, 1  # the empty in-set misses
            in_set = free
            while in_set:
                if in_set & lowest:
                    hits += 1
                else:
                    misses += 1
                in_set = (in_set - 1) & free
            k_out = k + out.bit_count()
            into_out = into_lowest | bit if out & 1 else into_lowest
            spans_high = reach == full
            key = (k_out, into_out, lowest, spans_high)
            tally[key] = tally.get(key, 0) + misses
            if hits:
                key = (k_out, into_out, lowest | reach, spans_high)
                tally[key] = tally.get(key, 0) + hits

    extend([], 0, 0)

    counts = OracleCounts.zeros(n)
    for (k, into_lowest, lowest, spans_high), count in tally.items():
        counts.by_descents[k] += count
        if lowest == full:
            counts.spanning_from_lowest[k] += count
        if spans_high:
            counts.spanning_from_highest[k] += count
        counts.lowest_indegree[k][into_lowest.bit_count()] += count
        for m in range(2, n + 1):
            if (into_lowest >> (m - 1)) & 1:
                counts.edge_into_lowest[k][m] += count
            if (lowest >> (m - 1)) & 1:
                counts.vertex_reachable_from_lowest[k][m] += count
    return counts


def subset_pair_histogram(n: int, j: int) -> list[int]:
    """Histogram, over all j-subsets X of {1..n}, of the number of pairs
    (x, y) with x in X, y outside X, and x < y.

    Index i of the result counts the subsets producing exactly i such
    pairs; the list has length j*(n-j) + 1.  This brute-force histogram
    is the independent check that the Gaussian binomial coefficients
    count what they are supposed to.
    """
    if n < 0 or not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    hist = [0] * (j * (n - j) + 1)
    for subset in itertools.combinations(range(1, n + 1), j):
        members = set(subset)
        pairs = sum(1 for x in subset
                    for y in range(x + 1, n + 1) if y not in members)
        hist[pairs] += 1
    return hist
