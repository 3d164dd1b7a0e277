"""Per-graph reference for the exhaustive enumerator, used only by tests.

``Dag`` holds one labeled digraph and ``stats`` reads the statistics the
enumerator tallies straight off its edge set, one graph at a time.  The
tests build every edge mask for small n, keep the acyclic ones, and
compare the sums with ``dagdescents.oracle.enumerate_counts``.  The two
share no counting logic.

A ``Dag`` encodes an edge set as a bitmask over the n*(n-1) ordered
pairs (x, y) with x != y, taken in lexicographic order:

    (1,2), (1,3), ..., (1,n), (2,1), (2,3), ..., (n,n-1)

Bit p of the mask is set iff the p-th pair in that order is an edge.
``Dag`` masks rely on this order, so it must never change.
"""
from collections import namedtuple
from functools import lru_cache


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
