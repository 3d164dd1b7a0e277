"""Exhaustive ground-truth enumeration of labeled DAGs.

This is the brute-force side of the differential test setup: build every
acyclic digraph on n vertices, one at a time, and count the engine's six
families, d, t, u, A, B and Cw, by descents.  The two implementations
share no counting logic, so exact agreement on small n is strong
evidence for both.  The tests hold a third, per-graph reference that
reads each statistic off one edge set at a time.

Vertices carry labels 1..n.  An edge x -> y with x > y is a descent.
``enumerate_counts`` adds the labels in increasing order, so the edges
from each new label to lower ones are exactly its descents, and it only
offers in-edges that cannot close a cycle.  A table of the new label's
reach per out-set is built once per prefix, and the last label's
in-sets are walked in a tight loop that only asks whether each one
meets vertex 1's descendants.

Each finished DAG is tallied under one int signature.  With bit b
standing for label b+1, its fields are, from the lowest bit up:

    bits 0 .. n-1      the labels reachable from 1
    bit  n             whether n reaches every label
    bits n+1 .. 2n     the labels m with an edge m -> 1
    bits 2n+1 and up   the number of descents k

Enumeration cost is one step per DAG: n=5 has 29,281 DAGs (6-10 ms) and
n=6 has 3,781,503 (median 0.65 s, quartiles 0.58-1.01 s over 24 runs),
measured in fresh processes on a 2-core host with Python 3.11.  Larger
n is refused: n=7 has 1,138,779,265 DAGs, about 300 times as many.
"""
import itertools
from collections import namedtuple

MAX_ORACLE_N = 6


class OracleCounts(namedtuple("OracleCounts",
                              ("n", "d", "t", "u", "A", "B", "Cw"))):
    """Exhaustive counts for one vertex count n: one row per family of
    the engine, each indexed by descent count k = 0..C(n,2).  Over the
    acyclic digraphs with k descents:

    - ``d[k]`` counts them;
    - ``t[k]`` counts those where every vertex is reachable from 1;
    - ``u[k]`` counts those where every vertex is reachable from n;
    - ``A[k]`` sums their edges m -> 1;
    - ``B[k]`` sums their vertices m >= 2 reachable from 1;
    - ``Cw[k]`` sums j - 1 over those with j >= 2 edges into 1.

    Counts over disjoint sets of graphs merge by ``+``.
    """

    __slots__ = ()

    @classmethod
    def zeros(cls, n: int) -> "OracleCounts":
        size = n * (n - 1) // 2 + 1
        return cls(n, *([0] * size for _ in cls._fields[1:]))

    @property
    def by_descents(self) -> list[int]:
        """The ``d`` row; perfbench's traced oracle probe reads it."""
        return self.d

    def __add__(self, other: "OracleCounts") -> "OracleCounts":
        if not isinstance(other, OracleCounts):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot merge counts for different n")
        return OracleCounts(self.n, *(
            [x + y for x, y in zip(mine, theirs)]
            for mine, theirs in zip(self[1:], other[1:])))


def enumerate_counts(n: int) -> OracleCounts:
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

    Each finished DAG is tallied once by its int signature (module
    docstring).  A prefix carries the descent and edge-into-1 fields of
    its signature, and ``steps[v][O]`` adds O's share (|O| descents, and
    v's bit if 1 is in O), built once per n.  For the last label only
    the labels reachable from 1 still depend on I: they gain n's reach
    exactly when I meets the descendants of 1.  So its in-sets are
    walked inline, each adding 1 to a hit or a miss counter, and the two
    counters are tallied once per (prefix, O).  At the end each
    signature adds its count to the six rows, A and Cw by the size of
    its into-1 field and B by the size of its reach-of-1 field.

    n = 6 visits 3,781,503 DAGs (module docstring); n > 6 is refused.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if n > MAX_ORACLE_N:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ORACLE_N}; "
            f"got n={n}")

    full = (1 << n) - 1
    into_shift = n + 1
    k_shift = 2 * n + 1
    steps = [[out.bit_count() << k_shift | (out & 1) << (into_shift + v)
              for out in range(1 << v)] for v in range(n)]
    tally: dict[int, int] = {}

    def extend(desc: list[int], signature: int) -> None:
        # desc[u]: reflexive descendants of label u+1 (bit b = label b+1)
        v = len(desc)
        bit = 1 << v
        below = bit - 1
        # reaches[O]: v's own bit and the descendants of every label in O
        reaches = [bit]
        for d in desc:
            reaches += [r | d for r in reaches]
        if v < n - 1:
            for reach, step in zip(reaches, steps[v]):
                free = below & ~reach
                in_set = free
                while True:
                    grown = [d | reach if d & in_set else d for d in desc]
                    grown.append(reach)
                    extend(grown, signature + step)
                    if not in_set:
                        break
                    in_set = (in_set - 1) & free
            return
        # Last label: only vertex 1's final reach varies with I, so each
        # in-set either hits vertex 1's descendants or misses them.
        lowest = desc[0] if desc else bit
        spans_high = 1 << n
        for reach, step in zip(reaches, steps[v]):
            free = below & ~reach
            hits, misses = 0, 1  # the empty in-set misses
            in_set = free
            while in_set:
                if in_set & lowest:
                    hits += 1
                else:
                    misses += 1
                in_set = (in_set - 1) & free
            key = signature + step + lowest
            if reach == full:
                key += spans_high
            tally[key] = tally.get(key, 0) + misses
            if hits:
                key |= reach
                tally[key] = tally.get(key, 0) + hits

    extend([], 0)

    counts = OracleCounts.zeros(n)
    for key, count in tally.items():
        k = key >> k_shift
        into = (key >> into_shift & full).bit_count()
        lowest = key & full
        counts.d[k] += count
        if lowest == full:
            counts.t[k] += count
        if key >> n & 1:
            counts.u[k] += count
        counts.A[k] += into * count
        counts.B[k] += (lowest.bit_count() - 1) * count
        if into > 1:
            counts.Cw[k] += (into - 1) * count
    return counts


def subset_pair_histogram(n: int, j: int) -> list[int]:
    """Histogram, over all j-subsets X of {1..n}, of the number of pairs
    (x, y) with x in X, y outside X, and x < y.

    Index i of the result counts the subsets producing exactly i such
    pairs; the list has length j*(n-j) + 1.  Each x in X has n - x labels
    above it, and C(j,2) of those pairs stay inside X, so X has
    j*n - sum(X) - C(j,2) such pairs.  This brute-force histogram is the
    independent check that the Gaussian binomial coefficients count what
    they are supposed to.
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got n={n}, j={j}")
    hist = [0] * (j * (n - j) + 1)
    most = j * n - j * (j - 1) // 2
    for total in map(sum, itertools.combinations(range(1, n + 1), j)):
        hist[most - total] += 1
    return hist
