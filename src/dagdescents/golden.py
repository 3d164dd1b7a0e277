"""Golden fixture: known-good descent counts for n <= 8.

``GOLDEN_COUNTS[n][k]`` is the number of labeled acyclic digraphs on n
vertices with exactly k descents; each row runs k = 0..C(n,2).  The row
sums are the labeled-DAG counts, OEIS A003024.

They let ``verify``'s ``golden`` check and the tests catch engine
regressions against fixed data, not only the exhaustive enumerator,
which independently re-derives every row here up to n = 5.  Rows 6..8
are pinned three further ways: each row sums to the labeled-DAG total
(an alternating recurrence of its own), an inclusion-exclusion over
source sets reproduces every entry, and the two agree cell by cell with
the descent recurrences.  Note for anyone diffing against older copies
of this table floating around: the n=8, k=15 entry is 6328700388 — a
value ending ...820 instead fails the column-sum check by exactly 432.
"""
GOLDEN_COUNTS: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (2, 1),
    3: (8, 11, 5, 1),
    4: (64, 161, 167, 102, 39, 9, 1),
    5: (1024, 3927, 6698, 7185, 5477, 3107, 1329, 423, 96, 14, 1),
    6: (32768, 172665, 419364, 656733, 757939, 686425, 504084, 305207,
        153333, 63789, 21752, 5959, 1267, 197, 20, 1),
    7: (2097152, 14208231, 45263175, 94040848, 145990526, 181444276,
        187742937, 165596535, 126344492, 84115442, 49085984, 25134230,
        11270307, 4403313, 1486423, 428139, 103345, 20369, 3153, 360,
        27, 1),
    8: (268435456, 2234357849, 8854386165, 23016738169, 44953824619,
        70876002424, 94103501133, 108068923630, 109265863921,
        98446816132, 79697456418, 58293422939, 38657195560, 23283565343,
        12741518134, 6328700388, 2846683820, 1155387912, 421001237,
        136799627, 39294726, 9865371, 2133019, 389396, 58400, 6913, 606,
        35, 1),
}

GOLDEN_MAX_N = max(GOLDEN_COUNTS)
