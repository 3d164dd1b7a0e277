"""Kernel references used only by tests.

``partition_count`` checks ``dagdescents.combinatorics.gaussian_coeffs``
by a different recurrence, and ``two_factorial`` checks the engine's
t(n,0).  Neither is package API: the engine runs neither.
"""
from functools import lru_cache


def two_factorial(n: int) -> int:
    """Product (2^1 - 1)(2^2 - 1) ... (2^n - 1), the q-factorial [n]_q! at q=2.

    The empty product (n = 0) is 1.  Only the tests use it, as an
    independent check: t(n,0), the descent-free DAGs in which vertex 1
    reaches every vertex, must equal two_factorial(n-1).
    """
    if n < 0:
        raise ValueError(f"two_factorial: n must be nonnegative, got {n}")
    result = 1
    for i in range(1, n + 1):
        result *= (1 << i) - 1
    return result


@lru_cache(maxsize=None)
def partition_count(total: int, num_parts: int, max_part: int) -> int:
    """Number of partitions of `total` into at most `num_parts` parts,
    each part at most `max_part`.

    Zero parts are permitted, so partition_count(0, p, m) == 1.  This is
    the classical combinatorial meaning of the Gaussian binomial
    coefficient.  Only the tests use it, as an independent check on
    gaussian_coeffs, which is computed by a different recurrence.
    """
    if total < 0:
        return 0
    if num_parts < 0 or max_part < 0:
        raise ValueError("partition_count: part bounds must be nonnegative")
    if total == 0:
        return 1
    if num_parts == 0 or max_part == 0:
        return 0
    # split on whether a part of size max_part is used
    return (partition_count(total, num_parts, max_part - 1)
            + partition_count(total - max_part, num_parts - 1, max_part))
