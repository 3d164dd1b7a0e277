"""Exact integer primitives: binomials, powers of two, Gaussian binomial
coefficients, and the q=2 factorial.

Everything here returns plain Python ints, so all arithmetic is exact at
any size.  Out-of-range index arguments follow the usual combinatorial
conventions (result 0) because the summation domains upstream legitimately
touch boundary values.
"""
from __future__ import annotations

import math
from functools import lru_cache


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 when k < 0 or k > n.  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def pow2(e: int) -> int:
    """Exact 2**e for e >= 0."""
    if e < 0:
        raise ValueError(f"pow2: exponent must be nonnegative, got {e}")
    return 1 << e


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
def gaussian_coeffs(n: int, j: int) -> tuple[int, ...]:
    """Coefficient list of the Gaussian binomial polynomial (n choose j)_q.

    Entry i is the coefficient of q^i; the tuple has length j*(n-j) + 1
    for 0 <= j <= n.  Out-of-range j yields the empty tuple (the zero
    polynomial).  Computed by the product form

        (n choose j)_q = prod_{i=1..j} (1 - q^(n-j+i)) / (1 - q^i)

    on power series truncated after q^(j(n-j)), the result's degree, so
    every step is exact: a factor 1 - q^a is one strided subtraction and
    a division by 1 - q^i one strided running sum.  No recursion, so
    any n works.
    """
    if n < 0:
        raise ValueError(f"gaussian_coeffs: n must be nonnegative, got {n}")
    if j < 0 or j > n:
        return ()
    j = min(j, n - j)  # the same polynomial, fewer steps
    coeffs = [1] + [0] * (j * (n - j))
    for i in range(1, j + 1):
        a = n - j + i
        for k in range(len(coeffs) - 1, a - 1, -1):
            coeffs[k] -= coeffs[k - a]
        for k in range(i, len(coeffs)):
            coeffs[k] += coeffs[k - i]
    return tuple(coeffs)


def gaussian_coefficient(n: int, j: int, i: int) -> int:
    """Coefficient of q^i in (n choose j)_q; 0 for any out-of-range index."""
    coeffs = gaussian_coeffs(n, j)
    if i < 0 or i >= len(coeffs):
        return 0
    return coeffs[i]


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
