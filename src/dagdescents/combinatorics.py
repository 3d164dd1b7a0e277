"""Exact integer primitives the engine runs: binomials, powers of two and
Gaussian binomial coefficients.

Everything here returns plain Python ints, so all arithmetic is exact at
any size.  Out-of-range index arguments follow the usual combinatorial
conventions (result 0) because the summation domains upstream legitimately
touch boundary values.
"""
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
