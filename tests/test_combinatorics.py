import math

import pytest
from hypothesis import given, strategies as st

from kernel_reference import partition_count, two_factorial
from dagdescents.combinatorics import (
    binomial,
    gaussian_coefficient,
    gaussian_coeffs,
    pow2,
)


def test_binomial_basics():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pow2():
    assert pow2(0) == 1
    assert pow2(6) == 64
    assert pow2(28) == 268435456
    with pytest.raises(ValueError):
        pow2(-1)


def test_two_factorial_values():
    assert two_factorial(0) == 1
    assert two_factorial(2) == 3
    assert two_factorial(3) == 21
    with pytest.raises(ValueError):
        two_factorial(-2)


@given(st.integers(min_value=1, max_value=40))
def test_two_factorial_product_step(n):
    assert two_factorial(n) == two_factorial(n - 1) * (2**n - 1)


def test_gaussian_coeffs_small_cases():
    assert gaussian_coeffs(2, 1) == (1, 1)
    assert gaussian_coeffs(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_coeffs(3, 0) == (1,)


def test_gaussian_coeffs_out_of_range_j():
    assert gaussian_coeffs(3, -1) == ()
    assert gaussian_coeffs(3, 4) == ()
    with pytest.raises(ValueError):
        gaussian_coeffs(-1, 0)


@given(st.integers(0, 12), st.integers(0, 12))
def test_gaussian_coeffs_length(n, j):
    coeffs = gaussian_coeffs(n, j)
    if j <= n:
        assert len(coeffs) == j * (n - j) + 1
    else:
        assert coeffs == ()


def test_gaussian_coeffs_deep_n_on_a_cold_cache():
    # a recursion one frame deep per n raised RecursionError near n = 500
    gaussian_coeffs.cache_clear()
    # (600 choose 2)_q counts the partitions of i into at most 2 parts,
    # each at most 598: the smaller part runs from max(0, i - 598) to i // 2
    partitions = tuple(i // 2 - max(0, i - 598) + 1 for i in range(1197))
    assert gaussian_coeffs(600, 2) == partitions
    assert gaussian_coeffs(600, 598) == partitions
    assert partitions[:40] == tuple(partition_count(i, 598, 2)
                                    for i in range(40))


def test_gaussian_coefficient_extraction():
    assert gaussian_coefficient(2, 1, 1) == 1
    assert gaussian_coefficient(4, 2, 2) == 2
    assert gaussian_coefficient(5, 2, -1) == 0
    assert gaussian_coefficient(5, 2, 7) == 0  # beyond degree j(n-j)=6
    assert gaussian_coefficient(5, 9, 0) == 0


@given(st.integers(0, 12), st.integers(0, 12), st.integers(-3, 150))
def test_gaussian_symmetry(n, j, i):
    if j > n:
        return
    assert gaussian_coefficient(n, j, i) == \
        gaussian_coefficient(n, j, j * (n - j) - i)


@given(st.integers(0, 12), st.integers(0, 12))
def test_gaussian_sum_is_binomial(n, j):
    assert sum(gaussian_coeffs(n, j)) == (binomial(n, j) if j <= n else 0)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 40))
def test_gaussian_matches_partition_count(n, j, i):
    if j > n:
        return
    assert gaussian_coefficient(n, j, i) == partition_count(i, n - j, j)


def test_partition_count_examples():
    assert partition_count(0, 3, 2) == 1
    assert partition_count(2, 2, 2) == 2
    assert partition_count(7, 2, 3) == 0  # exceeds capacity 2*3
    assert partition_count(-4, 2, 3) == 0


def test_partition_count_rejects_negative_bounds():
    with pytest.raises(ValueError):
        partition_count(3, -1, 2)
    with pytest.raises(ValueError):
        partition_count(3, 2, -1)


@given(st.integers(0, 9), st.integers(0, 9))
def test_gaussian_row_palindrome(n, j):
    coeffs = gaussian_coeffs(n, j)
    assert coeffs == coeffs[::-1]


def test_binomial_matches_math_comb_inside_range():
    for n in range(12):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)
