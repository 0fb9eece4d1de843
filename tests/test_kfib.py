"""k-Fibonacci numbers, convolutions, and combinatorial helpers."""

import sys
from itertools import combinations
from math import prod

import pytest

from fibpaths.kfib import binom, catalan, convolved_binomial, convolved_sum, kfib
from fibpaths.series import poly

from helpers import IndexMismatch, convolved_gf, ints, multinom


def compositions_product(k, m, r):
    """Independent oracle: literally enumerate the weak compositions of m
    into r parts (stars and bars) and sum the products of F_{k,part+1}."""
    total = 0
    for bars in combinations(range(m + r - 1), r - 1):
        parts, prev = [], -1
        for b in bars + (m + r - 1,):
            parts.append(b - prev - 1)
            prev = b
        total += prod(kfib(k, p + 1) for p in parts)
    return total


def test_the_package_attribute_kfib_is_the_module():
    import fibpaths
    import fibpaths.kfib as m
    assert m is sys.modules["fibpaths.kfib"] is fibpaths.kfib


def test_kfib_fibonacci():
    assert [kfib(1, n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_kfib_pell():
    assert [kfib(2, n) for n in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]


def test_kfib_larger_k():
    assert [kfib(3, n) for n in range(6)] == [0, 1, 3, 10, 33, 109]
    assert kfib(4, 10) == 416020


def test_kfib_validation():
    with pytest.raises(ValueError):
        kfib(0, 3)
    with pytest.raises(ValueError):
        kfib(2, -1)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_kfib_rejects_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        kfib(k, 3)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kfib_matches_generating_function(k):
    gf = poly([0, 1], 40) / poly([1, -k, -1], 40)
    assert ints(gf) == [kfib(k, n) for n in range(41)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kfib_monotone(k):
    # nondecreasing from n=1, strict from n=2 (k=1 repeats 1, 1)
    values = [kfib(k, n) for n in range(61)]
    assert all(values[n + 1] >= values[n] for n in range(1, 60))
    assert all(values[n + 1] > values[n] for n in range(2, 60))


def test_convolved_gf_order_two():
    assert ints(convolved_gf(1, 2, 6)) == [1, 2, 5, 10, 20, 38, 71]


def test_convolved_gf_order_zero_is_one():
    assert ints(convolved_gf(2, 0, 5)) == [1, 0, 0, 0, 0, 0]


def test_convolved_sum_example():
    # compositions of 2 into 2 parts: (0,2), (1,1), (2,0) -> 2 + 1 + 2 = 5
    assert convolved_sum(1, 2, 2) == 5
    assert convolved_binomial(1, 2, 2) == 5


def test_convolved_sum_against_composition_oracle():
    for k in (1, 2, 3):
        for r in (1, 2, 3):
            for m in range(9):
                assert convolved_sum(k, m, r) == compositions_product(k, m, r)


def test_convolved_three_routes_agree_small():
    for k in (1, 2, 3):
        for r in range(0, 4):
            series = convolved_gf(k, r, 12)
            for j in range(13):
                expected = int(series.coefficient(j))
                assert convolved_sum(k, j, r) == expected
                assert convolved_binomial(k, j, r) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_convolved_gf_semigroup(k):
    for r in range(3):
        for s in range(3):
            lhs = convolved_gf(k, r, 20) * convolved_gf(k, s, 20)
            assert lhs == convolved_gf(k, r + s, 20)


def test_catalan():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_binom_total():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 7) == 0


def test_multinom():
    assert multinom(5, (2, 2, 1)) == 30
    assert multinom(4, (4,)) == 1
    with pytest.raises(IndexMismatch):
        multinom(5, (2, 2, 2))
    with pytest.raises(IndexMismatch):
        multinom(1, (2, -1))
