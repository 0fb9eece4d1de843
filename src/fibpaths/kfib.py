"""k-Fibonacci numbers and their convolutions.

F_{k,0} = 0, F_{k,1} = 1, F_{k,n+1} = k F_{k,n} + F_{k,n-1}; k=1 gives the
Fibonacci numbers, k=2 the Pell numbers.  The r-fold convolved numbers are
the coefficients of (1 - k x - x^2)^(-r) and can be computed three
independent ways (series expansion, nested convolution sums, a binomial
closed form), which the test suite plays against each other.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

from ._checks import check_k, check_size
from .series import Series, one, poly

__all__ = [
    "IndexMismatch",
    "binom",
    "catalan",
    "check_k",
    "convolved_binomial",
    "convolved_gf",
    "convolved_sum",
    "kfib",
    "multinom",
]


class IndexMismatch(ValueError):
    """Multinomial parts that do not sum to the top index."""


def kfib(k: int, n: int) -> int:
    """The k-Fibonacci number F_{k,n}."""
    check_k(k)
    check_size("n", n)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, k * b + a
    return a


def convolved_gf(k: int, r: int, order: int) -> Series:
    """(1 - k x - x^2)^(-r) as a series; its coefficient of x^j is the
    r-fold convolved number F^(r)_{k,j+1}.  r = 0 gives the series 1."""
    check_k(k)
    check_size("r", r)
    check_size("order", order)
    if r == 0:
        return one(order)
    return poly([1, -k, -1], order).inverse() ** r


# typed: True or 2.0 must not hit the entry cached for 1 or 2 and skip the checks
@lru_cache(maxsize=None, typed=True)
def convolved_sum(k: int, m: int, r: int) -> int:
    """F^(r)_{k,m+1} as the sum over weak compositions m_1+...+m_r = m of
    prod_i F_{k,m_i+1}, evaluated by peeling off the first part."""
    check_k(k)
    check_size("m", m)
    check_size("r", r)
    if r == 0:
        return 1 if m == 0 else 0
    if r == 1:
        return kfib(k, m + 1)
    return sum(
        kfib(k, j + 1) * convolved_sum(k, m - j, r - 1) for j in range(m + 1)
    )


@lru_cache(maxsize=None, typed=True)
def convolved_binomial(k: int, j: int, r: int) -> int:
    """Binomial closed form for F^(r)_{k,j+1}:
    sum_{l=0}^{floor(j/2)} C(j+r-l-1, j-l) C(j-l, l) k^(j-2l)."""
    check_k(k)
    check_size("j", j)
    check_size("r", r)
    if r == 0:
        return 1 if j == 0 else 0
    return sum(
        comb(j + r - l - 1, j - l) * comb(j - l, l) * k ** (j - 2 * l)
        for l in range(j // 2 + 1)
    )


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def binom(n: int, j: int) -> int:
    """C(n, j), zero outside 0 <= j <= n."""
    if j < 0 or j > n:
        return 0
    return comb(n, j)


def multinom(n: int, parts) -> int:
    """Multinomial coefficient n! / prod(p!); parts must sum to n."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise IndexMismatch(
            "parts %r do not form a weak composition of %d" % (parts, n)
        )
    return factorial(n) // prod(factorial(p) for p in parts)
