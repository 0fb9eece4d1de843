"""k-Fibonacci numbers and their convolutions.

F_{k,0} = 0, F_{k,1} = 1, F_{k,n+1} = k F_{k,n} + F_{k,n-1}; k=1 gives the
Fibonacci numbers, k=2 the Pell numbers.  The r-fold convolved numbers
F^(r)_{k,j+1} are the coefficients of (1 - k x - x^2)^(-r).  The formula
method reads them from a binomial closed form; nested convolution sums give
them a second way, which the test suite plays against the first and against
the series expansion.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from ._checks import check_k, check_size

__all__ = [
    "binom",
    "catalan",
    "convolved_binomial",
    "convolved_sum",
    "kfib",
]


def kfib(k: int, n: int) -> int:
    """The k-Fibonacci number F_{k,n}."""
    check_k(k)
    check_size("n", n)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, k * b + a
    return a


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
