"""Pure-Python series kernels.

Each function takes coefficient sequences (index = exponent, entries Fraction)
and the number ``m`` of output coefficients, and returns a list of exactly
``m`` Fractions.  Preconditions (nonzero or unit constant term) are the
caller's job; see fibpaths.series.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def mul(a, b, m):
    """First m coefficients of the Cauchy product a*b."""
    out = [_ZERO] * m
    la, lb = len(a), len(b)
    for i in range(min(la, m)):
        ai = a[i]
        if not ai:
            continue
        for j in range(min(lb, m - i)):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def inv(a, m):
    """First m coefficients of the reciprocal of a; requires a[0] != 0.

    b_0 = 1/a_0 and b_n = -(sum_{i=1..n} a_i b_{n-i}) / a_0.
    """
    la = len(a)
    inv0 = 1 / a[0]
    b = [inv0]
    for n in range(1, m):
        acc = _ZERO
        for i in range(1, min(n, la - 1) + 1):
            ai = a[i]
            if ai:
                acc += ai * b[n - i]
        b.append(-acc * inv0)
    return b


def sqrt(a, m):
    """First m coefficients of the square root of a; requires a[0] == 1.

    Branch with constant term +1: b_0 = 1 and
    b_n = (a_n - sum_{i=1..n-1} b_i b_{n-i}) / 2, the sum folded by symmetry.
    """
    la = len(a)
    half = Fraction(1, 2)
    b = [Fraction(1)]
    for n in range(1, m):
        acc = a[n] if n < la else _ZERO
        for i in range(1, (n - 1) // 2 + 1):
            acc -= 2 * b[i] * b[n - i]
        if n % 2 == 0:
            acc -= b[n // 2] * b[n // 2]
        b.append(acc * half)
    return b
