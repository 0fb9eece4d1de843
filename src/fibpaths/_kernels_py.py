"""Pure-Python series kernels.

Each function takes coefficient sequences (index = exponent) and the number
``m`` of output coefficients, and returns a list of exactly ``m``
coefficients.  Preconditions (nonzero or unit constant term) are the
caller's job; see fibpaths.series.

``mul`` and ``inv`` keep the number type they are given, and never convert
it.  ``mul`` of two int lists returns ints; ``inv`` of an int list with
constant term 1 or -1 returns ints, and exact Fractions for any other
constant term; Fraction input gives Fraction output.  ``sqrt`` computes on
Fractions.

``Series`` stores Fractions, and ``series._unit_integral`` decides when its
reciprocals and quotients hand these kernels ints instead.  ``families._cf``
and ``automata._eliminate`` call them on their own coefficient lists, ints
for integer series.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def mul(a, b, m):
    """First m coefficients of the Cauchy product a*b: ints when both
    operands are lists of ints, else Fractions."""
    ints = all(type(c) is int for c in a) and all(type(c) is int for c in b)
    out = [0 if ints else _ZERO] * m
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

    b_0 = 1/a_0 and b_n = -(sum_{i=1..n} a_i b_{n-i}) / a_0.  When a_0 is
    1 or -1, 1/a_0 = a_0 and the recurrence runs on the numbers it is given
    (the module docstring says who passes ints).  Otherwise it runs
    on Fractions, 1/a_0 included, so ints with another a_0 get Fractions.
    """
    a0 = a[0]
    inv0 = a0 if a0 == 1 or a0 == -1 else Fraction(1) / a0
    la = len(a)
    b = [inv0] if m > 0 else []
    for n in range(1, m):
        acc = 0
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
    b = [Fraction(1)] if m > 0 else []
    for n in range(1, m):
        acc = a[n] if n < la else _ZERO
        for i in range(1, (n - 1) // 2 + 1):
            acc -= 2 * b[i] * b[n - i]
        if n % 2 == 0:
            acc -= b[n // 2] * b[n // 2]
        b.append(acc * half)
    return b
