"""Truncated formal power series with exact rational coefficients.

A Series stores the coefficients of z^0 .. z^order as Fractions.  All
arithmetic is exact; binary operations truncate to the smaller operand
order, so every retained coefficient of a result is the true coefficient
of the corresponding formal operation.  Division cancels the common power
of z first (the quotient must again be a power series, never a Laurent
series) and therefore returns a series of order reduced by the divisor's
valuation.

Equality compares coefficientwise over the shared range, i.e. through
min(order_a, order_b); two series that agree there are "equal as far as
they are comparable".  Series are consequently unhashable.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from ._backend import kernels

__all__ = [
    "BadConstantTerm",
    "DEFAULT_ORDER",
    "DivisionByZeroSeries",
    "InsufficientValuation",
    "OrderExceeded",
    "Series",
    "SeriesError",
    "ZeroConstantTerm",
    "default_order",
    "one",
    "poly",
    "zero",
]

DEFAULT_ORDER = 64


def default_order() -> int:
    """Default truncation order; the FIBPATH_ORDER variable overrides it."""
    raw = os.environ.get("FIBPATH_ORDER")
    if raw is None:
        return DEFAULT_ORDER
    try:
        n = int(raw)
    except ValueError:
        n = -1  # refused below, like a negative order
    if n < 0:
        raise ValueError("FIBPATH_ORDER must be a nonnegative integer, got %r" % raw)
    return n


class SeriesError(ArithmeticError):
    """Base class for series arithmetic failures."""


class ZeroConstantTerm(SeriesError):
    """Reciprocal of a series with constant term 0."""


class BadConstantTerm(SeriesError):
    """Square root of a series whose constant term is not 1."""


class DivisionByZeroSeries(SeriesError):
    """Division by a series that is zero through its whole order."""


class InsufficientValuation(SeriesError):
    """Division a/b with valuation(a) < valuation(b); the quotient would
    need negative powers of z."""


class OrderExceeded(SeriesError):
    """Coefficient index outside the stored range."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class Series:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        cs = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in coeffs
        )
        if not cs:
            raise ValueError("a Series needs at least its constant coefficient")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of z^n; OrderExceeded outside 0..order."""
        if n < 0 or n > self.order:
            raise OrderExceeded(
                "coefficient %d of a series of order %d" % (n, self.order)
            )
        return self._coeffs[n]

    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def valuation(self):
        """Index of the first nonzero coefficient; math.inf for the zero series."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return math.inf

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def is_integral(self) -> bool:
        """True iff every stored coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self._coeffs)

    def truncate(self, order: int) -> "Series":
        """Drop coefficients beyond the given order (never extends)."""
        if order < 0 or order > self.order:
            raise OrderExceeded(
                "cannot truncate order-%d series to order %d" % (self.order, order)
            )
        if order == self.order:
            return self
        return Series(self._coeffs[: order + 1])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            m = min(len(self._coeffs), len(other._coeffs))
            return Series(
                [self._coeffs[i] + other._coeffs[i] for i in range(m)]
            )
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        return Series((self._coeffs[0] + s,) + self._coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, Series):
            m = min(len(self._coeffs), len(other._coeffs))
            return Series(
                [self._coeffs[i] - other._coeffs[i] for i in range(m)]
            )
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        return Series((self._coeffs[0] - s,) + self._coeffs[1:])

    def __rsub__(self, other):
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        return Series((s - self._coeffs[0],) + tuple(-c for c in self._coeffs[1:]))

    def __mul__(self, other):
        if isinstance(other, Series):
            m = min(len(self._coeffs), len(other._coeffs))
            return Series(kernels.mul(self._coeffs, other._coeffs, m))
        s = _as_fraction(other)
        if s is None:
            return NotImplemented
        return Series([s * c for c in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Series":
        """Reciprocal; requires a nonzero constant term."""
        if not self._coeffs[0]:
            raise ZeroConstantTerm("cannot invert a series with constant term 0")
        return Series(kernels.inv(self._coeffs, len(self._coeffs)))

    def __truediv__(self, other):
        """Exact quotient.  For series operands the divisor's valuation v is
        cancelled first, so the result has order min(order_a, order_b) - v."""
        if not isinstance(other, Series):
            s = _as_fraction(other)
            if s is None:
                return NotImplemented
            if not s:
                raise ZeroDivisionError("division of a series by scalar 0")
            return Series([c / s for c in self._coeffs])
        v = other.valuation()
        if v is math.inf:
            raise DivisionByZeroSeries("division by a series that is zero throughout")
        if self.valuation() < v:
            raise InsufficientValuation(
                "quotient would be a Laurent series: valuation %s < %d"
                % (self.valuation(), v)
            )
        m = min(len(self._coeffs), len(other._coeffs)) - v
        if m <= 0:
            raise OrderExceeded("no quotient coefficients remain after cancelling z^%d" % v)
        num = self._coeffs[v : v + m]
        den = other._coeffs[v : v + m]
        return Series(kernels.mul(num, kernels.inv(den, m), m))

    def sqrt(self) -> "Series":
        """Square-root branch with constant term +1; requires a_0 == 1."""
        if self._coeffs[0] != 1:
            raise BadConstantTerm(
                "square root requires constant term 1, got %s" % (self._coeffs[0],)
            )
        return Series(kernels.sqrt(self._coeffs, len(self._coeffs)))

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        m = min(len(self._coeffs), len(other._coeffs))
        return self._coeffs[:m] == other._coeffs[:m]

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:8])
        if len(self._coeffs) > 8:
            head += ", ..."
        return "Series([%s], order=%d)" % (head, self.order)


def poly(coeffs, order: int | None = None) -> Series:
    """Series with the given leading coefficients, zero-padded to `order`.

    Without an explicit order the polynomial's own degree is used.  Extra
    coefficients beyond the requested order are dropped.
    """
    cs = list(coeffs)
    if not cs:
        raise ValueError("poly() needs at least one coefficient")
    if order is None:
        return Series(cs)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(cs) > order + 1:
        cs = cs[: order + 1]
    return Series(cs + [0] * (order + 1 - len(cs)))


def zero(order: int) -> Series:
    return poly([0], order)


def one(order: int) -> Series:
    return poly([1], order)
