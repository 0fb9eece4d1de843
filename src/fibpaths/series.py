"""Truncated formal power series with exact rational coefficients.

A Series stores the coefficients of z^0 .. z^order as Fractions, built
from ints or Fractions only (a bool, a float or a string raises TypeError,
as a scalar operand too; an index or exponent must be an int).  All
arithmetic is exact; binary operations truncate to the smaller operand
order (`Series._coefficientwise` states the rule for `+` and `-`), so every
retained coefficient of a result is the true coefficient of the
corresponding formal operation.  A reciprocal or a quotient may run
its kernels on ints; `_unit_integral` states when.  Division cancels the
common power of z first (the quotient must again be a power series, never
a Laurent series) and therefore returns a series of order reduced by the
divisor's valuation.

Equality compares the order and every coefficient: series of different
orders are unequal even where their shared coefficients agree (compare
`a.truncate(m) == b.truncate(m)` for that).  Series are unhashable.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._backend import kernels
from ._checks import check_size

__all__ = [
    "BadConstantTerm",
    "DivisionByZeroSeries",
    "InsufficientValuation",
    "OrderExceeded",
    "Series",
    "SeriesError",
    "ZeroConstantTerm",
    "one",
    "poly",
    "zero",
]


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


def _scalar(x):
    """The number rule of a Series, for coefficients and scalars alike: `x`
    as a Fraction when it is an int (not a bool) or a Fraction, else None.
    On None the operators return NotImplemented, so Python asks `x`'s own
    reflected operator."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return None


def _exact(c):
    """A coefficient by `_scalar`'s rule; TypeError when it is no number."""
    s = _scalar(c)
    if s is None:
        raise TypeError("a Series coefficient must be an int or a Fraction, got %r" % (c,))
    return s


def _index(n):
    """An index, order or exponent of a Series is an int, not a bool."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError("a Series index or exponent must be an int, got %r" % (n,))
    return n


def _unit_integral(unit, *others):
    """The operands of a reciprocal (`unit`) or a quotient (divisor `unit`,
    then the dividend) as the kernels get them.  The reciprocal of an
    integer series with constant term 1 or -1 is an integer series, and so
    is the quotient of an integer series by one: then the kernels run on the
    numerators as int lists, and the constructor converts their result to
    Fractions once.  Otherwise the operands come back unchanged, and the
    kernels run on the stored Fractions, as every product does."""
    lists = (unit,) + others
    if unit[0] in (1, -1) and all(c.denominator == 1 for cs in lists for c in cs):
        return [[c.numerator for c in cs] for cs in lists]
    return lists


class Series:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        cs = tuple(c if isinstance(c, Fraction) else _exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a Series needs at least its constant coefficient")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of z^n; OrderExceeded outside 0..order."""
        if _index(n) < 0 or n > self.order:
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

    def truncate(self, order: int) -> "Series":
        """Drop coefficients beyond the given order (never extends)."""
        if _index(order) < 0 or order > self.order:
            raise OrderExceeded(
                "cannot truncate order-%d series to order %d" % (self.order, order)
            )
        if order == self.order:
            return self
        return Series(self._coeffs[: order + 1])

    # -- ring operations ----------------------------------------------------

    def _coefficientwise(self, op, other):
        """`op` (`operator.add` or `operator.sub`) coefficient by coefficient
        for a Series operand: `map` stops at the shorter one, so the result
        has the smaller order.  A scalar acts on the constant term alone."""
        if isinstance(other, Series):
            return Series(map(op, self._coeffs, other._coeffs))
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return Series((op(self._coeffs[0], s),) + self._coeffs[1:])

    def __add__(self, other):
        return self._coefficientwise(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self._coeffs])

    def __sub__(self, other):
        return self._coefficientwise(operator.sub, other)

    def __rsub__(self, other):
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return Series((s - self._coeffs[0],) + tuple(-c for c in self._coeffs[1:]))

    def __mul__(self, other):
        if isinstance(other, Series):
            m = min(len(self._coeffs), len(other._coeffs))
            return Series(kernels.mul(self._coeffs, other._coeffs, m))
        s = _scalar(other)
        if s is None:
            return NotImplemented
        return Series([s * c for c in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if _index(n) < 0:
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
        """Reciprocal; requires a nonzero constant term.  `_unit_integral`
        says when it runs on ints."""
        if not self._coeffs[0]:
            raise ZeroConstantTerm("cannot invert a series with constant term 0")
        (cs,) = _unit_integral(self._coeffs)
        return Series(kernels.inv(cs, len(cs)))

    def __truediv__(self, other):
        """Exact quotient.  For series operands the divisor's valuation v is
        cancelled first, so the result has order min(order_a, order_b) - v.
        `_unit_integral` says when it runs on ints.
        """
        if not isinstance(other, Series):
            s = _scalar(other)
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
        den, num = _unit_integral(other._coeffs[v : v + m], self._coeffs[v : v + m])
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
        return self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:8])
        if len(self._coeffs) > 8:
            head += ", ..."
        return "Series([%s], order=%d)" % (head, self.order)


def _pad(s: Series, order: int) -> Series:
    """`s` extended by zero coefficients through z^order."""
    return s if s.order >= order else poly(s.coefficients(), order)


def poly(coeffs, order: int) -> Series:
    """Series with the given leading coefficients, zero-padded to `order`, a
    size (see `_checks.check_size`); coefficients beyond it are dropped.  The
    polynomial at its own degree is `Series(coeffs)`."""
    cs = Series(coeffs).coefficients()[: check_size("order", order) + 1]
    return Series(cs + (0,) * (order + 1 - len(cs)))


def zero(order: int) -> Series:
    return poly([0], order)


def one(order: int) -> Series:
    return poly([1], order)
