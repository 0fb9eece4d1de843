"""Series construction, arithmetic and error contracts."""

import math
import re
from fractions import Fraction

import pytest

from fibpaths import _backend
from fibpaths.series import (
    BadConstantTerm,
    DivisionByZeroSeries,
    InsufficientValuation,
    OrderExceeded,
    Series,
    ZeroConstantTerm,
    one,
    poly,
    zero,
)

from helpers import ints, long_division


def test_poly_pads_to_order():
    s = poly([1, 2], 5)
    assert s.order == 5
    assert ints(s) == [1, 2, 0, 0, 0, 0]


def test_poly_drops_extra_coefficients():
    assert ints(poly([1, 2, 3, 4], 1)) == [1, 2]


def test_poly_own_degree_without_order():
    assert poly([1, 0, 7]).order == 2


def test_poly_rejects_empty():
    with pytest.raises(ValueError):
        poly([])


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/3", "3", None, 1j, True])
def test_a_coefficient_that_is_no_exact_number_raises_type_error(bad):
    with pytest.raises(TypeError, match="^a Series coefficient must be an int or a "
                                        "Fraction, got %s$" % re.escape(repr(bad))):
        Series([1, bad])
    with pytest.raises(TypeError):
        poly([bad], 3)
    s = poly([1, 1], 3)
    # a scalar operand too, on either side of every operator
    for use in (lambda: s + bad, lambda: bad + s, lambda: s - bad, lambda: bad - s,
                lambda: s * bad, lambda: bad * s, lambda: s / bad):
        with pytest.raises(TypeError):
            use()


@pytest.mark.parametrize("bad", [True, 3.0], ids=repr)
@pytest.mark.parametrize("method", ["truncate", "coefficient", "__pow__"])
def test_an_index_or_exponent_that_is_no_int_raises_type_error(method, bad):
    # 3.0 equals the order: truncate(3.0) used to return the series unchecked
    s = poly([1, 1], 3)
    with pytest.raises(TypeError, match="^a Series index or exponent must be an int, "
                                        "got %r$" % bad):
        getattr(s, method)(bad)


def test_coefficient_and_range():
    s = poly([3, 0, 5], 4)
    assert s.coefficient(2) == 5
    assert s.coefficient(4) == 0
    with pytest.raises(OrderExceeded):
        s.coefficient(5)
    with pytest.raises(OrderExceeded):
        s.coefficient(-1)


def test_valuation():
    assert poly([0, 0, 7], 5).valuation() == 2
    assert poly([1], 3).valuation() == 0
    assert zero(6).valuation() == math.inf


def test_truncate():
    s = poly([1, 2, 3], 5)
    assert s.truncate(2).order == 2
    assert ints(s.truncate(2)) == [1, 2, 3]
    with pytest.raises(OrderExceeded):
        s.truncate(6)


def test_add_sub_truncate_to_min_order():
    a = poly([1, 1, 1], 5)
    b = poly([1, 2], 3)
    assert (a + b).order == 3
    assert ints(a + b) == [2, 3, 1, 0]
    assert ints(a - b) == [0, -1, 1, 0]


def test_scalar_mixing():
    h = poly([0, 1], 4)
    assert ints(1 - h) == [1, -1, 0, 0, 0]
    assert ints(h + 2) == [2, 1, 0, 0, 0]
    assert ints(3 * h) == [0, 3, 0, 0, 0]
    assert ints(h / 2 * 4) == [0, 2, 0, 0, 0]


def test_mul_polynomials():
    a = poly([1, 1], 6)
    b = poly([1, -1], 6)
    assert ints(a * b) == [1, 0, -1, 0, 0, 0, 0]


def test_mul_identity():
    s = poly([2, -3, 5, 7], 6)
    assert s * one(6) == s


def test_mul_reexpands_inverse():
    # expand x/(1-x-x^2) and multiply back: only the x term survives
    den = poly([1, -1, -1], 12)
    f = poly([0, 1], 12) / den
    assert ints(f) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert f * den == poly([0, 1], 12)


def test_pow():
    s = poly([1, 1], 6)
    assert ints(s**2) == [1, 2, 1, 0, 0, 0, 0]
    assert s**0 == one(6)
    assert ints(poly([1, -1], 5) ** 3) == [1, -3, 3, -1, 0, 0]


def test_inverse_geometric():
    assert ints(poly([1, -1], 8).inverse()) == [1] * 9


def test_inverse_against_long_division_oracle():
    # oracle: schoolbook long division of 1 by the cubic below
    p = [1, -4, 1, 2]
    expected = long_division([1], p, 8)
    assert expected == [1, 4, 15, 54, 193, 688, 2451, 8730]
    assert poly(p, 7).inverse().coefficients() == tuple(expected)


def test_inverse_rational_coefficients():
    p = [Fraction(2), Fraction(1, 3), Fraction(-5, 7)]
    got = poly(p, 9).inverse()
    assert got.coefficients() == tuple(long_division([1], p, 10))


def test_inverse_hands_the_kernel_ints_exactly_for_a_unit_integral_series(monkeypatch):
    seen = []
    real = _backend.kernels.inv

    def recording(a, m):
        seen.extend(type(c) for c in a)
        return real(a, m)

    monkeypatch.setattr(_backend.kernels, "inv", recording)
    for coeffs, order, on_ints in [
        ([1, 2, 3], 6, True),
        ([-1, 0, 5], 6, True),
        ([1, 2, Fraction(1, 3)], 1, True),  # the rational is past the kept order
        ([1, 2, Fraction(1, 3)], 2, False),
        ([2, 1], 4, False),
        ([-2, 1], 4, False),
        ([Fraction(1, 2), 1], 4, False),
    ]:
        seen.clear()
        got = poly(coeffs, order).inverse()
        assert set(seen) == ({int} if on_ints else {Fraction}), (coeffs, order)
        assert got.coefficients() == tuple(long_division([1], coeffs[: order + 1], order + 1))
        assert all(type(c) is Fraction for c in got.coefficients())


def test_inverse_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        poly([0, 1], 4).inverse()


def test_div_cancels_valuation():
    q = poly([0, 0, 1], 6) / poly([0, 1], 6)
    assert q.order == 5
    assert ints(q) == [0, 1, 0, 0, 0, 0]


def test_div_self_is_one():
    f = poly([0, 0, 3, -1, 7], 9)
    assert (f / f) == one(7)


def test_div_matches_long_division():
    num = [0, 0, 2, -1]
    den = [0, 1, 1]
    got = poly(num, 8) / poly(den, 8)
    assert got.order == 7
    # one factor of z cancels; long-divide what remains
    assert got.coefficients() == tuple(long_division([0, 2, -1], [1, 1], 8))


# (numerator, divisor, order): the quotient runs on ints exactly when the
# divisor, its valuation cancelled, starts with 1 or -1 and both slices the
# kernels see are integral
QUOTIENTS = [
    ([3, -1, 4, 1, -5], [1, -2, -1], 9, True),
    ([2, 7], [-1, 3, 0, 5], 9, True),
    ([0, 0, 5, -2], [0, 1, 4], 8, True),
    ([0, 1, Fraction(1, 3)], [0, -1, 2], 8, False),  # rational numerator
    ([1, 2, 3], [1, Fraction(1, 2)], 8, False),  # rational divisor
    ([1, 2, 3], [2, 1], 8, False),  # constant term 2
    ([1, 2, 3], [-2, 1], 8, False),
    ([0, 1], [0, 2, 1], 8, False),  # leading coefficient 2 after cancelling z
]


@pytest.mark.parametrize("num, den, order, on_ints", QUOTIENTS)
def test_division_hands_the_kernels_ints_exactly_for_a_unit_integer_divisor(
    monkeypatch, num, den, order, on_ints
):
    seen = []
    for name in ("mul", "inv"):
        real = getattr(_backend.kernels, name)

        def recording(*args, _real=real):
            seen.extend(type(c) for arg in args[:-1] for c in arg)
            return _real(*args)

        monkeypatch.setattr(_backend.kernels, name, recording)
    got = poly(num, order) / poly(den, order)
    assert seen
    assert set(seen) == ({int} if on_ints else {Fraction})
    v = next(i for i, c in enumerate(den) if c)
    assert got.order == order - v
    assert got.coefficients() == tuple(long_division(num[v:], den[v:], order - v + 1))
    assert all(type(c) is Fraction for c in got.coefficients())


def test_division_ignores_coefficients_past_the_quotient(monkeypatch):
    # the numerator's rational z^8 lies past the order-5 divisor, so the
    # kernels never see it and the quotient still runs on ints
    seen = []
    real = _backend.kernels.mul

    def recording(a, b, m):
        seen.extend(type(c) for c in a + b)
        return real(a, b, m)

    monkeypatch.setattr(_backend.kernels, "mul", recording)
    got = Series([1, 2, 0, 0, 0, 0, 0, 0, Fraction(1, 2)]) / poly([1, -1], 5)
    assert set(seen) == {int}
    assert ints(got) == [1, 3, 3, 3, 3, 3]


def test_div_errors():
    a = poly([0, 1], 5)
    with pytest.raises(DivisionByZeroSeries):
        a / zero(5)
    with pytest.raises(InsufficientValuation):
        a / poly([0, 0, 1], 5)


def test_sqrt_one():
    assert poly([1], 6).sqrt() == one(6)


def test_sqrt_frozen_expansions():
    # oracle: square the result back (exercised in test_square_back too)
    assert ints(poly([1, -4], 6).sqrt()) == [1, -2, -2, -4, -10, -28, -84]
    got = poly([1, -2, -3], 5).sqrt()
    assert ints(got) == [1, -1, -2, -2, -4, -8]


def test_sqrt_square_back():
    a = poly([1, -2, -3, 0, 5], 12)
    r = a.sqrt()
    assert r * r == a


def test_sqrt_bad_constant_term():
    with pytest.raises(BadConstantTerm):
        poly([2, 1], 4).sqrt()
    with pytest.raises(BadConstantTerm):
        poly([0, 1], 4).sqrt()


def test_series_of_different_orders_are_unequal():
    assert Series([1, 2]) != Series([1, 2, 3])
    assert poly([1, 2], 2) != poly([1, 2, 0, 9], 3)
    assert poly([1, 2], 3) == poly([1, 2, 0, 0], 3)
    assert poly([1, 2], 5) != poly([1, 3], 5)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: poly([1, 1], 3) ** -1, TypeError),
        (lambda: poly([1, 1], 3) / 0, ZeroDivisionError),
        (lambda: Series([0, 0]) / poly([0, 0, 0, 1], 5), OrderExceeded),
    ],
    ids=["negative-power", "scalar-zero-divisor", "no-quotient-coefficient-left"],
)
def test_an_operation_without_a_result_raises(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    "got, expected",
    [
        (lambda: poly([1, 1], 3) == 1, False),
        (lambda: poly([2, 1], 2) * Fraction(1, 2), Series([1, Fraction(1, 2), 0])),
        # past eight coefficients the display ends with ", ...], order=N)"
        (lambda: repr(one(11)), "Series([1, 0, 0, 0, 0, 0, 0, 0, ...], order=11)"),
    ],
    ids=["equal-to-an-int", "fraction-scalar", "long-repr"],
)
def test_a_non_series_operand_and_a_long_repr(got, expected):
    assert got() == expected


def test_repr_smoke():
    assert "order=4" in repr(poly([1, 2], 4))
