"""The series kernels against naive references, and the kernel binding the
benchmark tracer relies on."""

import random
from fractions import Fraction

import pytest

import fibpaths
from fibpaths import _backend, _kernels_py, poly

from helpers import fracs, inv_reference, long_division


def random_coeffs(rng, m, integral=False):
    if integral:
        return [Fraction(rng.randrange(-9, 10)) for _ in range(m)]
    return [
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(m)
    ]


def cauchy(a, b, m):
    """First m coefficients of a*b, zero-padding both operands."""
    a = list(a) + [Fraction(0)] * m
    b = list(b) + [Fraction(0)] * m
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(m)]


def assert_coeffs(out, m, kind=Fraction):
    assert len(out) == m
    assert all(type(c) is kind for c in out)


def test_kernels_on_random_inputs():
    rng = random.Random(20260814)
    for trial in range(300):
        m = rng.randrange(1, 20)
        a = random_coeffs(rng, m, integral=trial % 3 == 0)
        b = random_coeffs(rng, m)
        out = _kernels_py.mul(a, b, m)
        assert_coeffs(out, m)
        assert out == cauchy(a, b, m)
        if a[0]:
            out = _kernels_py.inv(a, m)
            assert_coeffs(out, m)
            assert out == long_division([1], a, m)
        a[0] = Fraction(1)
        root = _kernels_py.sqrt(a, m)
        assert_coeffs(root, m)
        assert root[0] == 1
        assert _kernels_py.mul(root, root, m) == a


def test_mul_on_mixed_lengths():
    rng = random.Random(99)
    for _ in range(100):
        a = random_coeffs(rng, rng.randrange(1, 12))
        b = random_coeffs(rng, rng.randrange(1, 12))
        m = rng.randrange(1, 16)
        out = _kernels_py.mul(a, b, m)
        assert_coeffs(out, m)
        assert out == cauchy(a, b, m)
    # m larger than both operands: the tail past len(a) + len(b) - 1 is zero
    out = _kernels_py.mul([Fraction(1), Fraction(2)], [Fraction(3)], 4)
    assert_coeffs(out, 4)
    assert out == [Fraction(3), Fraction(6), Fraction(0), Fraction(0)]


def check_inv(a, m, kind=Fraction):
    """inv(a, m) against the Fraction recurrence and long division; every
    output coefficient is of type `kind`."""
    out = _kernels_py.inv(a, m)
    assert_coeffs(out, m, kind)
    assert out == inv_reference(a, m)
    assert out == long_division([1], a, m)
    return out


# (len(a), m): a constant, a shorter than m, a longer than m, m = 1
SHAPES = [(1, 1), (1, 7), (4, 12), (15, 6), (9, 1)]


@pytest.mark.parametrize("a0", [1, -1])
def test_inv_of_an_integer_series_with_unit_constant_term(a0):
    rng = random.Random(20261018 + a0)
    for la, m in SHAPES:
        for _ in range(20):
            a = fracs([a0] + [rng.randrange(-9, 10) for _ in range(la - 1)])
            out = check_inv(a, m)
            assert all(c.denominator == 1 for c in out)
    # trailing zeros, and 1/(a0 + a0 z) = a0 (1 - z + z^2 - ...)
    check_inv(fracs([a0, 3, -2, 0, 0, 0]), 12)
    out = check_inv(fracs([a0, a0, 0, 0]), 9)
    assert out == fracs([a0 * (-1) ** n for n in range(9)])


@pytest.mark.parametrize("a0", [2, -2, Fraction(1, 3)])
def test_inv_of_a_series_whose_constant_term_is_no_unit(a0):
    rng = random.Random(7)
    for la, m in SHAPES:
        for _ in range(20):
            a = fracs([a0] + [rng.randrange(-9, 10) for _ in range(la - 1)])
            check_inv(a, m)
    out = check_inv(fracs([a0, 1]), 5)
    assert out[0] == 1 / Fraction(a0)


@pytest.mark.parametrize("a0", [1, -1])
def test_inv_of_a_unit_series_with_a_rational_coefficient(a0):
    rng = random.Random(11)
    for la, m in [(4, 12), (15, 6)]:
        for _ in range(20):
            a = fracs([a0] + [rng.randrange(-9, 10) for _ in range(la - 1)])
            a[rng.randrange(1, min(la, m))] = Fraction(
                rng.choice([-5, -1, 1, 3]), rng.choice([2, 3, 7])
            )
            check_inv(a, m)
    check_inv(fracs([a0, 0, 0, Fraction(1, 2)]), 10)


def test_series_calls_the_bound_kernels(monkeypatch):
    calls = []
    for name in ("mul", "inv", "sqrt"):
        real = getattr(_backend.kernels, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(_backend.kernels, name, counting)

    a = poly([1, 2, 3], 6)
    b = poly([1, -1], 6)
    a * b
    assert calls == ["mul"]
    a.inverse()
    assert calls[1:] == ["inv"]
    a / b
    assert sorted(calls[2:]) == ["inv", "mul"]
    a.sqrt()
    assert calls[4:] == ["sqrt"]
    assert fibpaths.BACKEND == "pure"


def test_kernels_keep_int_input_on_ints():
    rng = random.Random(20261019)
    for _ in range(200):
        la, lb, m = rng.randrange(1, 12), rng.randrange(1, 12), rng.randrange(1, 16)
        a = [rng.randrange(-9, 10) for _ in range(la)]
        b = [rng.randrange(-9, 10) for _ in range(lb)]
        out = _kernels_py.mul(a, b, m)
        assert_coeffs(out, m, int)
        assert out == cauchy(a, b, m)
        a[0] = rng.choice([1, -1])
        check_inv(a, m, int)
    # entries no product reaches are int zeros too
    out = _kernels_py.mul([0, 0], [5], 3)
    assert_coeffs(out, 3, int)
    assert out == [0, 0, 0]


@pytest.mark.parametrize("a0", [2, -2])
def test_inv_of_an_int_list_whose_constant_term_is_no_unit(a0):
    rng = random.Random(13)
    for la, m in SHAPES:
        for _ in range(20):
            check_inv([a0] + [rng.randrange(-9, 10) for _ in range(la - 1)], m)
    assert check_inv([a0, 1], 4)[0] == Fraction(1, a0)


def test_mul_of_ints_by_fractions_gives_fractions():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randrange(1, 10)
        a = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 10))]
        b = random_coeffs(rng, rng.randrange(1, 10))
        for x, y in ((a, b), (b, a)):
            out = _kernels_py.mul(x, y, m)
            assert_coeffs(out, m)
            assert out == cauchy(x, y, m)


@pytest.mark.parametrize("kind", [int, Fraction])
def test_kernels_return_no_coefficient_for_m_0(kind):
    for a0 in (1, -1, 2):
        a = [kind(a0), kind(2), kind(-3)]
        assert _kernels_py.mul(a, a, 0) == []
        assert _kernels_py.inv(a, 0) == []
        assert _kernels_py.inv(a[:1], 0) == []
    assert _kernels_py.sqrt([kind(1), kind(2)], 0) == []
