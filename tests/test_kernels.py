"""The series kernels against naive references, and the kernel binding the
benchmark tracer relies on."""

import random
from fractions import Fraction

import fibpaths
from fibpaths import _backend, _kernels_py, poly

from helpers import long_division


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


def assert_fractions(out, m):
    assert len(out) == m
    assert all(isinstance(c, Fraction) for c in out)


def test_kernels_on_random_inputs():
    rng = random.Random(20260814)
    for trial in range(300):
        m = rng.randrange(1, 20)
        a = random_coeffs(rng, m, integral=trial % 3 == 0)
        b = random_coeffs(rng, m)
        out = _kernels_py.mul(a, b, m)
        assert_fractions(out, m)
        assert out == cauchy(a, b, m)
        if a[0]:
            out = _kernels_py.inv(a, m)
            assert_fractions(out, m)
            assert out == long_division([1], a, m)
        a[0] = Fraction(1)
        root = _kernels_py.sqrt(a, m)
        assert_fractions(root, m)
        assert root[0] == 1
        assert _kernels_py.mul(root, root, m) == a


def test_mul_on_mixed_lengths():
    rng = random.Random(99)
    for _ in range(100):
        a = random_coeffs(rng, rng.randrange(1, 12))
        b = random_coeffs(rng, rng.randrange(1, 12))
        m = rng.randrange(1, 16)
        out = _kernels_py.mul(a, b, m)
        assert_fractions(out, m)
        assert out == cauchy(a, b, m)
    # m larger than both operands: the tail past len(a) + len(b) - 1 is zero
    out = _kernels_py.mul([Fraction(1), Fraction(2)], [Fraction(3)], 4)
    assert_fractions(out, 4)
    assert out == [Fraction(3), Fraction(6), Fraction(0), Fraction(0)]


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
