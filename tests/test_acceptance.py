"""Acceptance gate: one test per delivery criterion, one verdict line each.

Run `pytest -v tests/test_acceptance.py` to see a pass/fail line per
criterion.  Everything here is redundant with the per-module suites by
design; this file is the single place that states what the package
promises.
"""

import time
from fractions import Fraction

import hypothesis

from fibpaths import brute, gf, poly, zero
from fibpaths.automata import ChainSpec, build_chain, motzkin_gf, solve
from fibpaths.contfrac import CFLevel
from fibpaths.families import FAMILIES, METHODS, verify_methods
from fibpaths.kfib import convolved_binomial, convolved_gf, convolved_sum
from fibpaths.tables import PUBLISHED, row_diff

from helpers import ints, long_division

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]


def _verdict(label):
    print("PASS  %s" % label)


def test_published_tables_reproduced_exactly():
    t0 = time.perf_counter()
    for family in PUBLISHED:
        for k in (1, 2, 3, 4):
            for n, expected, got in row_diff(family, k):
                assert expected == got, (family, k, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "table recomputation took %.2fs" % elapsed
    _verdict("all 16 published rows reproduced exactly in %.3fs" % elapsed)


def test_worked_example_counts_by_every_method():
    expected = {"fib": 13, "grand": 16, "prefix": 26, "grand-prefix": 44}
    for family, value in expected.items():
        assert brute.count_paths(family, 2, 3) == value, family
        for method in METHODS:
            if method == "formula" and family == "grand-prefix":
                continue
            assert gf(family, 2, 3, method).coefficient(3) == value, (family, method)
    _verdict("length-3 counts for k=2 agree across every method")


def test_motzkin_specialization():
    """Unit loop weight collapses the model to plain Motzkin paths."""
    closed = motzkin_gf(9)
    assert ints(closed) == MOTZKIN
    z = poly([0, 1], 9)
    spec = ChainSpec(kind="linear", depth=5, levels=[CFLevel(z, z, z)] * 6,
                     all_final=False)
    assert solve(build_chain(spec), 9) == closed
    _verdict("depth-5 chain automaton reproduces the Motzkin numbers")


def test_five_method_agreement_wide():
    for family in FAMILIES:
        for k in (1, 2, 3, 4):
            assert verify_methods(family, k, 40, brute_max=10) == [], (family, k)
    _verdict("closed/cf/automaton/formula/brute agree for k<=4, n<=40")


def test_closed_form_algebraic_identities():
    """The closed forms satisfy their defining polynomial equations mod z^65.

    With b = 1 - kz - z^2 (so the loop weight is z/b) and a = b - z:
    the excursion GF T solves z^2 b T^2 - a T + b = 0, the grand
    excursion GF satisfies (a^2 - 4 z^2 b^2) T^2 = b^2, and the
    unconstrained GF is b over a cubic.
    """
    w = 64
    for k in (1, 2, 3, 4):
        z = poly([0, 1], w)
        b = poly([1, -k, -1], w)
        a = poly([1, -(k + 1), -1], w)
        t = gf("fib", k, w)
        assert z * z * b * t * t - a * t + b == zero(w), k
        g = gf("grand", k, w)
        zb = z * b
        assert (a * a - 4 * zb * zb) * g * g == b * b, k
        p = gf("grand-prefix", k, w)
        assert poly([1, -(k + 3), 2 * k - 1, 2], w) * p == b, k
    _verdict("closed forms satisfy their algebraic equations mod z^65")


def test_convolved_number_routes_agree():
    for k in (1, 2, 3, 4):
        for r in range(7):
            row = ints(convolved_gf(k, r, 30))
            for j in range(31):
                assert row[j] == convolved_sum(k, j, r) == convolved_binomial(k, j, r)
    _verdict("three convolved-number routes agree for k<=4, r<=6, j<=30")


def test_property_suite_configuration():
    import test_series_properties  # noqa: F401  registers the profile

    profile = hypothesis.settings.get_profile("fixed")
    assert profile.max_examples >= 200
    assert profile.derandomize is True
    assert profile.deadline is None
    _verdict("property suite runs >=200 derandomized cases per invariant")


def test_series_division_matches_long_division():
    num = [Fraction(2, 3), -1, Fraction(5, 7), 0, 4]
    den = [Fraction(-3, 2), Fraction(1, 5), 2, Fraction(-7, 3), 1]
    a = poly(num, 20)
    b = poly(den, 20)
    assert b.inverse().coefficients() == tuple(long_division([1], den, 21))
    assert (a / b).coefficients() == tuple(long_division(num, den, 21))
    _verdict("series reciprocal and quotient agree with long division mod z^21")
