"""Family dispatch: every method, counts, reports, and cross-checks."""

import json
from fractions import Fraction
from itertools import accumulate, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fibpaths import automata, brute, families
from fibpaths._checks import CONSTRAINTS
from fibpaths.families import (
    METHODS,
    NonIntegralResult,
    PathCountReport,
    coeff,
    gf,
    horizontal_weight,
    least_depth,
    sequence,
    verify_methods,
)
from fibpaths.kfib import kfib
from fibpaths.tables import TABLE_PREFIX

from helpers import ints


# -- gf dispatch, one frozen row per method -----------------------------------


def test_gf_fib_cf():
    assert ints(gf("fib", 2, 5, "cf")) == [1, 1, 4, 13, 47, 168]


def test_gf_prefix_automaton():
    assert ints(gf("prefix", 3, 5, "automaton")) == [1, 2, 8, 35, 162, 757]


def test_gf_grand_prefix_closed():
    assert ints(gf("grand-prefix", 4, 5, "closed")) == [1, 3, 13, 68, 379, 2151]


def test_gf_grand_formula():
    assert ints(gf("grand", 4, 6, "formula")) == [1, 1, 7, 32, 177, 949, 5172]


def test_gf_fib_brute():
    assert ints(gf("fib", 1, 6, "brute")) == [1, 1, 3, 8, 23, 67, 199]


def test_gf_validation():
    with pytest.raises(ValueError):
        gf("motzkin", 1, 5)
    with pytest.raises(ValueError):
        gf("fib", 0, 5)
    with pytest.raises(ValueError):
        gf("fib", 1, -1)
    with pytest.raises(ValueError, match="^order must be"):
        gf("fib", 2, None)
    with pytest.raises(ValueError):
        gf("fib", 1, 5, "closed", depth=-1)
    with pytest.raises(ValueError):
        gf("fib", 1, 5, "magic")


@pytest.mark.parametrize("method", ["closed", "formula", "brute"])
def test_gf_refuses_a_depth_for_a_method_without_one(method):
    with pytest.raises(ValueError, match="^depth applies only to the cf and automaton"):
        gf("fib", 2, 10, method, depth=0)


def _spoil(monkeypatch, method, n, bad):
    """Make the `method` route of `gf` return `bad` as its count at `n`."""
    owner, name = (families, "_formula_counts") if method == "formula" else (brute, "path_counts")
    real = getattr(owner, name)

    def spoiled(family, k, order):
        counts = list(real(family, k, order))
        if order >= n:
            counts[n] = bad
        return counts

    monkeypatch.setattr(owner, name, spoiled)


@pytest.mark.parametrize("bad", [-1, Fraction(1, 2)], ids=["negative", "half"])
@pytest.mark.parametrize("method", ["formula", "brute"])
def test_gf_refuses_a_count_that_is_no_nonnegative_integer(monkeypatch, method, bad):
    _spoil(monkeypatch, method, 3, bad)
    message = "^fib/%s count for k=2, n=3 is not a nonnegative integer: %s$" % (method, bad)
    with pytest.raises(NonIntegralResult, match=message):
        gf("fib", 2, 6, method)
    with pytest.raises(NonIntegralResult, match=message):
        sequence("fib", 2, 6, method)
    assert ints(gf("fib", 2, 2, method)) == [1, 1, 4]


@pytest.mark.parametrize("family", families.FAMILIES)
def test_gf_brute_matches_closed_at_k_3(family):
    got = gf(family, 3, 64, method="brute")
    assert (got.order, ints(got)) == (64, ints(gf(family, 3, 64)))


@pytest.mark.parametrize("family", families.FAMILIES)
def test_path_counts_match_closed_at_n_300(family):
    assert brute.path_counts(family, 2, 300) == ints(gf(family, 2, 300))


@pytest.mark.parametrize("k", [True, 2.0])
def test_gf_rejects_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        gf("fib", k, 4)


# -- coefficient formulas ------------------------------------------------------


@pytest.mark.parametrize("family", families.FAMILIES)
def test_skeleton_counts_match_the_up_down_words(family):
    # S(s) against the words of s steps U = +1, D = -1 that the family's
    # row of CONSTRAINTS lets through
    nonneg, ends_at_0 = CONSTRAINTS[family]
    skeletons = families._SKELETONS[nonneg, ends_at_0]
    for s in range(15):
        allowed = 0
        for word in product((1, -1), repeat=s):
            heights = list(accumulate(word, initial=0))
            if (min(heights) >= 0 or not nonneg) and (heights[-1] == 0 or not ends_at_0):
                allowed += 1
        assert skeletons(s) == allowed, s


@pytest.mark.parametrize("family", families.FAMILIES)
@pytest.mark.parametrize("k, n", [(1, 60), (2, 60), (3, 60), (4, 60), (3, 400)],
                         ids=["1", "2", "3", "4", "3-400"])
def test_coeff_matches_path_counts(family, k, n):
    want = brute.path_counts(family, k, n)
    assert ints(gf(family, k, n, "formula")) == want
    assert [coeff(family, k, t) for t in range(61)] == want[:61]


def test_coeff_fib_figure_value():
    assert coeff("fib", 2, 3) == 13


def test_coeff_grand_figure_value():
    assert coeff("grand", 2, 3) == 16


def test_coeff_prefix_figure_value():
    assert coeff("prefix", 2, 3) == 26


def test_coeff_grand_empty_path():
    assert [coeff("grand", k, 0) for k in (1, 2, 3, 4)] == [1, 1, 1, 1]


def test_coeff_spot_values():
    assert coeff("fib", 3, 4) == 89
    assert coeff("grand", 2, 4) == 63
    assert coeff("prefix", 1, 4) == 62


# -- agreement of all five methods --------------------------------------------


@pytest.mark.parametrize("family", families.FAMILIES)
@pytest.mark.parametrize("k", [1, 2])
def test_all_methods_agree_small(family, k):
    reference = ints(gf(family, k, 12, "closed"))
    for method in METHODS[1:]:
        assert ints(gf(family, k, 12, method)) == reference


@pytest.mark.parametrize("family", families.FAMILIES)
@pytest.mark.parametrize("method", METHODS)
def test_counts_are_polynomials_in_k(family, method):
    """A path of length n has at most n horizontal unit steps, each in one of
    k colors, so c_n is a polynomial in k of degree <= n: its (n+1)-th finite
    difference over any n+2 consecutive k vanishes.  A count wrong at a
    single k breaks every window that holds it."""
    counts = {k: sequence(family, k, 8, method).counts for k in range(1, 11)}
    for n in range(9):
        m = n + 1
        for k0 in range(1, 11 - m):
            delta = sum((-1) ** (m - i) * comb(m, i) * counts[k0 + i][n]
                        for i in range(m + 1))
            assert delta == 0, (n, k0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_dominance(k):
    """Dropping a constraint can only add paths: fib <= grand <= grand-prefix
    and fib <= prefix <= grand-prefix, coefficientwise."""
    rows = {f: ints(gf(f, k, 10, "closed")) for f in families.FAMILIES}
    for n in range(11):
        assert rows["fib"][n] <= rows["grand"][n] <= rows["grand-prefix"][n]
        assert rows["fib"][n] <= rows["prefix"][n] <= rows["grand-prefix"][n]


def test_horizontal_weight_coefficients():
    w = horizontal_weight(3, 20)
    assert ints(w) == [kfib(3, n) for n in range(21)]


# -- truncation depths ---------------------------------------------------------


@pytest.mark.parametrize("order", [10, 11])
def test_least_depths(order):
    # a depth-s truncation is exact through z^(2s+1), so half the order
    # suffices; all-final chains in the automaton need the full order
    for family in families.FAMILIES:
        closed = sequence(family, 2, order).counts
        for method in ("cf", "automaton"):
            least = least_depth(family, order, method)
            meander_automaton = method == "automaton" and "prefix" in family
            assert least == (order if meander_automaton else 5), (family, method)
            assert sequence(family, 2, order, method, least).counts == closed
            shallow = sequence(family, 2, order, method, least - 1).counts
            assert shallow[-1] != closed[-1], (family, method)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.sampled_from(families.FAMILIES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=3),
)
def test_any_depth_from_the_horizon_on_gives_the_closed_counts(family, k, n, extra):
    # the stated horizon is never optimistic: every depth from it on is exact;
    # the walkers are called directly, since gf walks no deeper than it
    closed = gf(family, k, n, "closed").coefficients()
    for method, walk in (("cf", families._cf), ("automaton", families._automaton)):
        depth = least_depth(family, n, method) + extra
        got = walk(family, k, n, depth)
        assert (got.order, got.coefficients()) == (n, closed), (method, depth)


@pytest.mark.parametrize("method", ["cf", "automaton"])
@pytest.mark.parametrize("family", families.FAMILIES)
def test_a_depth_far_past_the_cap_walks_only_the_cap(monkeypatch, family, method):
    # every depth from least_depth on gives the same series, so a far deeper
    # one is walked only to the cap of _walked_depth, not level by level: at
    # order 5 that is (5 + 1) // 2 + 1 = 4, or 5 for all-final chains
    depths = []
    if method == "cf":
        module, name, at = families, "_convergent", 2
    else:
        module, name, at = automata, "build_chain", 1
    real = getattr(module, name)

    def recording(*args):
        depths.append(args[at])
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    assert gf(family, 2, 5, method, depth=10**9) == gf(family, 2, 5, method)
    cap = 5 if method == "automaton" and "prefix" in family else 4
    if method == "cf" and family == "grand":
        cap -= 1  # each side of the root is a one-sided fraction one level shorter
    assert depths == [cap] * 2


@pytest.mark.parametrize("method", ["cf", "automaton"])
@pytest.mark.parametrize("family", families.FAMILIES)
def test_the_walked_cap_lies_at_most_two_levels_past_the_least_depth(family, method):
    # gf walks the cap for any deeper depth, so a cap short of least_depth
    # would give wrong counts; a depth below the cap is walked as given
    for order in range(41):
        least = least_depth(family, order, method)
        cap = families._walked_depth(family, order, method, None)
        assert least <= cap <= least + 2, (order, least, cap)
        for depth in (0, least, cap + 1, 10**9):
            walked = families._walked_depth(family, order, method, depth)
            assert walked == min(depth, cap), (order, depth)


def test_a_depth_below_the_least_one_is_walked_as_given():
    deep = ints(gf("fib", 2, 10, "cf"))
    shallow = ints(gf("fib", 2, 10, "cf", depth=2))
    assert deep[:6] == shallow[:6]  # exact through z^(2*2+1)
    assert deep != shallow


# -- reports -------------------------------------------------------------------


def test_sequence_report_fields():
    rep = sequence("fib", 2, 5, "cf")
    assert rep == PathCountReport("fib", 2, "cf", (1, 1, 4, 13, 47, 168))
    assert rep.n_max == 5
    assert all(isinstance(c, int) for c in rep.counts)


def test_report_json_round_trip():
    rep = sequence("grand", 3, 4)
    blob = json.dumps(rep.to_json_dict())
    back = json.loads(blob)
    assert back["family"] == "grand"
    assert back["k"] == 3
    assert back["n_max"] == 4
    # counts travel as decimal strings so no reader mangles the big ones
    assert [int(c) for c in back["counts"]] == list(rep.counts)


# -- cross-verification --------------------------------------------------------


@pytest.mark.parametrize("family", families.FAMILIES)
def test_verify_methods_clean(family):
    assert verify_methods(family, 2, 12, brute_max=8) == []


def test_verify_methods_reports_forced_mismatch():
    # depth 1 truncates far below what order 10 needs, so the cf and
    # automaton rows must disagree with the closed form somewhere
    mismatches = verify_methods("fib", 2, 10, brute_max=0, depth=1)
    assert mismatches
    methods_seen = {m[4] for m in mismatches}
    assert "cf" in methods_seen
    for fam, k, n, ref_name, method, ref, got in mismatches:
        assert (fam, k, ref_name) == ("fib", 2, "closed")
        assert ref != got
        assert ints(gf("fib", 2, 10))[n] == ref


def test_verify_methods_passes_depth_only_to_cf_and_automaton(monkeypatch):
    calls = []
    real_gf = families.gf

    def recording_gf(family, k, order, method="closed", depth=None):
        calls.append((method, depth))
        return real_gf(family, k, order, method, depth)

    monkeypatch.setattr(families, "gf", recording_gf)
    assert verify_methods("fib", 2, 6, brute_max=2, depth=3) == []
    assert calls == [("closed", None), ("cf", 3), ("automaton", 3), ("formula", None)]


def test_verify_methods_compares_the_grand_prefix_formula(monkeypatch):
    real = families._formula_counts
    monkeypatch.setattr(families, "_formula_counts", lambda family, k, n:
                        [c + (t == 4) for t, c in enumerate(real(family, k, n))])
    got = verify_methods("grand-prefix", 2, 6, brute_max=2)
    assert got == [("grand-prefix", 2, 4, "closed", "formula", 181, 182)]


def test_verify_methods_compares_brute(monkeypatch):
    real = brute.count_paths
    monkeypatch.setattr(brute, "count_paths",
                        lambda family, k, n: real(family, k, n) + (n == 3))
    assert verify_methods("fib", 1, 5) == [("fib", 1, 3, "closed", "brute", 8, 9)]


def test_verify_methods_brute_window():
    # brute_max caps the enumeration range, not the closed-form range
    assert verify_methods("grand-prefix", 1, 20, brute_max=5) == []


def test_verify_methods_compares_closed_with_the_published_row(monkeypatch):
    # a wrong family table feeds all five methods alike; only the published
    # row, computed without it, tells prefix from grand-prefix
    monkeypatch.setitem(CONSTRAINTS, "prefix", CONSTRAINTS["grand-prefix"])
    row = TABLE_PREFIX[2]
    wrong = ints(gf("prefix", 2, 10))
    assert verify_methods("prefix", 2, 10, 5) == [
        ("prefix", 2, n, "published", "closed", row[n], wrong[n]) for n in range(1, 11)
    ]
    # a shorter n_max compares only the lengths it counts
    assert verify_methods("prefix", 2, 3, 3) == [
        ("prefix", 2, n, "published", "closed", row[n], wrong[n]) for n in range(1, 4)
    ]
    # k = 5 has no published row
    assert verify_methods("prefix", 5, 10, 5) == []


def test_sequence_matches_brute_counts():
    rep = sequence("prefix", 2, 8)
    for n in range(9):
        assert rep.counts[n] == brute.count_paths("prefix", 2, n)
