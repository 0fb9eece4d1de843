"""Chain construction, the checks of `solve`, and its series eliminator."""

import re

import pytest

from fibpaths import automata
from fibpaths._checks import check_weight
from fibpaths.automata import (
    InvalidAutomaton,
    SingularSystem,
    WeightedAutomaton,
    build_chain,
    solve,
)
from fibpaths.contfrac import CFLevel, excursion_cf
from fibpaths.series import one, poly, zero

from helpers import MOTZKIN, ints, kfib_levels, motzkin_gf, unit_levels


def motzkin_chain(order, depth, all_final=False):
    return build_chain("linear", depth, unit_levels(order, depth + 1), all_final)


Z = poly([0, 1], 4)


@pytest.mark.parametrize(
    "auto, message",
    [
        (WeightedAutomaton(2.0, 0, [0], [(0, 1, Z)]),
         "n_states must be a nonnegative integer, got 2.0"),
        (WeightedAutomaton("2", 0, [0], [(0, 1, Z)]),
         "n_states must be a nonnegative integer, got '2'"),
        (WeightedAutomaton(2, 0, [0], [(0.0, 1, Z)]),
         "transition 0 endpoints (0.0, 1) are not state numbers"),
        (WeightedAutomaton(2, 0, [0], [(0, "1", Z)]),
         "transition 0 endpoints (0, '1') are not state numbers"),
        (WeightedAutomaton(2, True, [0], [(0, 1, Z)]),
         "initial state True is not a state number"),
        (WeightedAutomaton(2, 0, [1.0], [(0, 1, Z)]),
         "final state 1.0 is not a state number"),
    ],
    ids=["n_states-float", "n_states-str", "src-float", "dst-str",
         "initial-bool", "final-float"],
)
def test_state_numbers_are_ints(auto, message):
    with pytest.raises(InvalidAutomaton, match="^%s$" % re.escape(message)):
        solve(auto, 4)


@pytest.mark.parametrize(
    "auto, order, message",
    [
        # the initial state comes before the finals and the transitions
        (WeightedAutomaton(2, 5, {7}, [(0, 3, Z)]), 4,
         "initial state 5 is not a state number"),
        (WeightedAutomaton(2, 0, {7}, [(0, 3, Z)]), 4,
         "final state 7 is not a state number"),
        (WeightedAutomaton(0, 0, [], []), 4, "initial state 0 is not a state number"),
        (WeightedAutomaton(2, 0, {0}, [(0, 1, poly([1, 1], 4))]), 4,
         "transition 0 (0->1) weight must have valuation >= 1"),
        (WeightedAutomaton(2, 0, [0], [(0, 1)]), 4,
         "transition 0 is no (src, dst, weight) triple: (0, 1)"),
        (WeightedAutomaton(2, 0, [0], [(0, 1, Z), (0, 1, Z, Z)]), 4,
         "transition 1 is no (src, dst, weight) triple: (0, 1, %r, %r)" % (Z, Z)),
        (WeightedAutomaton(2, 0, [0], [5]), 4,
         "transition 0 is no (src, dst, weight) triple: 5"),
        # `order` comes first
        (WeightedAutomaton(2, 5, [0], [5]), -1, "order must be a nonnegative integer, got -1"),
        ((2, 0, {0}, [(0, 1, Z)]), 4,
         "auto must be a WeightedAutomaton, got (2, 0, {0}, [(0, 1, %r)])" % Z),
        (None, 4, "auto must be a WeightedAutomaton, got None"),
    ],
    ids=["initial-first", "final", "no-states", "constant-term-weight", "pair", "quadruple",
         "not-a-sequence", "negative-order", "plain-tuple", "none"],
)
def test_solve_names_the_first_problem(auto, order, message):
    with pytest.raises(InvalidAutomaton, match="^%s$" % re.escape(message)):
        solve(auto, order)


@pytest.mark.parametrize(
    "finals, transitions, message",
    [
        (5, [], "finals must be an iterable of state numbers, got 5"),
        ([[0]], [], "finals must be an iterable of state numbers, got [[0]]"),
        ([0], None, "transitions must be an iterable of (src, dst, weight) triples, got None"),
    ],
    ids=["finals-int", "finals-unhashable", "transitions-none"],
)
def test_construction_names_finals_or_transitions(finals, transitions, message):
    with pytest.raises(InvalidAutomaton, match="^%s$" % re.escape(message)):
        WeightedAutomaton(2, 0, finals, transitions)


def test_solve_rejects_invalid():
    auto = WeightedAutomaton(1, 0, frozenset({0}), ((0, 0, one(4)),))
    with pytest.raises(InvalidAutomaton):
        solve(auto, 4)


def test_solve_rejects_short_weights():
    # an order-1 weight is a truncation, not an exact polynomial
    auto = WeightedAutomaton(1, 0, frozenset({0}), ((0, 0, poly([0, 1], 1)),))
    with pytest.raises(InvalidAutomaton):
        solve(auto, 8)


def test_solve_names_a_short_weight():
    # a weight is checked at the order solve reads it at
    auto = WeightedAutomaton(2, 0, {0}, ((0, 1, poly([0, 1], 8)), (1, 0, poly([0, 1], 3))))
    with pytest.raises(InvalidAutomaton, match=r"^transition 1 \(1->0\) weight must have "
                                               r"order >= 8, got 3$"):
        solve(auto, 8)
    assert solve(auto, 3) == poly([1, 0, 1], 3)  # 1/(1 - z^2)


def test_solve_checks_each_weight_once(monkeypatch):
    seen = []

    def counting(w, what, order):
        seen.append((what, order))
        return check_weight(w, what, order)

    auto = motzkin_chain(6, 3)
    monkeypatch.setattr(automata, "check_weight", counting)
    solve(auto, 6)
    assert seen == [("transition %d (%d->%d) weight" % (i, src, dst), 6)
                    for i, (src, dst, _) in enumerate(auto.transitions)]


def test_solve_motzkin_chain():
    got = solve(motzkin_chain(9, 4), 9)
    assert ints(got) == MOTZKIN


def test_solve_single_looping_state():
    h = poly([0, 1], 8) / poly([1, -2, -1], 8)
    auto = build_chain("linear", 0, [CFLevel(h, h, h)], True)
    assert auto.n_states == 1
    assert solve(auto, 8) == (one(8) - h).inverse()


def test_solve_kfib_chain_table_row():
    got = solve(build_chain("linear", 6, kfib_levels(2, 10, 7)), 10)
    assert ints(got) == [1, 1, 4, 13, 47, 168, 610, 2226, 8185, 30283, 112736]


def test_solve_matches_continued_fraction():
    order = 12
    levels = kfib_levels(3, order, 8)
    auto = build_chain("linear", 7, levels)
    assert solve(auto, order) == excursion_cf(levels, 7, order)


def test_solve_empty_final_set_counts_nothing():
    auto = WeightedAutomaton(1, 0, frozenset(), ((0, 0, poly([0, 1], 5)),))
    assert solve(auto, 5) == zero(5)


def test_motzkin_gf_values_and_quadratic():
    m = motzkin_gf(9)
    assert ints(m) == MOTZKIN
    z2 = poly([0, 0, 1], 9)
    assert z2 * m * m - (1 - poly([0, 1], 9)) * m + one(9) == zero(9)


def test_motzkin_gf_matches_chain_solve():
    order = 12
    got = solve(motzkin_chain(order, (order + 1) // 2), order)
    assert got == motzkin_gf(order)


def test_build_chain_shapes():
    lin = motzkin_chain(6, 2)
    assert lin.n_states == 3 and lin.initial == 0 and lin.finals == {0}
    assert len(lin.transitions) == 3 + 4  # three loops, two up, two down
    bil = build_chain("bilinear", 1, unit_levels(6, 2, True))
    assert bil.n_states == 3 and bil.initial == 1
    assert bil.finals == {1}
    all_fin = build_chain("bilinear", 1, unit_levels(6, 2, True), True)
    assert all_fin.finals == {0, 1, 2}


@pytest.mark.parametrize("all_final", [False, True])
def test_build_chain_makes_level_i_state_base_plus_i(all_final):
    # f, g, h, f', g', h' of level i weigh c z, c = 10 i + 1 .. 10 i + 6
    f, g, h, fp, gp, hp = ([poly([0, 10 * i + c], 4) for i in range(3)] for c in range(1, 7))
    levels = [CFLevel(*weights) for weights in zip(f, g, h, fp, gp, hp)]
    linear = [(0, 0, h[0]), (1, 1, h[1]), (2, 2, h[2]),
              (0, 1, f[0]), (1, 0, g[0]), (1, 2, f[1]), (2, 1, g[1])]
    assert build_chain("linear", 2, levels, all_final) == WeightedAutomaton(
        3, 0, range(3) if all_final else {0}, linear)
    # base 2: level i is state 2 + i, level -i is state 2 - i
    bilinear = [(2, 2, h[0]), (3, 3, h[1]), (1, 1, hp[1]), (4, 4, h[2]), (0, 0, hp[2]),
                (2, 3, f[0]), (3, 2, g[0]), (2, 1, gp[0]), (1, 2, fp[0]),
                (3, 4, f[1]), (4, 3, g[1]), (1, 0, gp[1]), (0, 1, fp[1])]
    assert build_chain("bilinear", 2, levels, all_final) == WeightedAutomaton(
        5, 2, range(5) if all_final else {2}, bilinear)


def test_build_chain_requires_primed_weights():
    with pytest.raises(InvalidAutomaton):
        build_chain("bilinear", 2, unit_levels(6, 3))


@pytest.mark.parametrize(
    "chain, message",
    [
        (("linear", 1, [None, None]), "f[0] must be a Series, got None"),
        (("linear", 1, [CFLevel(None, Z, Z), CFLevel(Z, Z, Z)]), "f[0] must be a Series, got None"),
        (("bilinear", 2, [CFLevel(Z, Z, Z, Z, Z), CFLevel(Z, Z, Z, Z, None, Z),
                          CFLevel(Z, Z, Z, Z, Z, Z)]), "g'[1] must be a Series, got None"),
        (("linear", 1, None), "levels must be a list or tuple of levels, got None"),
    ],
    ids=["no-level", "no-step", "no-primed-step", "no-chain"],
)
def test_build_chain_names_a_missing_weight(chain, message):
    with pytest.raises(InvalidAutomaton, match="^%s$" % re.escape(message)):
        build_chain(*chain)


def test_build_chain_unknown_kind():
    with pytest.raises(InvalidAutomaton):
        build_chain("circular", 1, unit_levels(6, 2))


def test_truncation_convergence_initial_final():
    # initial-only-final chains: depths s and s+1 agree through z^(2s) and
    # first differ at the length-(2s+2) full climb
    for s in (2, 3):
        order = 2 * s + 2
        lo = solve(motzkin_chain(order, s), order)
        hi = solve(motzkin_chain(order, s + 1), order)
        assert lo.truncate(2 * s + 1) == hi.truncate(2 * s + 1)
        assert lo.coefficient(2 * s + 2) != hi.coefficient(2 * s + 2)


def test_truncation_convergence_all_final():
    # all-final chains only agree through z^s: the all-up walk escapes
    for s in (2, 3):
        order = s + 1
        lo = solve(motzkin_chain(order, s, all_final=True), order)
        hi = solve(motzkin_chain(order, s + 1, all_final=True), order)
        assert lo.truncate(s) == hi.truncate(s)
        assert lo.coefficient(s + 1) != hi.coefficient(s + 1)


def test_enlarging_finals_never_decreases_counts():
    order = 10
    some = solve(motzkin_chain(order, 5), order)
    everything = solve(motzkin_chain(order, 5, all_final=True), order)
    assert all(
        everything.coefficient(n) >= some.coefficient(n) for n in range(order + 1)
    )


def test_eliminate_singular():
    z = poly([0, 1], 6)
    rows = [{0: z, 1: z}, {0: z, 1: z}]
    rhs = [one(6), zero(6)]
    with pytest.raises(SingularSystem):
        automata._eliminate(rows, rhs)


def test_eliminate_refuses_a_system_that_needs_a_row_swap():
    # [z, 1; 1, z] is invertible, but its pivot in row order, z, is no unit
    z = poly([0, 1], 6)
    rows = [{0: z, 1: one(6)}, {0: one(6), 1: z}]
    rhs = [one(6), zero(6)]
    with pytest.raises(SingularSystem, match="^column 0 "):
        automata._eliminate(rows, rhs)


@pytest.mark.parametrize("reverse", [False, True])
def test_eliminate_gives_each_x_at_its_rhs_order(reverse):
    # x0 = 1 + z x1, x1 = z x0 + z x2, x2 = z x1, with rows carried through
    # z^6, z^5 and z^4: x0 = (1 - z^2)/(1 - 2z^2), x1 = z/(1 - 2z^2) and
    # x2 = z^2/(1 - 2z^2).  Reversed, elimination meets a pivot of lower
    # order than the row below it and pads it.
    orders = [6, 5, 4]
    edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
    at = (lambda q: 2 - q) if reverse else (lambda q: q)
    rows = [None] * 3
    for q, r in enumerate(orders):
        rows[at(q)] = {at(q): one(r)}
    for src, dst in edges:
        rows[at(src)][at(dst)] = -poly([0, 1], orders[src])
    rhs = [None] * 3
    for q, r in enumerate(orders):
        rhs[at(q)] = one(r) if q == 0 else zero(r)
    xs = automata._eliminate(rows, rhs)
    den = poly([1, 0, -2], 6)
    expected = [poly([1, 0, -1], 6) / den, poly([0, 1], 6) / den, poly([0, 0, 1], 6) / den]
    for q, r in enumerate(orders):
        assert xs[at(q)].order == r
        assert xs[at(q)] == expected[q].truncate(r)
