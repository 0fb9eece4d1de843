"""Every fast path against the slow reference it replaced (see helpers).

The continued fractions and the automaton solve must return the very
Series of a full-order evaluation, order included, so results are compared
as (order, coefficients) pairs.
"""

import math
import random
from fractions import Fraction

import pytest

from fibpaths import FAMILIES, automata, gf
from fibpaths._backend import kernels
from fibpaths.automata import WeightedAutomaton, _state_orders, build_chain, solve
from fibpaths.contfrac import (
    CFLevel,
    excursion_cf,
    grand_excursion_cf,
    grand_meander_cf,
    meander_cf,
)
from fibpaths.families import (_cf, _formula_counts, _walked_depth, coeff, horizontal_weight,
                               least_depth)
from fibpaths.series import Series, poly, zero

import helpers
from helpers import (
    CHAIN_ROUTES,
    coeff_fib_reference,
    coeff_grand_reference,
    coeff_prefix_reference,
    coeff_reference,
    excursion_cf_reference,
    grand_excursion_cf_reference,
    grand_meander_cf_reference,
    kernel_calls,
    meander_cf_reference,
    solve_reference,
)

# name -> (fast, reference, needs two-sided weights, is a meander sum)
EVALUATORS = {
    "excursion": (excursion_cf, excursion_cf_reference, False, False),
    "grand-excursion": (grand_excursion_cf, grand_excursion_cf_reference, True, False),
    "meander": (meander_cf, meander_cf_reference, False, True),
    "grand-meander": (grand_meander_cf, grand_meander_cf_reference, True, True),
}


def outcome(fn, levels, depth, order):
    try:
        s = fn(levels, depth, order)
    except ValueError as exc:
        return type(exc)
    return s.order, s.coefficients()


def assert_matches_reference(name, levels, depth, order):
    fast, reference, _, _ = EVALUATORS[name]
    got = outcome(fast, levels, depth, order)
    assert got == outcome(reference, levels, depth, order), (name, order, depth)
    return got


def chain_length(name, order, depth):
    meander = EVALUATORS[name][3]
    return order + depth + 2 if meander else depth + 1


def depth_for(order, turn):
    """Depth 0, depth 1, a depth below the exact horizon and that horizon,
    `least_depth`, taken in turn."""
    full = least_depth("fib", order, "cf")
    return (0, 1, full // 2, full)[turn % 4]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_constant_chains_match_full_order(name, k):
    # the four values of k between them take every order 0..40
    two_sided = EVALUATORS[name][2]
    for turn, order in enumerate(range(k - 1, 41, 4)):
        step = poly([0, 1], order)
        h = horizontal_weight(k, order)
        level = CFLevel(step, step, h, *((step, step, h) if two_sided else ()))
        depth = depth_for(order, turn + k)
        levels = [level] * chain_length(name, order, depth)
        assert_matches_reference(name, levels, depth, order)


# family -> the evaluator of EVALUATORS whose chain its `cf` method truncates
FAMILY_EVALUATORS = {
    "fib": "excursion",
    "grand": "grand-excursion",
    "prefix": "meander",
    "grand-prefix": "grand-meander",
}


def by_value(reference, excursion):
    """A one-sided chain's `reference`(levels, depth, order), kept by the
    values of the weights it reads, so that a truncation of the constant
    chain is evaluated once however many families' references ask for it.
    An excursion reads levels 0..depth, a meander sum its whole chain."""
    kept = {}

    def kept_reference(levels, depth, order):
        read = levels[: depth + 1] if excursion else levels
        key = (depth, order) + tuple(
            (lvl.f.coefficients(), lvl.g.coefficients(), lvl.h.coefficients())
            for lvl in read
        )
        if key not in kept:
            kept[key] = reference(levels, depth, order)
        return kept[key]

    return kept_reference


@pytest.mark.parametrize("order", [0, 1, 2, 7, 12, 21])
def test_convergents_match_the_full_order_continued_fraction(order, monkeypatch):
    # the integer convergent of every depth gf may walk, and one past it; the
    # four references share their excursions and meander sums of the chain
    monkeypatch.setattr(helpers, "excursion_cf_reference", by_value(excursion_cf_reference, True))
    monkeypatch.setattr(helpers, "meander_cf_reference", by_value(meander_cf_reference, False))
    step = poly([0, 1], order)
    for k in range(1, 6):
        h = horizontal_weight(k, order)
        level = CFLevel(step, step, h, step, step, h)
        for family in FAMILIES:
            name = FAMILY_EVALUATORS[family]
            reference = getattr(helpers, EVALUATORS[name][1].__name__)
            for depth in range(_walked_depth(family, order, "cf", None) + 2):
                want = reference([level] * chain_length(name, order, depth), depth, order)
                got = _cf(family, k, order, depth)
                assert (got.order, got.coefficients()) == (order, want.coefficients()), (
                    family, k, depth)


def random_weight(rng, order):
    """Integer series of valuation 1 or 2 and of order `order`, a quarter of
    them longer, of order `order` + 1 to `order` + 3 (a zero series when
    too short for its valuation)."""
    valuation = rng.choice((1, 2))
    w_order = order if rng.random() < 0.75 else order + rng.randrange(1, 4)
    if valuation > w_order:
        return zero(w_order)
    coeffs = [0] * valuation + [rng.choice((1, 2, -1))]
    coeffs += [rng.randrange(-2, 3) for _ in range(w_order - valuation)]
    return Series(coeffs)


def random_chain(rng, order, count, period):
    """`count` levels that repeat a cycle of `period` distinct random levels."""
    cycle = [CFLevel(*[random_weight(rng, order) for _ in range(6)]) for _ in range(period)]
    return [cycle[i % period] for i in range(count)]


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("first", [0, 1])
def test_nonconstant_chains_match_full_order(name, first):
    rng = random.Random("%s/%d" % (name, first))
    for turn, order in enumerate(range(first, 41, 4)):
        depth = depth_for(order, turn + first)
        count = chain_length(name, order, depth)
        levels = random_chain(rng, order, count, rng.choice((1, 2, 3, count)))
        # evaluated, not refused: every weight is long enough
        assert isinstance(assert_matches_reference(name, levels, depth, order), tuple)


def random_bad_weight(rng, order):
    """A weight that may be zero, shorter than `order`, both, or missing
    (None)."""
    if rng.random() < 0.15:
        return None
    w_order = rng.randrange(order) if order and rng.random() < 0.3 else order + rng.randrange(3)
    return zero(w_order) if rng.random() < 0.6 else random_weight(rng, w_order)


@pytest.mark.parametrize("kind", sorted(CHAIN_ROUTES))
def test_both_chain_routes_refuse_the_same_weights(kind):
    # random chains whose weights reach the order; a few loops or steps, at
    # any level 0..depth and half of them at the top one, are replaced by
    # ones that may be zero, short, both or None.  The continued fraction and
    # solve(build_chain(...)) either both refuse the chain or return the
    # same Series: both check exactly the weights the truncation reads.
    rng = random.Random("routes/" + kind)
    names = ("f", "g", "h", "fp", "gp", "hp") if kind == "bilinear" else ("f", "g", "h")
    steps = [name for name in names if "h" not in name]
    seen = set()
    for turn in range(200):
        order = rng.choice((0, 1, 2, 3, 5, 8, 12))
        depth = depth_for(order, turn)
        levels = random_chain(rng, order, depth + 1, rng.choice((1, 2, depth + 1)))
        for _ in range(rng.randrange(1, 4)):
            i = rng.choice((rng.randrange(depth + 1), depth))
            levels[i] = levels[i]._replace(**{rng.choice(names): random_bad_weight(rng, order)})
        cf = outcome(CHAIN_ROUTES[kind], levels, depth, order)
        auto = None
        try:
            auto = build_chain(kind, depth, levels)
            s = solve(auto, order)
        except automata.InvalidAutomaton:
            assert cf == ValueError, (kind, order, depth)
            if auto is None:
                seen.add("refused by build_chain")
            elif any(w.is_zero() and w.order < order for *_, w in auto.transitions):
                seen.add("refused by solve, a zero weight short")
            else:
                seen.add("refused by solve")
            continue
        assert (s.order, s.coefficients()) == cf, (kind, order, depth)
        seen.add("evaluated")
        if any(w.is_zero() for src, dst, w in auto.transitions if src == dst):
            seen.add("evaluated with a zero loop")
        top = [getattr(levels[depth], name) for name in steps]
        if any(w is None or w.order < order for w in top):
            seen.add("evaluated with a bad top-level step")
    assert seen == {"evaluated", "evaluated with a zero loop",
                    "evaluated with a bad top-level step",
                    "refused by build_chain", "refused by solve",
                    "refused by solve, a zero weight short"}, seen


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_formula_sums_match_fraction_sums(k):
    for family in FAMILIES:
        want = [coeff_reference(family, k, t) for t in range(31)]
        assert _formula_counts(family, k, 30) == want, family
    for t in range(31):
        assert coeff("fib", k, t) == coeff_fib_reference(k, t), t
        assert coeff("grand", k, t) == coeff_grand_reference(k, t), t
        assert coeff("prefix", k, t) == coeff_prefix_reference(k, t), t


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_negative_order_is_refused_like_the_reference(name):
    step = poly([0, 1], 6)
    levels = [CFLevel(step, step, step, step, step, step)] * chain_length(name, 6, 2)
    assert_matches_reference(name, levels, 2, -1)


# -- the automaton solve --------------------------------------------------------


def solved(fn, auto, order):
    s = fn(auto, order)
    return s.order, s.coefficients()


def assert_solve_matches_reference(auto, order):
    assert solved(solve, auto, order) == solved(solve_reference, auto, order), (
        auto.n_states, auto.initial, sorted(auto.finals), order,
    )


def automaton_depths(order, family):
    """Depth 0, depth 1, a depth below the exact horizon, that horizon
    (`least_depth`) and twice the order."""
    full = least_depth(family, order, "automaton")
    return (0, 1, full // 2, full, 2 * order)


# (kind, all_final) -> the family whose automaton this chain is
CHAIN_FAMILIES = {
    ("linear", False): "fib",
    ("linear", True): "prefix",
    ("bilinear", False): "grand",
    ("bilinear", True): "grand-prefix",
}


@pytest.mark.parametrize("kind,all_final", sorted(CHAIN_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_constant_chain_automata_match_full_order(kind, all_final, k):
    # the four values of k between them take every order 0..40
    for turn, order in enumerate(range(k - 1, 41, 4)):
        step = poly([0, 1], order)
        h = horizontal_weight(k, order)
        level = CFLevel(step, step, h, step, step, h)
        depths = automaton_depths(order, CHAIN_FAMILIES[kind, all_final])
        depth = depths[(turn + k) % len(depths)]
        auto = build_chain(kind, depth, [level] * (depth + 1), all_final)
        assert_solve_matches_reference(auto, order)


def least_valuations(auto):
    """d(q) by Bellman-Ford relaxation: the least total edge valuation of a
    walk from the initial state (math.inf when there is none)."""
    d = [math.inf] * auto.n_states
    d[auto.initial] = 0
    for _ in range(auto.n_states):
        for src, dst, w in auto.transitions:
            d[dst] = min(d[dst], d[src] + w.valuation())
    return d


def random_automaton(rng, order):
    """Up to 8 states, random edges with integer weights of valuation 1 to 3
    (some zero, some longer than `order`, zero when too short for their
    valuation), a random initial state and a random set of finals: cycles,
    back edges and unreachable states arise as they fall."""
    n = rng.randrange(1, 9)
    transitions = []
    for _ in range(rng.randrange(3 * n + 1)):
        w_order = order + rng.choice((0, 0, 0, 2))
        if rng.random() < 0.05:
            w = zero(w_order)
        else:
            v = rng.choice((1, 1, 2, 3))
            coeffs = [0] * v + [rng.choice((1, 2, -1))]
            coeffs += [rng.randrange(-2, 3) for _ in range(w_order - v)]
            w = Series(coeffs[: w_order + 1])
        transitions.append((rng.randrange(n), rng.randrange(n), w))
    finals = {q for q in range(n) if rng.random() < 0.4}
    return WeightedAutomaton(n, rng.randrange(n), finals, transitions)


def test_random_automata_match_full_order():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        order = rng.choice((0, 1, 2, 3, 5, 8, 12, 20, 30))
        auto = random_automaton(rng, order)
        assert_solve_matches_reference(auto, order)
        d = least_valuations(auto)
        features = {
            "unreachable": math.inf in d,
            "beyond order": any(order < x < math.inf for x in d),
            "initial not 0": auto.initial != 0,
            "several finals": len(auto.finals) > 1,
            "back edge": any(dst < src for src, dst, _ in auto.transitions),
            "loop": any(src == dst for src, dst, _ in auto.transitions),
            "valuation 3": any(w.valuation() == 3 for *_, w in auto.transitions),
        }
        seen |= {name for name, present in features.items() if present}
    assert seen == set(features), seen


def test_random_automata_with_rational_weights_match_full_order():
    # a weight scaled by 1/3 is no integer series, so `solve` eliminates on
    # its stored Fractions
    rng = random.Random(20261022)
    rational_weights = rational_counts = 0
    for _ in range(200):
        order = rng.choice((0, 1, 2, 3, 5, 8, 12, 20))
        auto = random_automaton(rng, order)
        auto = auto._replace(transitions=[
            (src, dst, w * Fraction(1, 3) if rng.random() < 0.3 else w)
            for src, dst, w in auto.transitions
        ])
        assert_solve_matches_reference(auto, order)
        rational_weights += any(c.denominator != 1 for *_, w in auto.transitions
                                for c in w.coefficients())
        rational_counts += any(c.denominator != 1 for c in solve(auto, order).coefficients())
    assert rational_weights > 100
    assert rational_counts > 20


def test_state_orders_follow_the_least_walk_valuation():
    rng = random.Random(7)
    for _ in range(300):
        order = rng.choice((0, 1, 2, 3, 5, 8, 12))
        auto = random_automaton(rng, order)
        want = [min(order, max(order - x, 1)) for x in least_valuations(auto)]
        assert _state_orders(auto, order) == want


def family_chain(family, n):
    """The chain automaton that gf(family, 2, n, "automaton") solves."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "solve", lambda auto, order: seen.append(auto) or solve(auto, order))
        gf(family, 2, n, "automaton")
    (chain,) = seen
    return chain


@pytest.mark.parametrize("family", sorted(CHAIN_FAMILIES.values()))
@pytest.mark.parametrize("n", [40, 41])
def test_automaton_makes_fewer_kernel_calls_than_the_full_order_solve(family, n):
    # eliminating from the far end of the chain toward the initial state
    # leaves no back-substitution, a zero right-hand side is never divided,
    # and each pivot is inverted once, for its row and right-hand side alike
    chain = family_chain(family, n)
    got_mul, got_inv = kernel_calls(lambda: solve(chain, n))[1]
    want_mul, want_inv = kernel_calls(lambda: solve_reference(chain, n))[1]
    assert got_inv <= chain.n_states
    assert got_inv < want_inv
    assert got_mul < want_mul


@pytest.mark.parametrize("family", sorted(CHAIN_FAMILIES.values()))
def test_the_automaton_hands_the_kernels_int_lists_only(monkeypatch, family):
    # every weight, pivot and quotient of a family chain is an integer series
    want = gf(family, 2, 40, "closed")
    operands = []
    for name in ("mul", "inv"):
        real = getattr(kernels, name)

        def spy(*args, _real=real):
            operands.extend(args[:-1])
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    assert gf(family, 2, 40, "automaton") == want
    assert len(operands) > 40
    assert {type(a) for a in operands} == {list}
    assert {type(c) for a in operands for c in a} == {int}
