"""Every fast path against the slow reference it replaced (see helpers).

The continued fractions must return the very Series of a full-order
evaluation, order included, so results are compared as (order,
coefficients) pairs: Series equality only looks at the shared range.
"""

import random

import pytest

from fibpaths.contfrac import (
    CFLevel,
    excursion_cf,
    grand_excursion_cf,
    grand_meander_cf,
    meander_cf,
)
from fibpaths.families import coeff_grand, coeff_prefix, default_depth, horizontal_weight
from fibpaths.series import Series, poly, zero

from helpers import (
    coeff_grand_reference,
    coeff_prefix_reference,
    excursion_cf_reference,
    grand_excursion_cf_reference,
    grand_meander_cf_reference,
    meander_cf_reference,
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


def chain_length(name, order, depth):
    meander = EVALUATORS[name][3]
    return order + depth + 2 if meander else depth + 1


def depth_for(order, turn):
    """Depth 0, depth 1, a depth below the exact horizon and the default
    depth, taken in turn."""
    full = default_depth("fib", order, "cf")
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


def random_weight(rng, order):
    """Integer series of valuation 1 or 2, a quarter of them shorter than
    `order` (a zero series when too short for its valuation)."""
    valuation = rng.choice((1, 2))
    w_order = order if rng.random() < 0.75 else rng.randrange(order + 1)
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
        assert_matches_reference(name, levels, depth, order)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_formula_sums_match_fraction_sums(k):
    for t in range(31):
        assert coeff_grand(k, t) == coeff_grand_reference(k, t), t
        assert coeff_prefix(k, t) == coeff_prefix_reference(k, t), t


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_negative_order_is_refused_like_the_reference(name):
    step = poly([0, 1], 6)
    levels = [CFLevel(step, step, step, step, step, step)] * chain_length(name, 6, 2)
    assert_matches_reference(name, levels, 2, -1)
