"""Continued-fraction evaluators and closed forms.

The independent oracle here is `unit_paths`, a tiny direct enumerator of
single-color U/D/H paths (no series machinery at all); the frozen lists
were produced with it.
"""

import pytest

from fibpaths.contfrac import (
    CFLevel,
    _mirror,
    excursion_cf,
    excursion_closed,
    grand_excursion_cf,
    grand_excursion_closed,
    grand_meander_cf,
    grand_meander_closed,
    meander_cf,
    meander_closed,
)
from fibpaths.series import one, poly, zero

from helpers import ints, kfib_levels, mirror_reference, unit_levels


def unit_paths(n, nonneg, end_zero, with_h=True):
    """Count length-n paths over steps U, D (and H if with_h), one color."""

    def walk(rem, y):
        if rem == 0:
            return 1 if (y == 0 or not end_zero) else 0
        total = walk(rem - 1, y + 1)
        if y > 0 or not nonneg:
            total += walk(rem - 1, y - 1)
        if with_h:
            total += walk(rem - 1, y)
        return total

    return walk(n, 0)


def test_excursion_cf_depth_zero_is_loop_series():
    levels = unit_levels(8, 1)
    assert excursion_cf(levels, 0, 8) == poly([1, -1], 8).inverse()


def test_excursion_cf_motzkin():
    got = excursion_cf(unit_levels(9, 6), 5, 9)
    assert ints(got) == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
    assert ints(got)[:7] == [unit_paths(n, True, True) for n in range(7)]


def test_excursion_cf_table_row():
    got = excursion_cf(kfib_levels(2, 8, 7), 6, 8)
    assert ints(got) == [1, 1, 4, 13, 47, 168, 610, 2226, 8185]


def test_excursion_cf_depth_stability():
    # depths s and s+1 agree through z^(2s); the first escape of the
    # truncated chain is the length-(2s+2) full climb
    for s in (1, 2, 3):
        order = 2 * s + 2
        lo = excursion_cf(unit_levels(order, s + 1), s, order)
        hi = excursion_cf(unit_levels(order, s + 2), s + 1, order)
        assert lo.truncate(2 * s + 1) == hi.truncate(2 * s + 1)
        assert lo.coefficient(2 * s + 2) != hi.coefficient(2 * s + 2)


def test_excursion_cf_needs_enough_levels():
    with pytest.raises(ValueError):
        excursion_cf(unit_levels(6, 2), 2, 6)


@pytest.mark.parametrize("levels", [None, 5])
@pytest.mark.parametrize("cf", [excursion_cf, grand_excursion_cf, meander_cf, grand_meander_cf])
def test_a_chain_that_is_no_list_or_tuple_is_refused(cf, levels):
    with pytest.raises(ValueError, match="^levels must be a list or tuple of levels, got %r$"
                                         % levels):
        cf(levels, 0, 3)


def test_excursion_cf_rejects_constant_term_weights():
    bad = [CFLevel(poly([1, 1], 6), poly([0, 1], 6), zero(6))] * 2
    with pytest.raises(ValueError):
        excursion_cf(bad, 1, 6)


def test_excursion_closed_motzkin():
    step = poly([0, 1], 10)
    got = excursion_closed(step, step, step, 8)
    assert ints(got) == [1, 1, 2, 4, 9, 21, 51, 127, 323]


def test_excursion_closed_dyck():
    # no loops: Catalan numbers interleaved with zeros
    step = poly([0, 1], 10)
    got = excursion_closed(step, step, zero(10), 8)
    assert ints(got) == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    assert ints(got) == [unit_paths(n, True, True, with_h=False) for n in range(9)]


def test_excursion_closed_matches_cf():
    for k in (1, 2, 3):
        order = 12
        closed = excursion_closed(
            poly([0, 1], order + 2),
            poly([0, 1], order + 2),
            poly([0, 1], order + 2) / poly([1, -k, -1], order + 2),
            order,
        )
        cf = excursion_cf(kfib_levels(k, order, 8), 7, order)
        assert closed == cf


def test_excursion_closed_functional_equation():
    # fg B^2 - (1-h) B + 1 = 0
    order = 16
    f = poly([0, 1], order + 2)
    g = poly([0, 2], order + 2)
    h = poly([0, 1, 1], order + 2)
    b = excursion_closed(f, g, h, order)
    residual = f * g * b * b - (1 - h) * b + one(order)
    assert residual == zero(order)


def test_grand_excursion_closed_central_trinomial():
    step = poly([0, 1], 8)
    got = grand_excursion_closed(step, step, step, 6)
    assert ints(got) == [1, 1, 3, 7, 19, 51, 141]
    assert ints(got) == [unit_paths(n, False, True) for n in range(7)]


def test_grand_excursion_closed_central_binomial():
    step = poly([0, 1], 8)
    got = grand_excursion_closed(step, step, zero(8), 6)
    assert ints(got) == [1, 0, 2, 0, 6, 0, 20]


def test_grand_excursion_closed_table_row():
    step = poly([0, 1], 6)
    h = poly([0, 1], 6) / poly([1, -1, -1], 6)
    assert ints(grand_excursion_closed(step, step, h, 4)) == [1, 1, 4, 11, 36]


def test_grand_excursion_closed_squared_identity():
    # ((1-h)^2 - 4fg) Bb^2 = 1
    order = 14
    f = poly([0, 1], order)
    g = poly([0, 1, 3], order)
    h = poly([0, 2], order)
    bb = grand_excursion_closed(f, g, h, order)
    rad = (1 - h) * (1 - h) - 4 * (f * g)
    assert rad * bb * bb == one(order)


def test_grand_excursion_cf_matches_closed():
    order = 12
    step = poly([0, 1], order)
    levels = unit_levels(order, 8, two_sided=True)
    cf = grand_excursion_cf(levels, 7, order)
    closed = grand_excursion_closed(step, step, step, order)
    assert cf == closed


def test_grand_excursion_cf_table_row():
    got = grand_excursion_cf(kfib_levels(2, 8, 7, two_sided=True), 6, 8)
    assert ints(got) == [1, 1, 5, 16, 63, 237, 920, 3573, 14005]


def test_grand_excursion_cf_zeroed_mirror_reduces_to_one_sided():
    order = 10
    step = poly([0, 1], order)
    h = poly([0, 1], order)
    levels = [CFLevel(step, step, h, zero(order), zero(order), zero(order))] * 7
    assert grand_excursion_cf(levels, 6, order) == excursion_cf(levels, 6, order)


def test_mirror_matches_the_two_mode_reference():
    # distinct weights on every entry of every level, so a swapped or
    # shifted entry shows
    levels = [CFLevel(*(poly([0, 6 * i + j + 1], 3) for j in range(6)))
              for i in range(4)]
    assert _mirror(levels) == mirror_reference(levels)
    assert _mirror(levels)[1:] == mirror_reference(levels[1:], keep_root_loop=False)


def test_meander_closed_motzkin_prefixes():
    step = poly([0, 1], 9)
    got = meander_closed(step, step, step, 8)
    assert ints(got) == [1, 2, 5, 13, 35, 96, 267, 750, 2123]
    assert ints(got) == [unit_paths(n, True, False) for n in range(9)]


def test_meander_closed_dyck_prefixes():
    step = poly([0, 1], 9)
    got = meander_closed(step, step, zero(9), 8)
    assert ints(got) == [unit_paths(n, True, False, with_h=False) for n in range(9)]


def test_meander_closed_table_row():
    step = poly([0, 1], 7)
    h = poly([0, 1], 7) / poly([1, -1, -1], 7)
    assert ints(meander_closed(step, step, h, 6)) == [1, 2, 6, 19, 62, 205, 684]


def test_meander_cf_matches_closed():
    for k in (1, 3):
        order = 12
        closed = meander_closed(
            poly([0, 1], order + 1),
            poly([0, 1], order + 1),
            poly([0, 1], order + 1) / poly([1, -k, -1], order + 1),
            order,
        )
        cf = meander_cf(kfib_levels(k, order, order + 9), 7, order)
        assert cf == closed


def test_meander_cf_depth_stability():
    for s in (1, 2):
        order = 2 * s + 2
        lo = meander_cf(unit_levels(order, order + s + 2), s, order)
        hi = meander_cf(unit_levels(order, order + s + 3), s + 1, order)
        assert lo.truncate(2 * s) == hi.truncate(2 * s)


def test_grand_meander_closed_step_sequences():
    # f = g = z, h = 0: every +-1 step sequence is admissible
    step = poly([0, 1], 6)
    assert ints(grand_meander_closed(step, step, zero(6), 5)) == [1, 2, 4, 8, 16, 32]
    # with unit loops: all three-letter sequences
    assert ints(grand_meander_closed(step, step, step, 5)) == [
        3**n for n in range(6)
    ]


def test_grand_meander_closed_table_row():
    step = poly([0, 1], 6)
    h = poly([0, 1], 6) / poly([1, -1, -1], 6)
    assert ints(grand_meander_closed(step, step, h, 5)) == [1, 3, 10, 35, 124, 441]


def test_grand_meander_cf_matches_closed_symmetric():
    order = 10
    step = poly([0, 1], order)
    levels = unit_levels(order, order + 7, two_sided=True)
    cf = grand_meander_cf(levels, 5, order)
    assert cf == grand_meander_closed(step, step, step, order)
    assert ints(cf) == [unit_paths(n, False, False) for n in range(order + 1)]


def test_grand_meander_cf_asymmetric_against_enumeration():
    # unequal up/down/mirror weights: compare the quotient assembly with a
    # direct weighted enumeration of signed unit-step paths
    order = 8
    up, down, loop = 1, 2, 1  # weights above the axis
    upm, downm, loopm = 3, 1, 2  # weights below the axis (mirror)

    def walk(rem, y):
        if rem == 0:
            return 1
        total = 0
        # up step from level y
        total += (up if y >= 0 else upm) * walk(rem - 1, y + 1)
        # down step from level y
        total += (down if y >= 1 else downm) * walk(rem - 1, y - 1)
        # loop at level y
        total += (loop if y >= 0 else loopm) * walk(rem - 1, y)
        return total

    step = poly([0, 1], order)
    levels = [
        CFLevel(up * step, down * step, loop * step, upm * step, downm * step, loopm * step)
    ] * (order + 7)
    got = grand_meander_cf(levels, 5, order)
    assert ints(got) == [walk(n, 0) for n in range(order + 1)]


# -- the input contract ------------------------------------------------------
#
# Every weight an evaluator reads has valuation >= 1 and at least the order
# it is read at; a shorter one is a truncation whose tail is unknown.


def _on_chain(cf, two_sided):
    """`cf` on a constant chain of the given weights at depth 2, long
    enough for a meander."""

    def evaluate(f, g, h, order):
        primed = (f, g, h) if two_sided else ()
        return cf([CFLevel(f, g, h, *primed)] * 12, 2, order)

    return evaluate


EVALUATORS = {
    "excursion_cf": _on_chain(excursion_cf, False),
    "grand_excursion_cf": _on_chain(grand_excursion_cf, True),
    "meander_cf": _on_chain(meander_cf, False),
    "grand_meander_cf": _on_chain(grand_meander_cf, True),
    "excursion_closed": excursion_closed,
    "grand_excursion_closed": grand_excursion_closed,
    "meander_closed": meander_closed,
    "grand_meander_closed": grand_meander_closed,
}
STEP = poly([0, 1], 8)  # long enough for order 6, read at 6 + 2 by the closed forms
SHORT = poly([0, 1, 1, 1, 1], 4)
# input -> (f, g, h, order, the ValueError's message)
BAD_INPUTS = {
    "short loop": (STEP, STEP, SHORT, 6, r"^h(\[0\])? must have order >= \d+, got 4$"),
    "valuation-0 down step": (
        STEP, poly([1, 1], 8), STEP, 6, r"^g(\[0\])? must have valuation >= 1$"
    ),
    "order -1": (STEP, STEP, STEP, -1, "^order must be a nonnegative integer, got -1$"),
    "missing loop": (STEP, STEP, None, 6, r"^h(\[0\])? must be a Series, got None$"),
    "missing up step": (None, STEP, STEP, 6, r"^f(\[0\])? must be a Series, got None$"),
    "missing down step": (STEP, None, STEP, 6, r"^g(\[0\])? must be a Series, got None$"),
    "int up step": (3, STEP, STEP, 6, r"^f(\[0\])? must be a Series, got 3$"),
}


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_bad_weights_and_orders_raise_value_error_naming_them(name, bad):
    evaluate = EVALUATORS[name]
    evaluate(STEP, STEP, STEP, 6)
    *args, message = BAD_INPUTS[bad]
    with pytest.raises(ValueError, match=message):
        evaluate(*args)


@pytest.mark.parametrize("cf", [grand_excursion_cf, grand_meander_cf])
def test_two_sided_evaluators_need_the_primed_weights(cf):
    with pytest.raises(ValueError, match=r"^f'\[0\] must be a Series, got None$"):
        cf(unit_levels(6, 12), 2, 6)


def test_meander_tails_past_the_depth_need_their_weights_too():
    # the sum reads the windows j .. j + depth for every j, past level depth
    one_sided = [CFLevel(STEP, STEP, STEP)] * 3 + [CFLevel(STEP, STEP, None)] * 9
    with pytest.raises(ValueError, match=r"^h\[2\] must be a Series, got None$"):
        meander_cf(one_sided, 2, 6)
    two_sided = [CFLevel(STEP, STEP, STEP, STEP, STEP, STEP)] * 3
    with pytest.raises(ValueError, match="must be a Series, got None$"):
        grand_meander_cf(two_sided + one_sided[3:], 2, 6)


@pytest.mark.parametrize("cf", [meander_cf, grand_meander_cf])
def test_a_meander_reads_levels_through_order_plus_depth(cf):
    # a prefix of valuation v <= order ends on a level j <= v, whose tail
    # reads levels j .. j + depth
    order, depth = 12, 3
    need = order + depth + 1
    got = cf(kfib_levels(2, order, need, two_sided=True), depth, order)
    assert got == cf(kfib_levels(2, order, need + 1, two_sided=True), depth, order)
    with pytest.raises(ValueError, match="^need at least %d levels for order %d at depth %d$"
                                         % (need, order, depth)):
        cf(kfib_levels(2, order, need - 1, two_sided=True), depth, order)


@pytest.mark.parametrize("closed", [excursion_closed, meander_closed])
def test_zero_step_chain_with_a_short_loop_raises_value_error(closed):
    # no up steps: the closed form is 1/(1 - h), read at the full order
    assert closed(zero(8), STEP, STEP, 6) == poly([1, -1], 6).inverse()
    with pytest.raises(ValueError, match="^h must have order >= 6, got 4$"):
        closed(zero(8), STEP, SHORT, 6)
