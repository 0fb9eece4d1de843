"""Continued fractions and closed forms for weighted Motzkin-like chains.

A chain is a sequence of levels; level i carries an up-step weight f_i, a
down-step weight g_i (for the step from level i+1 back to i) and a loop
weight h_i, each a series of valuation >= 1.  Two-sided chains additionally
carry mirror weights f'_i, g'_i, h'_i for the levels below the axis.

Excursions are walks that start and end at level 0; meanders may end
anywhere; the "grand" variants may also go below level 0.  Each generating
function is available both as a depth-truncated continued fraction /
truncated sum and, for constant weights, as a closed radical form.  A chain
truncated at depth s keeps the boundary loop and back-edge; since every
truncated piece below is an excursion relative to its own base level, all
the evaluators here are exact through z^(2s+1) when the step weights have
valuation 1: the first walk they miss climbs s+1 levels above a base level
and comes back, 2s+2 steps.

Weight rule: every weight an evaluator reads has valuation >= 1 and at
least the order it is read at: `order` for the continued fractions and
the two grand closed forms, order + valuation(fg) for `excursion_closed`
and order + valuation(f) for `meander_closed`, whose divisions cancel
that power of z.  A shorter weight is a truncation whose tail is unknown,
and is refused with a ValueError naming it, as are a bad `order` or
`depth` (see `_checks`).  A chain truncated at depth s reads the loops
h_0 .. h_s and the steps f_i, g_i for i < s only (two-sided, also f'_i,
g'_i for i < s and h'_1 .. h'_s), so those, and no unread top-level
step, are checked: one chain rule, which `automata.build_chain` applies
too.  A meander's prefix also reads f_j at `order` for every level j it
climbs, and `meander_cf` checks it there.

Precision rule: a walk reaches level i only behind f_0 g_0 ... f_{i-1}
g_{i-1}, whose valuation is at least 2i, so the continued fraction
evaluates E_i only through z^max(order - 2i, 0); a meander ends on level j
behind a prefix of valuation v >= j, so its tail E_j is evaluated only
through z^(order - v).  A shorter series is padded with zeros before it is
multiplied by such a factor; the padded coefficients land past the kept
order.  Every evaluator still returns the Series a full-order evaluation
gives, of order `order`.
"""

from __future__ import annotations

from collections import namedtuple

from ._checks import check_levels, check_size, check_weight
from .series import Series, _pad, one, zero

__all__ = [
    "CFLevel",
    "excursion_cf",
    "excursion_closed",
    "grand_excursion_cf",
    "grand_excursion_closed",
    "grand_meander_cf",
    "grand_meander_closed",
    "meander_cf",
    "meander_closed",
]


class CFLevel(namedtuple("CFLevel", "f g h fp gp hp", defaults=(None,) * 3)):
    """Weights at one chain level, each a Series; primed entries are the
    mirror weights of two-sided chains (None for one-sided use)."""

    __slots__ = ()


def _mirror(levels):
    """The chain seen by a walk below the axis: f -> g', g -> f', loops h';
    the level-0 loop is shared between the two sides."""
    return [CFLevel(lvl.gp, lvl.fp, lvl.hp if i else lvl.h)
            for i, lvl in enumerate(levels)]


def excursion_cf(levels, depth: int, order: int) -> Series:
    """Excursion GF of the chain truncated at `depth`, by the continued
    fraction E_i = 1/(1 - h_i - f_i g_i E_{i+1}) with tail E_s = 1/(1-h_s).

    Exact through z^(2*depth+1) when the step weights have valuation 1.
    Level i is evaluated through z^max(order - 2i, 0) only.
    """
    check_levels(levels, depth, order)
    e = (one(max(order - 2 * depth, 0)) - levels[depth].h).inverse()
    for i in range(depth - 1, -1, -1):
        lvl = levels[i]
        o = max(order - 2 * i, 0)
        e = (one(o) - lvl.h - lvl.f.truncate(o) * lvl.g * _pad(e, o)).inverse()
    return e


def grand_excursion_cf(levels, depth: int, order: int) -> Series:
    """Excursion GF of the two-sided chain truncated at levels +-depth:
    1/(1 - h_0 - f_0 g_0 E_1 - f'_0 g'_0 E'_1)."""
    check_levels(levels, depth, order, primed=True)
    unit = one(order)
    if depth == 0:
        return (unit - levels[0].h).inverse()
    lvl0 = levels[0]
    up = excursion_cf(levels[1:], depth - 1, order)
    down = excursion_cf(_mirror(levels)[1:], depth - 1, order)
    return (
        unit - lvl0.h - lvl0.f * lvl0.g * up - lvl0.fp * lvl0.gp * down
    ).inverse()


def meander_cf(levels, depth: int, order: int) -> Series:
    """Meander GF as the truncated sum over the final level j of
    (prod_{i<j} f_i E_i) E_j, each E truncated at relative depth `depth`.

    The prefactor gains valuation with every up step, so the sum is finite.
    Each E_j is truncated relative to its own base level j, so the sum is
    exact through z^(2*depth+1) for valuation-1 step weights.  E_j is
    evaluated only through z^(order - v), v the valuation of its prefix;
    since v >= j, the sum reads levels 0..order+depth at most.
    """
    check_levels(levels, depth, order)
    cache: dict = {}
    total = zero(order)
    prefix = one(order)
    j = 0
    while (v := prefix.valuation()) <= order:
        if j + depth >= len(levels):
            raise ValueError(
                "need at least %d levels for order %d at depth %d"
                % (order + depth + 1, order, depth)
            )
        window = levels[j : j + depth + 1]
        key = tuple(id(lvl) for lvl in window)
        e = cache.get(key)
        if e is None:
            # the prefix reads f_j through `order`, whatever E_j reads;
            # a window of the same levels has the same f_j
            check_weight(levels[j].f, "f[%d]" % j, order)
            check_levels(window, depth, order)
            # a later window of the same levels has a larger v: this reaches far enough
            e = cache[key] = excursion_cf(window, depth, order - v)
        e = _pad(e, order)
        total = total + prefix * e
        prefix = prefix * levels[j].f * e
        j += 1
    return total


def grand_meander_cf(levels, depth: int, order: int) -> Series:
    """Meander GF of the two-sided chain, assembled from the one-sided
    excursion and meander GFs of the chain and its mirror:

        (E' G + E G' - E E') / (E + E' - E E' (1 - h_0))

    The shared factors account for the interleaving of the above-axis and
    below-axis portions through the level-0 loop.
    """
    check_levels(levels, depth, order, primed=True)
    mirrored = _mirror(levels)
    e = excursion_cf(levels, depth, order)
    ep = excursion_cf(mirrored, depth, order)
    g = meander_cf(levels, depth, order)
    gp = meander_cf(mirrored, depth, order)
    h0 = levels[0].h
    num = ep * g + e * gp - e * ep
    den = e + ep - e * ep * (one(order) - h0)
    return num / den


# -- closed forms for constant weights ---------------------------------------


def _check(f, g, h, order):
    """f, g, h checked at the `order` a closed form reads them at."""
    for w, what in zip((f, g, h), "fgh"):
        check_weight(w, what, order)


def _read(f, g, h, order):
    """f, g, h checked and truncated to the `order` a closed form reads."""
    _check(f, g, h, order)
    return f.truncate(order), g.truncate(order), h.truncate(order)


def excursion_closed(f, g, h, order: int) -> Series:
    """(1 - h - sqrt((1-h)^2 - 4fg)) / (2fg) for constant level weights.

    The division cancels z^valuation(fg), so f, g, h must carry
    order + valuation(fg) coefficients.
    """
    check_size("order", order)
    _check(f, g, h, 0)  # names a bad weight before any product reads it
    fg = f * g
    if fg.is_zero():
        # chain without up/down excursions: loops only
        f, g, h = _read(f, g, h, order)
        return (1 - h).inverse()
    w = order + fg.valuation()
    f, g, h = _read(f, g, h, w)
    omh = 1 - h
    root = (omh * omh - 4 * (f * g)).sqrt()
    return ((omh - root) / (2 * (f * g))).truncate(order)


def grand_excursion_closed(f, g, h, order: int) -> Series:
    """1 / sqrt((1-h)^2 - 4fg) for constant two-sided weights."""
    f, g, h = _read(f, g, h, check_size("order", order))
    omh = 1 - h
    return (omh * omh - 4 * (f * g)).sqrt().inverse()


def meander_closed(f, g, h, order: int) -> Series:
    """(1 - 2f - h - sqrt((1-h)^2 - 4fg)) / (2f (f+g+h-1)) for constant
    level weights; f, g, h must carry order + valuation(f) coefficients."""
    check_size("order", order)
    _check(f, g, h, 0)  # names a bad weight before any product reads it
    if f.is_zero():
        f, g, h = _read(f, g, h, order)
        return (1 - h).inverse()
    w = order + f.valuation()
    f, g, h = _read(f, g, h, w)
    omh = 1 - h
    root = (omh * omh - 4 * (f * g)).sqrt()
    num = 1 - 2 * f - h - root
    den = 2 * f * (f + g + h - 1)
    return (num / den).truncate(order)


def grand_meander_closed(f, g, h, order: int) -> Series:
    """1 / (1 - f - g - h) for constant two-sided weights: every step
    sequence is admissible, weighted per step."""
    f, g, h = _read(f, g, h, check_size("order", order))
    return (1 - f - g - h).inverse()
