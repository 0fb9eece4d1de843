"""Shared helpers for the test suite."""

from fractions import Fraction
from math import factorial, prod

import pytest

from fibpaths import _backend
from fibpaths._checks import CONSTRAINTS, check_k, check_levels, check_size, check_weight
from fibpaths.contfrac import CFLevel, excursion_cf, grand_excursion_cf
from fibpaths.families import _SKELETONS, horizontal_weight
from fibpaths.kfib import binom, catalan, convolved_binomial, kfib
from fibpaths.series import Series, one, poly, zero


# the Motzkin numbers M_0 .. M_9 (OEIS A001006)
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]


def ints(series):
    """Coefficients of a series as plain ints; fails if any is non-integral."""
    cs = series.coefficients()
    assert all(c.denominator == 1 for c in cs), "non-integral coefficient in %r" % (series,)
    return [int(c) for c in cs]


def fracs(values):
    return [Fraction(v) for v in values]


def kernel_calls(run):
    """run() and the (mul, inv) kernel calls it makes, counted on the
    kernels `Series` looks up at call time."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("mul", "inv"):
            real = getattr(_backend.kernels, name)

            def counting(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            mp.setattr(_backend.kernels, name, counting)
        result = run()
    return result, (calls.count("mul"), calls.count("inv"))


def long_division(num, den, m):
    """First m coefficients of num/den by schoolbook long division.

    Independent oracle for the reciprocal/division kernels: keeps a running
    remainder, emits r[0]/den[0], subtracts, shifts.  num and den are
    coefficient lists, den[0] != 0.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    rem = num + [Fraction(0)] * max(0, m - len(num))
    out = []
    for _ in range(m):
        q = rem[0] / den[0]
        out.append(q)
        for i, d in enumerate(den):
            if i < len(rem):
                rem[i] -= q * d
        rem = rem[1:] + [Fraction(0)]
    return out


# -- independent references ------------------------------------------------------
#
# No count needs these; they check the package's own routes against a
# second derivation.


def convolved_gf(k, r, order):
    """(1 - k x - x^2)^(-r) as a series; its coefficient of x^j is the
    r-fold convolved number F^(r)_{k,j+1}.  r = 0 gives the series 1."""
    check_k(k)
    check_size("r", r)
    check_size("order", order)
    if r == 0:
        return one(order)
    return poly([1, -k, -1], order).inverse() ** r


def motzkin_gf(order):
    """Closed Motzkin GF (1 - z - sqrt(1 - 2z - 3z^2)) / (2 z^2), the
    reference for the chain solver on unit-weight chains."""
    w = check_size("order", order) + 2
    root = poly([1, -2, -3], w).sqrt()
    return ((poly([1, -1], w) - root) / poly([0, 0, 2], w)).truncate(order)


# kind -> the continued fraction that evaluates the chain `build_chain` builds
CHAIN_ROUTES = {"linear": excursion_cf, "bilinear": grand_excursion_cf}


# -- constant chains ---------------------------------------------------------------


def _constant_chain(h, order, count, two_sided):
    step = poly([0, 1], order)
    primed = (step, step, h) if two_sided else ()
    return [CFLevel(step, step, h, *primed)] * count


def unit_levels(order, count, two_sided=False):
    """`count` levels of the Motzkin chain: every weight z."""
    return _constant_chain(poly([0, 1], order), order, count, two_sided)


def kfib_levels(k, order, count, two_sided=False):
    """`count` levels of the k-Fibonacci chain: steps z, loops z/(1 - kz - z^2)."""
    return _constant_chain(horizontal_weight(k, order), order, count, two_sided)


class IndexMismatch(ValueError):
    """Multinomial parts that do not sum to the top index."""


def multinom(n, parts):
    """Multinomial coefficient n! / prod(p!); parts must sum to n."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise IndexMismatch(
            "parts %r do not form a weak composition of %d" % (parts, n)
        )
    return factorial(n) // prod(factorial(p) for p in parts)


# -- slow references for the fast paths -----------------------------------------
#
# Each is the full-precision code the package used before its fast path: the
# reciprocal kernel runs on Fractions, the continued fractions evaluate every
# level and every meander tail through the full order, the automaton solve
# carries every state through the full order, the formula sums add
# Fractions, and the path count and the path list recurse over the next step.


def count_paths_reference(family, k, n):
    """Total weight of family paths of length n, by plain recursion over the
    next step: U, D (where allowed) or a run H(l) of weight F_{k,l}."""
    nonneg, end_zero = CONSTRAINTS[family]
    weights = [kfib(k, l) for l in range(n + 1)]

    def walk(rem, y):
        if rem == 0:
            return 1 if (y == 0 or not end_zero) else 0
        total = walk(rem - 1, y + 1)
        if y > 0 or not nonneg:
            total += walk(rem - 1, y - 1)
        for l in range(1, rem + 1):
            total += weights[l] * walk(rem - l, y)
        return total

    return walk(n, 0)


def list_paths(family, k, n):
    """Every admissible step sequence of length n with its color
    multiplicity, as (steps, weight) pairs; steps are "U", "D" or ("H", l).
    The recursion of count_paths_reference, listing instead of summing, so
    the order is U before D before H(1), H(2), ..."""
    nonneg, end_zero = CONSTRAINTS[family]
    weights = [kfib(k, l) for l in range(n + 1)]
    out = []

    def walk(rem, y, steps, weight):
        if rem == 0:
            if y == 0 or not end_zero:
                out.append((tuple(steps), weight))
            return
        walk(rem - 1, y + 1, steps + ["U"], weight)
        if y > 0 or not nonneg:
            walk(rem - 1, y - 1, steps + ["D"], weight)
        for l in range(1, rem + 1):
            walk(rem - l, y, steps + [("H", l)], weight * weights[l])

    walk(n, 0, [], 1)
    return out


def inv_reference(a, m):
    """The reciprocal kernel's recurrence on Fractions for every input:
    b_0 = 1/a_0 and b_n = -(sum_{i=1..n} a_i b_{n-i}) / a_0."""
    la = len(a)
    inv0 = Fraction(1) / a[0]
    b = [inv0]
    for n in range(1, m):
        acc = Fraction(0)
        for i in range(1, min(n, la - 1) + 1):
            ai = a[i]
            if ai:
                acc += ai * b[n - i]
        b.append(-acc * inv0)
    return b


def excursion_cf_reference(levels, depth, order):
    check_levels(levels, depth, order)
    unit = one(order)
    e = (unit - levels[depth].h).inverse()
    for i in range(depth - 1, -1, -1):
        lvl = levels[i]
        e = (unit - lvl.h - lvl.f * lvl.g * e).inverse()
    return e


def mirror_reference(levels, keep_root_loop=True):
    """The chain seen by a walk below the axis: f -> g', g -> f', loops h';
    the level-0 loop is shared between the two sides unless
    `keep_root_loop` is false.  A copy kept here, so that the references
    do not call the contfrac code they check."""
    out = []
    for i, lvl in enumerate(levels):
        h = lvl.h if (i == 0 and keep_root_loop) else lvl.hp
        out.append(CFLevel(lvl.gp, lvl.fp, h))
    return out


def grand_excursion_cf_reference(levels, depth, order):
    check_levels(levels, depth, order, primed=True)
    unit = one(order)
    if depth == 0:
        return (unit - levels[0].h).inverse()
    lvl0 = levels[0]
    up = excursion_cf_reference(levels[1:], depth - 1, order)
    down = excursion_cf_reference(
        mirror_reference(levels[1:], keep_root_loop=False), depth - 1, order
    )
    return (
        unit - lvl0.h - lvl0.f * lvl0.g * up - lvl0.fp * lvl0.gp * down
    ).inverse()


def meander_cf_reference(levels, depth, order):
    check_levels(levels, depth, order)
    cache: dict = {}

    def tail(j):
        key = tuple(id(lvl) for lvl in levels[j : j + depth + 1])
        got = cache.get(key)
        if got is None:
            got = cache[key] = excursion_cf_reference(levels[j:], depth, order)
        return got

    total = Series([0] * (order + 1))
    prefix = one(order)
    j = 0
    while prefix.valuation() <= order:
        if j + depth >= len(levels):
            raise ValueError(
                "need at least %d levels for order %d at depth %d"
                % (order + depth + 1, order, depth)
            )
        check_weight(levels[j].f, "f[%d]" % j, order)  # the prefix reads it
        e = tail(j)
        total = total + prefix * e
        prefix = prefix * levels[j].f * e
        j += 1
    return total


def _mirror_shared(levels):
    """mirror_reference(levels), except that the repeats of one level share
    one mirrored level, so that the id-keyed tail cache of the meander
    reference hits on a constant mirrored chain; its result is the same."""
    first = {}
    return [
        first.setdefault((id(lvl), i == 0), m)
        for i, (lvl, m) in enumerate(zip(levels, mirror_reference(levels)))
    ]


def grand_meander_cf_reference(levels, depth, order):
    check_levels(levels, depth, order, primed=True)
    mirrored = _mirror_shared(levels)
    e = excursion_cf_reference(levels, depth, order)
    ep = excursion_cf_reference(mirrored, depth, order)
    g = meander_cf_reference(levels, depth, order)
    gp = meander_cf_reference(mirrored, depth, order)
    h0 = levels[0].h
    num = ep * g + e * gp - e * ep
    den = e + ep - e * ep * (one(order) - h0)
    return num / den


def solve_reference(auto, order):
    """The initial state's generating function with every state's row,
    right-hand side and weights carried through the full `order`, by its own
    elimination in row order: it skips the zero entries `solve` skips, so it
    makes the kernel calls of a full-order solve, and pads nothing."""
    n = auto.n_states
    rows = [{i: one(order)} for i in range(n)]
    for src, dst, w in auto.transitions:
        if w.is_zero():
            continue
        w = w.truncate(order)
        cur = rows[src].get(dst)
        rows[src][dst] = (cur - w) if cur is not None else -w
    rhs = [one(order) if q in auto.finals else zero(order) for q in range(n)]
    for col in range(n):
        for i in range(col + 1, n):
            entry = rows[i].pop(col, zero(order))
            if entry.is_zero():
                continue
            factor = entry / rows[col][col]
            for j, v in rows[col].items():
                if j > col and not v.is_zero():
                    rows[i][j] = rows[i].get(j, zero(order)) - factor * v
            if not rhs[col].is_zero():
                rhs[i] = rhs[i] - factor * rhs[col]
    xs = [None] * n
    for i in range(n - 1, -1, -1):
        for j, v in rows[i].items():
            if j > i and not v.is_zero():
                rhs[i] = rhs[i] - v * xs[j]
        xs[i] = rhs[i] / rows[i][i]
    return xs[auto.initial]


def coeff_reference(family, k, t):
    """[z^t] of the family's GF as sum_s S(s) W(k, s, t), with the runs
    W(k, s, t) = sum_l C(s+l, l) F^(l)_{k, t-s-l+1}: l >= 0 horizontal runs of
    total length m = t - s placed among s unit steps.  A run weighs
    h = z/(1 - kz - z^2) by its length, so l runs of total length m weigh
    [z^m] h^l = [z^(m-l)] (1 - kz - z^2)^(-l) = F^(l)_{k, m-l+1}.  The slow
    reference of `families._formula_counts`: cubic in t, over the convolved
    k-Fibonacci numbers its integer rows never read."""
    skeletons = _SKELETONS[CONSTRAINTS[family]]
    return sum(skeletons(s) * binom(s + l, l) * convolved_binomial(k, t - s - l, l)
               for s in range(t + 1) for l in range(t - s + 1))


def coeff_fib_reference(k, t):
    total = 0
    for n in range(t // 2 + 1):
        cn = catalan(n)
        for m in range(t - 2 * n + 1):
            c = convolved_binomial(k, t - 2 * n - m, m)
            if c:
                total += cn * binom(m + 2 * n, m) * c
    return total


def coeff_grand_reference(k, t):
    if t == 0:
        return 1
    total = Fraction(kfib(k + 1, t))
    for n in range(1, t // 2 + 1):
        for m in range((t - 2 * n) // 2 + 1):
            base = Fraction(2**n * n, n + 2 * m) * binom(n + 2 * m, m)
            for l in range(t - 2 * n - 2 * m + 1):
                c = convolved_binomial(k, t - 2 * n - 2 * m - l, l)
                if c:
                    total += base * binom(l + 2 * n + 2 * m, l) * c
    assert total.denominator == 1
    return int(total)


def coeff_prefix_reference(k, t):
    total = Fraction(0)
    for n in range(t + 1):
        for m in range((t - n) // 2 + 1):
            pref = Fraction(n + 1, n + m + 1)
            for l in range(t - n - 2 * m + 1):
                c = convolved_binomial(k, t - n - 2 * m - l, l)
                if c:
                    total += pref * multinom(n + 2 * m + l, (m, l, m + n)) * c
    assert total.denominator == 1
    return int(total)
