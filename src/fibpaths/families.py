"""The four path families, each countable by five independent methods.

Family kinds (paths take steps U, D and weighted horizontal runs, see
fibpaths.brute; this table is `_checks.CONSTRAINTS`, and each family's
contfrac evaluators and chain automaton follow from it):

    fib           excursions staying weakly above the axis
    grand         excursions allowed below the axis
    prefix        meanders staying weakly above the axis
    grand-prefix  unconstrained meanders

Methods:

    closed     closed radical generating functions
    cf         depth-truncated continued fractions / meander sums
    automaton  linear solve of the depth-truncated chain automaton
    formula    [z^t] = sum_s S(s) W(k, s, t) over convolved k-Fibonacci
               numbers, with S(s) read off the same table (`coeff`)
    brute      weights of the actual paths, summed step by step (budgeted)

Every method is defined for every family, and all five agree exactly;
`verify_methods` plays them against each other, and `closed` against the
published row of `tables` for k, where there is one.  `row_diff` gives the
cells of one published row for the CLI `tables` subcommand; both compare
through `_published_cells`.
"""

from __future__ import annotations

from collections import namedtuple

from . import automata, brute, contfrac, tables
from ._checks import (CONSTRAINTS, DEPTH_METHODS, FAMILIES, METHODS,
                      check_depth_method, check_family, check_k, check_method,
                      check_size)
from .kfib import binom, catalan, convolved_binomial
from .series import Series, poly

__all__ = [
    "FAMILIES",
    "METHODS",
    "NonIntegralResult",
    "PathCountReport",
    "coeff",
    "default_depth",
    "gf",
    "horizontal_weight",
    "least_depth",
    "row_diff",
    "sequence",
    "verify_methods",
]

class NonIntegralResult(ArithmeticError):
    """A path count came out negative or non-integral; the computation is
    inconsistent.  `gf` refuses any coefficient that is not a nonnegative
    integer with it."""


def horizontal_weight(k: int, order: int) -> Series:
    """Loop weight z/(1 - kz - z^2): a run of length l in k of the F_{k,l}
    colors."""
    check_k(k)
    check_size("order", order)
    return poly([0, 1], order) / poly([1, -k, -1], order)


def _level(k: int, order: int) -> contfrac.CFLevel:
    step = poly([0, 1], order)
    h = horizontal_weight(k, order)
    return contfrac.CFLevel(step, step, h, step, step, h)


def _depth_is_order(family: str, order: int, method: str) -> bool:
    """Checks the arguments of a depth rule and says whether the depth must
    be `order`: the automaton of a meander family has every state final, and
    the all-up walk escapes a depth-s chain after s steps."""
    check_family(family)
    check_size("order", order)
    return check_depth_method(method) == "automaton" and not CONSTRAINTS[family][1]


def default_depth(family: str, order: int, method: str) -> int:
    """A truncation depth that keeps the result exact through `order`, for
    a method in DEPTH_METHODS; the others take no depth.

    It is sufficient, not the least (see `least_depth`): the CF evaluators
    are relative to each base level, so ceil(order/2)+1 levels always
    suffice; the automaton of a meander family needs depth = order.
    """
    return order if _depth_is_order(family, order, method) else (order + 1) // 2 + 1


def least_depth(family: str, order: int, method: str) -> int:
    """The least truncation depth that keeps the result exact through `order`.

    A depth-s truncation is exact through z^(2s+1), so order // 2 levels
    suffice, except for the automaton of a meander family, which needs
    depth = order.  One depth less gives a wrong count at z^order.
    """
    return order if _depth_is_order(family, order, method) else order // 2


def gf(family: str, k: int, order: int, method: str = "closed",
       depth: int | None = None) -> Series:
    """Generating function of the family, exact through `order` (required,
    like `sequence`'s `n_max`).  `depth` overrides the truncation depth of
    the cf and automaton methods; other methods refuse it.  A depth past
    `default_depth` gives the same series, so only that one is walked.
    Every coefficient is a count: the first that is not a nonnegative
    integer raises NonIntegralResult."""
    check_family(family)
    check_method(method)
    check_k(k)
    n = check_size("order", order)
    if depth is not None:
        check_size("depth", depth)
        check_depth_method(method)
    if method == "closed":
        out = _closed(family, k, n)
    elif method == "cf":
        out = _cf(family, k, n, _walked_depth(family, n, method, depth))
    elif method == "automaton":
        out = _automaton(family, k, n, _walked_depth(family, n, method, depth))
    elif method == "formula":
        out = Series([coeff(family, k, t) for t in range(n + 1)])
    else:
        brute.check_budget("order", n)
        out = Series(brute.path_counts(family, k, n))
    for t, c in enumerate(out.coefficients()):
        if c < 0 or c.denominator != 1:
            raise NonIntegralResult("%s/%s count for k=%d, n=%d is not a "
                                    "nonnegative integer: %s" % (family, method, k, t, c))
    return out


def _evaluator(family: str, kind: str):
    """The family's contfrac evaluator of `kind` ("closed" or "cf"), looked
    up on the contfrac module at call time, so that a wrapper put there
    sees every call."""
    nonneg, ends_at_0 = CONSTRAINTS[family]
    stem = ("" if nonneg else "grand_") + ("excursion" if ends_at_0 else "meander")
    return getattr(contfrac, "%s_%s" % (stem, kind))


def _closed(family: str, k: int, order: int) -> Series:
    f, g, h = _level(k, order + 2)[:3]
    return _evaluator(family, "closed")(f, g, h, order)


def _walked_depth(family: str, order: int, method: str, depth: int | None) -> int:
    """`depth`, or `default_depth` when `depth` is None or deeper."""
    s = default_depth(family, order, method)
    return s if depth is None else min(depth, s)


def _cf(family: str, k: int, order: int, s: int) -> Series:
    cf = _evaluator(family, "cf")
    # a meander's tail E_j reads levels j .. j+s for every j through order
    return cf([_level(k, order)] * (order + s + 1), s, order)


def _automaton(family: str, k: int, order: int, s: int) -> Series:
    nonneg, ends_at_0 = CONSTRAINTS[family]
    chain = automata.build_chain("linear" if nonneg else "bilinear", s,
                                 [_level(k, order)] * (s + 1), not ends_at_0)
    return automata.solve(chain, order)


# -- the coefficient-sum formula ----------------------------------------------


def _runs_among(k: int, s: int, t: int) -> int:
    """W(k, s, t) = sum_l C(s+l, l) F^(l)_{k, t-s-l+1}: l >= 0 horizontal
    runs of total length m = t - s placed among s unit steps.  A run weighs
    h = z/(1 - kz - z^2) by its length, so l runs of total length m weigh
    [z^m] h^l = [z^(m-l)] (1 - kz - z^2)^(-l) = F^(l)_{k, m-l+1}."""
    return sum(binom(s + l, l) * convolved_binomial(k, t - s - l, l)
               for l in range(t - s + 1))


# (stays nonnegative, ends at 0) -> S(s), the words of s unit steps U, D
# that a family of that kind allows: Dyck words, balanced words, ballot
# prefixes, all words
_SKELETONS = {
    (True, True): lambda s: 0 if s % 2 else catalan(s // 2),
    (False, True): lambda s: 0 if s % 2 else binom(s, s // 2),
    (True, False): lambda s: binom(s, s // 2),
    (False, False): lambda s: 2**s,
}


def coeff(family: str, k: int, t: int) -> int:
    """[z^t] of the family's GF as sum_s S(s) W(k, s, t): each path is a
    skeleton of s unit steps, S(s) of them allowed by the family's
    constraints, with horizontal runs of total length t - s among them."""
    check_family(family)
    check_k(k)
    check_size("t", t)
    skeletons = _SKELETONS[CONSTRAINTS[family]]
    total = 0
    for s in range(t + 1):
        count = skeletons(s)
        if count:
            total += count * _runs_among(k, s, t)
    return total


# -- reports ------------------------------------------------------------------


class PathCountReport(namedtuple("PathCountReport", "family k method counts")):
    """Counts of one family for n = 0..n_max by one method."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1

    def to_json_dict(self) -> dict:
        # counts as decimal strings: they outgrow doubles quickly
        return {
            "family": self.family,
            "k": self.k,
            "method": self.method,
            "n_max": self.n_max,
            "counts": [str(c) for c in self.counts],
        }


def sequence(family: str, k: int, n_max: int, method: str = "closed",
             depth: int | None = None) -> PathCountReport:
    """Counts for n = 0..n_max as a report; `gf` has checked each to be a
    nonnegative integer before anything is emitted."""
    check_size("n_max", n_max)
    return PathCountReport(family, k, method,
                           tuple(map(int, gf(family, k, n_max, method, depth).coefficients())))


def _published_cells(family: str, k: int, counts) -> list[tuple]:
    """(n, published, counted) for every length n of k's published row that
    `counts`, indexed by length, reaches, in order of n; none for a k
    without a published row (k >= 5)."""
    rows, start = tables.PUBLISHED[family]
    return [(n, want, counts[n])
            for n, want in enumerate(rows.get(k, ()), start) if n < len(counts)]


def row_diff(family: str, k: int) -> list[tuple]:
    """Recompute one published row with the closed method; returns
    (n, expected, got) cell triples."""
    rows, start = tables.PUBLISHED[check_family(family)]
    if check_k(k) not in rows:
        raise ValueError("k must be in %s for a published row, got %r" % (sorted(rows), k))
    last = start + len(rows[k]) - 1
    return _published_cells(family, k, sequence(family, k, last, "closed").counts)


def verify_methods(family: str, k: int, n_max: int, brute_max: int = 10,
                   depth: int | None = None) -> list[tuple]:
    """Cross-check every method against the closed form, and the closed
    form against the published row of `tables` for k, where there is one
    (k <= 4), at every length it has up to n_max.

    Returns one mismatch tuple (family, k, n, method_a, method_b, value_a,
    value_b) for every n at which two differ: first ("published", "closed")
    by n, then ("closed", method) by method and then by n; empty means full
    agreement.  `depth` truncates cf and automaton only.
    A bad `depth` and a brute-force window past COUNT_BUDGET are refused
    before anything is counted.
    """
    check_family(family)
    check_k(k)
    top = min(check_size("brute_max", brute_max), check_size("n_max", n_max))
    brute.check_budget("brute_max", top)
    if depth is not None:
        check_size("depth", depth)

    reference = sequence(family, k, n_max, "closed").counts
    mismatches = [(family, k, n, "published", "closed", want, got)
                  for n, want, got in _published_cells(family, k, reference)
                  if got != want]
    for method in ("cf", "automaton", "formula", "brute"):
        if method == "brute":
            got = [brute.count_paths(family, k, n) for n in range(top + 1)]
        else:
            got = sequence(family, k, n_max, method,
                           depth if method in DEPTH_METHODS else None).counts
        mismatches += [(family, k, n, "closed", method, want, value)
                       for n, (want, value) in enumerate(zip(reference, got))
                       if value != want]
    return mismatches
