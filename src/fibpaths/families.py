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
    formula    coefficient sums over convolved k-Fibonacci numbers
    brute      weights of the actual paths, summed step by step (budgeted)

Every method is defined for every family, and all five agree exactly;
`verify_methods` plays them against each other.
"""

from __future__ import annotations

from collections import namedtuple

from . import automata, brute, contfrac
from ._checks import (CONSTRAINTS, DEPTH_METHODS, FAMILIES, METHODS,
                      check_depth_method, check_family, check_k, check_method,
                      check_size)
from .kfib import binom, catalan, convolved_binomial
from .series import DEFAULT_ORDER, Series, poly

__all__ = [
    "FAMILIES",
    "METHODS",
    "NonIntegralResult",
    "PathCountReport",
    "coeff_fib",
    "coeff_grand",
    "coeff_grand_prefix",
    "coeff_prefix",
    "default_depth",
    "gf",
    "horizontal_weight",
    "least_depth",
    "sequence",
    "verify_methods",
]

class NonIntegralResult(ArithmeticError):
    """A path count came out non-integral; the computation is inconsistent."""


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


def default_depth(family: str, order: int, method: str) -> int:
    """A truncation depth that keeps the result exact through `order`, for
    a method in DEPTH_METHODS; the others take no depth.

    It is sufficient, not the least (see `least_depth`): the CF evaluators
    are relative to each base level, so ceil(order/2)+1 levels always
    suffice.  The automaton truncates the chain absolutely; with every state
    final the all-up walk escapes a depth-s chain after s steps, so the
    meander families need depth = order there.
    """
    check_family(family)
    check_size("order", order)
    check_depth_method(method)
    if method == "automaton" and not CONSTRAINTS[family][1]:
        return order
    return (order + 1) // 2 + 1


def least_depth(family: str, order: int, method: str) -> int:
    """The least truncation depth that keeps the result exact through `order`.

    A depth-s truncation is exact through z^(2s+1), so order // 2 levels
    suffice, except for the automaton of the meander families: its chains
    have every state final and are exact only through z^s, so it needs
    depth = order.  One depth less gives a wrong count at z^order.
    """
    check_family(family)
    check_size("order", order)
    check_depth_method(method)
    if method == "automaton" and not CONSTRAINTS[family][1]:
        return order
    return order // 2


def gf(family: str, k: int, order: int | None = None, method: str = "closed",
       depth: int | None = None) -> Series:
    """Generating function of the family, exact through `order`
    (default: series.DEFAULT_ORDER).  `depth` overrides the truncation
    depth of the cf and automaton methods; other methods refuse it."""
    check_family(family)
    check_method(method)
    check_k(k)
    n = DEFAULT_ORDER if order is None else check_size("order", order)
    if depth is not None:
        check_size("depth", depth)
        check_depth_method(method)
    if method == "closed":
        out = _closed(family, k, n)
    elif method == "cf":
        out = _cf(family, k, n, depth)
    elif method == "automaton":
        out = _automaton(family, k, n, depth)
    elif method == "formula":
        out = Series([FORMULAS[family](k, t) for t in range(n + 1)])
    else:
        brute.check_budget("order", n)
        out = Series(brute.path_counts(family, k, n))
    if not out.is_integral():
        raise NonIntegralResult(
            "%s/%s GF for k=%d has non-integral coefficients" % (family, method, k)
        )
    return out


def _evaluator(family: str, kind: str):
    """The family's contfrac evaluator of `kind` ("closed" or "cf"), looked
    up on the contfrac module at call time, so that a wrapper put there
    sees every call."""
    nonneg, ends_at_0 = CONSTRAINTS[family]
    stem = ("" if nonneg else "grand_") + ("excursion" if ends_at_0 else "meander")
    return getattr(contfrac, "%s_%s" % (stem, kind))


def _closed(family: str, k: int, order: int) -> Series:
    w = order + 2
    step = poly([0, 1], w)
    return _evaluator(family, "closed")(step, step, horizontal_weight(k, w), order)


def _cf(family: str, k: int, order: int, depth: int | None) -> Series:
    s = default_depth(family, order, "cf") if depth is None else depth
    cf = _evaluator(family, "cf")
    # a meander's tail E_j reads levels j .. j+s for every j through order
    return cf([_level(k, order)] * (order + s + 2), s, order)


def _automaton(family: str, k: int, order: int, depth: int | None) -> Series:
    s = default_depth(family, order, "automaton") if depth is None else depth
    nonneg, ends_at_0 = CONSTRAINTS[family]
    spec = automata.ChainSpec("linear" if nonneg else "bilinear", s,
                              [_level(k, order)] * (s + 1), not ends_at_0)
    return automata.solve(automata.build_chain(spec), order)


# -- coefficient-sum formulas -------------------------------------------------


def _runs_among(k: int, s: int, t: int) -> int:
    """W(k, s, t) = sum_l C(s+l, l) F^(l)_{k, t-s-l+1}: l >= 0 horizontal
    runs of total length t - s placed among s unit steps.  Each formula
    below sums, over the skeleton length s, its unit-step factor times W."""
    return sum(binom(s + l, l) * convolved_binomial(k, t - s - l, l)
               for l in range(t - s + 1))


def coeff_fib(k: int, t: int) -> int:
    """[z^t] of the fib family: sum over n returning pairs and m runs of
    C(m+2n, m) Catalan(n) F^(m)_{k, t-2n-m+1}."""
    check_k(k)
    check_size("t", t)
    return sum(catalan(n) * _runs_among(k, 2 * n, t) for n in range(t // 2 + 1))


def coeff_grand(k: int, t: int) -> int:
    """[z^t] of the grand family; t = 0 is 1 by convention (empty path).
    Each (n, m) term carries the integer 2^n n/(n+2m) C(n+2m, m)."""
    check_k(k)
    check_size("t", t)
    total = _runs_among(k, 0, t)  # n = 0, runs alone: F_{k+1,t}, and 1 at t = 0
    for j in range(1, t // 2 + 1):  # skeleton length s = 2n + 2m = 2j
        factor = 0
        for n in range(1, j + 1):
            m = j - n
            base, r = divmod(2**n * n * binom(n + 2 * m, m), n + 2 * m)
            if r:
                raise NonIntegralResult(
                    "grand factor k=%d t=%d n=%d m=%d is not an integer" % (k, t, n, m)
                )
            factor += base
        total += factor * _runs_among(k, 2 * j, t)
    return total


def coeff_prefix(k: int, t: int) -> int:
    """[z^t] of the prefix family, a ballot-style triple sum.  Each (n, m)
    term carries the integer (n+1)/(n+m+1) C(n+2m, m); with C(n+2m+l, l)
    that is (n+1)/(n+m+1) times the multinomial (n+2m+l; m, l, m+n)."""
    check_k(k)
    check_size("t", t)
    total = 0
    for s in range(t + 1):  # skeleton length s = n + 2m
        factor = 0
        for m in range(s // 2 + 1):
            n = s - 2 * m
            pref, r = divmod((n + 1) * binom(n + 2 * m, m), n + m + 1)
            if r:
                raise NonIntegralResult(
                    "prefix factor k=%d t=%d n=%d m=%d is not an integer" % (k, t, n, m)
                )
            factor += pref
        total += factor * _runs_among(k, s, t)
    return total


def coeff_grand_prefix(k: int, t: int) -> int:
    """[z^t] of the grand-prefix family, sum over s <= t of 2^s W(k, s, t):
    its GF 1/(1 - 2z - h), with h = z/(1 - kz - z^2) the weight of one run,
    is sum_{s,l} C(s+l, l) (2z)^s h^l by s unit steps and l runs, and
    [z^(t-s)] h^l = [z^(t-s-l)] (1 - kz - z^2)^(-l) = F^(l)_{k, t-s-l+1}."""
    check_k(k)
    check_size("t", t)
    return sum(2**s * _runs_among(k, s, t) for s in range(t + 1))


# family -> its coefficient-sum formula (k, t) -> [z^t]
FORMULAS = {"fib": coeff_fib, "grand": coeff_grand, "prefix": coeff_prefix,
            "grand-prefix": coeff_grand_prefix}


# -- reports ------------------------------------------------------------------


class PathCountReport(namedtuple("PathCountReport", "family k method counts")):
    """Counts of one family for n = 0..n_max by one method."""

    __slots__ = ()

    def __new__(cls, family, k, method, counts):
        return super().__new__(cls, family, k, method, tuple(counts))

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
    """Counts for n = 0..n_max as a report; every count is checked to be a
    nonnegative integer before anything is emitted."""
    check_size("n_max", n_max)
    series = gf(family, k, n_max, method, depth)
    counts = []
    for t in range(n_max + 1):
        c = series.coefficient(t)
        if c < 0:
            raise NonIntegralResult(
                "%s/%s count for k=%d, n=%d is negative: %s" % (family, method, k, t, c)
            )
        counts.append(int(c))
    return PathCountReport(family, k, method, tuple(counts))


def verify_methods(family: str, k: int, n_max: int, brute_max: int = 10,
                   depth: int | None = None) -> list[tuple]:
    """Cross-check every method against the closed form.

    Returns one mismatch tuple (family, k, n, method_a, method_b, value_a,
    value_b) for every n at which a method differs, by method and then by
    n; empty means full agreement.  `depth` truncates cf and automaton only.
    A brute-force window past COUNT_BUDGET is refused before anything is
    counted.
    """
    check_family(family)
    check_k(k)
    top = min(check_size("brute_max", brute_max), check_size("n_max", n_max))
    brute.check_budget("brute_max", top)
    reference = sequence(family, k, n_max, "closed").counts
    mismatches = []
    for method in ("cf", "automaton", "formula"):
        got = sequence(family, k, n_max, method,
                       depth if method in DEPTH_METHODS else None).counts
        for n in range(n_max + 1):
            if got[n] != reference[n]:
                mismatches.append(
                    (family, k, n, "closed", method, reference[n], got[n])
                )
    for n in range(top + 1):
        got_n = brute.count_paths(family, k, n)
        if got_n != reference[n]:
            mismatches.append((family, k, n, "closed", "brute", reference[n], got_n))
    return mismatches
