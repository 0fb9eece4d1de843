"""Brute-force enumeration of colored Motzkin-like paths.

A path is a sequence of steps U=(1,1), D=(1,-1) and horizontal runs
H(l)=(l,0) with l >= 1; a run of length l carries weight F_{k,l} (its
number of colorings), so adjacent short runs and one long run are distinct
step sequences.  The four families constrain level sign and endpoint:

    fib           never below 0, ends at 0
    grand         ends at 0
    prefix        never below 0
    grand-prefix  unconstrained

This module is the ground-truth oracle: it knows nothing about series,
continued fractions or automata.
"""

from __future__ import annotations

from ._checks import FAMILIES, check_family, check_k, check_size
from .kfib import kfib

__all__ = [
    "BudgetExceeded",
    "CONSTRAINTS",
    "COUNT_BUDGET",
    "FAMILIES",
    "LIST_BUDGET",
    "check_budget",
    "count_paths",
    "list_paths",
]

# family -> (must stay nonnegative, must end at level 0)
CONSTRAINTS = {
    "fib": (True, True),
    "grand": (False, True),
    "prefix": (True, False),
    "grand-prefix": (False, False),
}

COUNT_BUDGET = 14
LIST_BUDGET = 6


class BudgetExceeded(ValueError):
    """Path length beyond what exhaustive enumeration is allowed to do."""


def check_budget(name: str, n: int, budget: int = COUNT_BUDGET) -> None:
    """Refuse a path length `n`, the argument `name`, past `budget`."""
    if check_size(name, n) > budget:
        raise BudgetExceeded(
            "%s: length %d exceeds the enumeration budget %d" % (name, n, budget)
        )


def count_paths(family: str, k: int, n: int, memo: bool = False) -> int:
    """Total weight of family paths of length exactly n.

    Plain recursion over the next step; memo=True caches on (remaining,
    level), advisable for n > 10; n > COUNT_BUDGET raises BudgetExceeded.
    """
    check_family(family)
    check_k(k)
    check_budget("n", n)
    nonneg, end_zero = CONSTRAINTS[family]
    weights = [kfib(k, l) for l in range(n + 1)]
    cache: dict = {}

    def walk(rem: int, y: int) -> int:
        if rem == 0:
            return 1 if (y == 0 or not end_zero) else 0
        if memo:
            got = cache.get((rem, y))
            if got is not None:
                return got
        total = walk(rem - 1, y + 1)
        if y > 0 or not nonneg:
            total += walk(rem - 1, y - 1)
        for l in range(1, rem + 1):
            total += weights[l] * walk(rem - l, y)
        if memo:
            cache[rem, y] = total
        return total

    return walk(n, 0)


def list_paths(family: str, k: int, n: int):
    """Every admissible step sequence of length n with its color
    multiplicity, as (steps, weight) pairs; steps are "U", "D" or ("H", l).
    Order is deterministic: U before D before H(1), H(2), ...
    """
    check_family(family)
    check_k(k)
    check_budget("n", n, LIST_BUDGET)
    nonneg, end_zero = CONSTRAINTS[family]
    weights = [kfib(k, l) for l in range(n + 1)]
    out = []

    def extend(rem, y, steps, weight):
        if rem == 0:
            if y == 0 or not end_zero:
                out.append((tuple(steps), weight))
            return
        steps.append("U")
        extend(rem - 1, y + 1, steps, weight)
        steps.pop()
        if y > 0 or not nonneg:
            steps.append("D")
            extend(rem - 1, y - 1, steps, weight)
            steps.pop()
        for l in range(1, rem + 1):
            steps.append(("H", l))
            extend(rem - l, y, steps, weight * weights[l])
            steps.pop()

    extend(n, 0, [], 1)
    return out
