"""Brute-force counts of colored Motzkin-like paths.

A path is a sequence of steps U=(1,1), D=(1,-1) and horizontal runs
H(l)=(l,0) with l >= 1; a run of length l carries weight F_{k,l} (its
number of colorings), so adjacent short runs and one long run are distinct
step sequences.  The four families constrain level sign and endpoint, by
the table `CONSTRAINTS` that lives in `_checks`:

    fib           never below 0, ends at 0
    grand         ends at 0
    prefix        never below 0
    grand-prefix  unconstrained

This module is the ground-truth oracle, adding up or listing actual paths:
it knows nothing about series, continued fractions or automata.
"""

from __future__ import annotations

from ._checks import CONSTRAINTS, check_family, check_k, check_size
from .kfib import kfib

__all__ = [
    "BudgetExceeded",
    "COUNT_BUDGET",
    "LIST_BUDGET",
    "check_budget",
    "count_paths",
    "list_paths",
    "path_counts",
]

COUNT_BUDGET = 1000
LIST_BUDGET = 6


class BudgetExceeded(ValueError):
    """Path length beyond what brute-force counting is allowed to do."""


def check_budget(name: str, n: int, budget: int = COUNT_BUDGET) -> None:
    """Refuse a path length `n`, the argument `name`, past `budget`."""
    if check_size(name, n) > budget:
        raise BudgetExceeded(
            "%s: length %d exceeds the enumeration budget %d" % (name, n, budget)
        )


def path_counts(family: str, k: int, n_max: int) -> list[int]:
    """Total weight of family paths of each length 0..n_max, by one forward
    pass; n_max > COUNT_BUDGET raises BudgetExceeded.

    a_t(y) weighs the prefixes of length t ending at height y, r_t(y) those
    ending in a run.  As F_{k,l} = k F_{k,l-1} + F_{k,l-2}, a run is a
    two-state automaton: r_t = a_{t-1} + k r_{t-1} + r_{t-2}, and a_t(y) is
    r_t(y) + a_{t-1}(y-1) + a_{t-1}(y+1).
    """
    check_family(family)
    check_k(k)
    check_budget("n_max", n_max)
    nonneg, end_zero = CONSTRAINTS[family]
    axis = 0 if nonneg else n_max  # index of height 0; heights reach n_max
    a = [0] * axis + [1] + [0] * n_max
    r = r_prev = [0] * len(a)
    counts = [1]
    for _ in range(n_max):
        r, r_prev = [x + k * y + z for x, y, z in zip(a, r, r_prev)], r
        a = [x + u + d for x, u, d in zip(r, [0] + a[:-1], a[1:] + [0])]
        counts.append(a[axis] if end_zero else sum(a))
    return counts


def count_paths(family: str, k: int, n: int) -> int:
    """Total weight of family paths of length exactly n (see path_counts)."""
    check_budget("n", n)
    return path_counts(family, k, n)[-1]


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
