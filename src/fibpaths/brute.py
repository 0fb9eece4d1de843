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

This module is the ground-truth oracle, adding up actual paths:
it knows nothing about series, continued fractions or automata.
"""

from __future__ import annotations

from ._checks import CONSTRAINTS, check_family, check_k, check_size

__all__ = [
    "BudgetExceeded",
    "COUNT_BUDGET",
    "check_budget",
    "count_paths",
    "path_counts",
]

COUNT_BUDGET = 1000


class BudgetExceeded(ValueError):
    """Path length beyond what brute-force counting is allowed to do."""


def check_budget(name: str, n: int) -> None:
    """Refuse a path length `n`, the argument `name`, past COUNT_BUDGET."""
    if check_size(name, n) > COUNT_BUDGET:
        raise BudgetExceeded(
            "%s: length %d exceeds the enumeration budget %d" % (name, n, COUNT_BUDGET)
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
