"""Weighted counting automata over the truncated-series ring.

A weighted automaton here is a finite directed multigraph with series
weights of valuation >= 1 on its edges.  The generating function of state
q counts weighted walks from q into the final set,

    L_q = sum_edges w(q -> q') L_{q'} + [q in finals],

a linear system (I - W) L = F over the series ring.  `solve`, the one
entry point, builds it and solves it exactly for the initial state by
sparse elimination with unit pivots (`_eliminate`).  It numbers the rows by
ascending r(q) (below), so the farthest states go first, ties keep state
order, and the initial state goes last: elimination runs toward the initial
state, whose row then gives L_initial alone, with no back-substitution.
Each pivot row is multiplied by the reciprocal of its pivot, and as
val(W) >= 1, eliminating column c subtracts entry * scaled row c,
val(entry) >= 1, from each later row, so every diagonal entry keeps
constant term 1 and every other entry valuation >= 1, in the rows the
precision rule pads too.  The pivot check that raises SingularSystem (exit 4
in the CLI) guards this invariant.  On a chain this is the continued
fraction of the path counts, evaluated from the deepest level up (Flajolet,
"Combinatorial aspects of continued fractions", Discrete Math. 1980).
Chains built from CF levels (`build_chain`) reproduce the continued-fraction
evaluators state by state: a chain truncated at depth s is exact through
z^(2s+1) when only the level-0 state is final (the first walk it misses
climbs s+1 levels and comes back, 2s+2 steps), but only through z^s when
every state is final (the all-up walk leaves the truncated chain after s
steps).

Precision rule: a walk reaches state q only behind edges whose valuations
sum to at least d(q), the least such sum over walks from the initial state,
so L_q affects the initial state's series only from z^d(q) on.  `solve`
therefore carries row q, its right-hand side and its weights only through
z^r(q), r(q) = min(order, max(order - d(q), 1)); an unreachable state takes
r = 1, and every r is 0 when `order` is 0.  Where elimination meets row i
with a scaled pivot-row entry or right-hand side of a row j of lower order,
that series is padded with zeros to row i's order; the padded coefficients
land past it, because the entry of row i that multiplies them has
valuation at least d(j) - d(i).  That bound holds in any elimination order:
the entry sums walks from i to j through eliminated states, and d(j) is at
most d(i) plus the valuation of each.  The floor of 1 keeps every
valuation-1 weight nonzero, so on a chain, where elimination creates no
entries, each state's scaled row holds one neighbour nearer the initial
state: a state costs one reciprocal of its unit pivot, and a product of it
with that entry and one with its right-hand side unless that is zero at its
own order.  Elimination runs on coefficient lists, not on Series: each
weight becomes a list once, of ints when all its coefficients through
z^r(src) are integral and of its stored Fractions otherwise, so a chain of
integer weights is solved on ints alone, and only the result is a Series.
`solve` returns the Series a full-order solve gives, with the same order.

`solve` first checks `order` and the automaton by the `_checks` rules and
raises InvalidAutomaton naming the first bad part: `order`, an `auto` that is
no WeightedAutomaton, `n_states`, the initial state, `finals` when it is no
iterable of hashable states, a final state, `transitions` when it is no
iterable, a transition that is no (src, dst, weight) triple, or a weight.
It reads `finals` and `transitions` once, so the class, `_make`, `_replace`
and one-shot iterators give the same count.  A zero weight is checked like
any other; `_eliminate` is the one place it is skipped.

With every weight z, a linear chain counts Motzkin paths; the test suite
checks `solve` there against the closed Motzkin generating function.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from ._backend import kernels
from ._checks import check_levels, check_size, check_weight
from .series import Series

__all__ = [
    "InvalidAutomaton",
    "SingularSystem",
    "WeightedAutomaton",
    "build_chain",
    "solve",
]


class InvalidAutomaton(ValueError):
    """Automaton violating the structural invariants."""


class SingularSystem(ArithmeticError):
    """A pivot met in elimination order is missing or has constant term 0."""


class WeightedAutomaton(
    namedtuple("WeightedAutomaton", "n_states initial finals transitions")
):
    """States 0..n_states-1; transitions are (src, dst, weight) triples."""

    __slots__ = ()


def _is_state(q, n: int) -> bool:
    """Whether q is a state number: a size (`check_size`) below n."""
    try:
        return check_size("state", q) < n
    except ValueError:
        return False


def _check(auto: WeightedAutomaton, order: int) -> WeightedAutomaton:
    """Raise InvalidAutomaton naming the first bad part (module docstring);
    return `auto` with `finals` read into a frozenset, `transitions` a tuple."""
    try:
        check_size("order", order)
        if not isinstance(auto, WeightedAutomaton):
            raise ValueError("auto must be a WeightedAutomaton, got %r" % (auto,))
        n = check_size("n_states", auto.n_states)
        if not _is_state(auto.initial, n):
            raise ValueError("initial state %r is not a state number" % (auto.initial,))
        try:
            finals = frozenset(auto.finals)
        except TypeError:
            raise ValueError("finals must be an iterable of state numbers, got %r"
                             % (auto.finals,)) from None
        for q in sorted(finals, key=repr):
            if not _is_state(q, n):
                raise ValueError("final state %r is not a state number" % (q,))
        try:
            transitions = tuple(auto.transitions)
        except TypeError:
            raise ValueError("transitions must be an iterable of (src, dst, weight) "
                             "triples, got %r" % (auto.transitions,)) from None
        for idx, t in enumerate(transitions):
            if not isinstance(t, (tuple, list)) or len(t) != 3:
                raise ValueError("transition %d is no (src, dst, weight) triple: %r" % (idx, t))
            src, dst, w = t
            if not (_is_state(src, n) and _is_state(dst, n)):
                raise ValueError("transition %d endpoints (%r, %r) are not state numbers"
                                 % (idx, src, dst))
            check_weight(w, "transition %d (%d->%d) weight" % (idx, src, dst), order)
    except ValueError as exc:
        raise InvalidAutomaton(str(exc)) from None
    return auto._replace(finals=finals, transitions=transitions)


def _eliminate(rows, rhs):
    """Solve M x = rhs over the series ring for the last unknown, M given as
    sparse rows (dicts column -> coefficient list, index = exponent) and rhs
    as coefficient lists, by elimination in row order, overwriting rows and
    rhs.  Each pivot is inverted at most once, and the nonzero entries of its
    row and a nonzero right-hand side are multiplied by that one reciprocal;
    every later row with an entry in the pivot's column subtracts
    entry * scaled row.  The last row is then rhs * (1 / pivot), returned as
    the one Series built here.  For M = I - W with val(W) >= 1 every pivot
    is a unit (module docstring); SingularSystem names the first column
    whose pivot is missing or has constant term 0.  Row i is carried to the
    length of rhs[i]: `kernels.mul` reads what a shorter operand lacks as
    zeros, which pads it (the precision rule, which holds in any row order;
    `solve` picks the order).  A zero entry, from a zero weight or from
    elimination, or a zero right-hand side is skipped only here, at no
    kernel call."""
    n = len(rows)
    for col in range(n):
        pivot = rows[col].pop(col, None)
        if pivot is None or not pivot[0]:
            raise SingularSystem("column %d has no unit pivot in row order" % col)
        m = len(rhs[col])
        if col == n - 1:
            return Series(kernels.mul(rhs[col], kernels.inv(pivot, m), m))
        entries = [(j, v) for j, v in rows[col].items() if any(v)]
        has_rhs = any(rhs[col])
        recip = kernels.inv(pivot, m) if entries or has_rhs else None
        scaled = [(j, kernels.mul(v, recip, m)) for j, v in entries]
        x = kernels.mul(rhs[col], recip, m) if has_rhs else None
        for i in range(col + 1, n):
            entry = rows[i].pop(col, None)
            if entry is None or not any(entry):
                continue
            r = len(rhs[i])
            for j, v in scaled:
                nxt = _minus(rows[i].get(j), kernels.mul(entry, v, r))
                if any(nxt):
                    rows[i][j] = nxt
                else:
                    rows[i].pop(j, None)
            if x is not None:
                rhs[i] = _minus(rhs[i], kernels.mul(entry, x, r))


def _minus(a, b):
    """a - b coefficient by coefficient through the shorter list, as `Series`
    subtracts; -b when `a` is None, an entry not yet in its row."""
    return [-y for y in b] if a is None else [x - y for x, y in zip(a, b)]


def _coefficient_list(w: Series, r: int) -> list:
    """The coefficients of `w` through z^r: ints when each is integral, else
    the stored Fractions."""
    cs = w.coefficients()[: r + 1]
    if all(c.denominator == 1 for c in cs):
        return [c.numerator for c in cs]
    return list(cs)


def _state_orders(auto: WeightedAutomaton, order: int) -> list[int]:
    """r(q) = min(order, max(order - d(q), 1)) for every state q, d(q) the
    least total edge valuation of a walk from the initial state to q
    (Dijkstra, which never relaxes a zero weight's valuation inf;
    unreachable states get r = 1)."""
    out_edges = [[] for _ in range(auto.n_states)]
    for src, dst, w in auto.transitions:
        out_edges[src].append((w.valuation(), dst))
    dist = {auto.initial: 0}
    heap = [(0, auto.initial)]
    while heap:
        d, q = heapq.heappop(heap)
        if d > dist[q]:
            continue
        for v, dst in out_edges[q]:
            if d + v < dist.get(dst, math.inf):
                dist[dst] = d + v
                heapq.heappush(heap, (d + v, dst))
    return [
        min(order, max(order - dist.get(q, math.inf), 1))
        for q in range(auto.n_states)
    ]


def solve(auto: WeightedAutomaton, order: int) -> Series:
    """Generating function of the initial state, exact through `order`,
    carrying each state only as far as the module's precision rule needs.
    InvalidAutomaton names the first bad part of `auto`, or a bad `order`."""
    auto = _check(auto, order)
    r = _state_orders(auto, order)
    # farthest states first (ties in state order), the initial state last
    states = sorted(range(auto.n_states), key=lambda q: (r[q], q == auto.initial))
    at = {q: i for i, q in enumerate(states)}
    rows = [{i: [1] + [0] * r[q]} for i, q in enumerate(states)]
    for src, dst, w in auto.transitions:
        w = _coefficient_list(w, r[src])
        row = rows[at[src]]
        row[at[dst]] = _minus(row.get(at[dst]), w)
    rhs = [[int(q in auto.finals)] + [0] * r[q] for q in states]
    return _eliminate(rows, rhs)


def build_chain(kind: str, depth: int, levels, all_final: bool = False) -> WeightedAutomaton:
    """Chain automaton truncated at `depth`: `kind` is "linear" or
    "bilinear", and `levels[i]` supplies the weights at level i (and, for a
    bilinear chain, the primed weights of level -i).  State base + i is
    level i, with base = depth for a bilinear chain, whose level -i is state
    base - i, and base = 0 for a linear one.  The initial state is level 0,
    the only final one unless `all_final`.  Deleting the levels above
    `depth` keeps the boundary loop and back-edge.  Every loop and step read,
    a zero one too, is a transition, which `solve` checks.  `check_levels`,
    the chain rule of the `contfrac` evaluators too, checks just these
    weights, the loops of levels 0..depth and the steps below `depth`, and
    no unread top-level step.  InvalidAutomaton names the first weight that
    fails it at order 0, or else an unknown kind."""
    bilinear = kind == "bilinear"
    try:
        levels = check_levels(levels, depth, 0, bilinear)
    except ValueError as exc:
        raise InvalidAutomaton(str(exc)) from None
    if kind not in ("linear", "bilinear"):
        raise InvalidAutomaton("unknown chain kind %r" % (kind,))
    base = depth if bilinear else 0
    loops, steps = [], []
    for i in range(depth + 1):
        lvl, above, below = levels[i], base + i, base - i
        loops.append((above, above, lvl.h))
        if bilinear and i:
            loops.append((below, below, lvl.hp))
        if i < depth:
            steps += [(above, above + 1, lvl.f), (above + 1, above, lvl.g)]
            if bilinear:
                steps += [(below, below - 1, lvl.gp), (below - 1, below, lvl.fp)]
    n = base + depth + 1
    return WeightedAutomaton(n, base, frozenset(range(n) if all_final else (base,)),
                             tuple(loops + steps))
