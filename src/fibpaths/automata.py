"""Weighted counting automata over the truncated-series ring.

A weighted automaton here is a finite directed multigraph with series
weights of valuation >= 1 on its edges.  The generating function of state
q counts weighted walks from q into the final set,

    L_q = sum_edges w(q -> q') L_{q'} + [q in finals],

a linear system (I - W) L = F over the series ring.  `solve`, the one
entry point, builds it and solves it exactly by sparse elimination in row
order with unit pivots (`_eliminate`): as val(W) >= 1, eliminating column c
subtracts factor * row c, val(factor) >= 1, from each later row, so every
diagonal entry keeps constant term 1 and every other entry valuation >= 1,
in the rows the precision rule truncates or pads too.  The pivot check that
raises SingularSystem (exit 4 in the CLI) guards this invariant.
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
r = 1, and every r is 0 when `order` is 0.  Where elimination or
back-substitution meets row i with a pivot, a pivot-row entry, a right-hand
side or a solved x_j of lower order, that series is padded with zeros to
row i's order; the padded coefficients land past it, because the entry of
row i that multiplies them has valuation at least d(j) - d(i).  The floor of
1 keeps every valuation-1 weight nonzero, so on a chain, where elimination
creates no entries, the solve visits the entries of a full-order solve and
makes its kernel calls, except for a product with a right-hand side that is
zero at its own row's order, which it skips.  `solve` returns the Series a
full-order solve gives, with the same order.

`solve` first checks `order` and the automaton by the `_checks` rules and
raises InvalidAutomaton naming the first bad part: `order`, an `auto` that is
no WeightedAutomaton, `n_states`, a state number, a transition that is no
(src, dst, weight) triple, or a weight.  Constructing a WeightedAutomaton
raises InvalidAutomaton naming `finals` or `transitions` when it is no
iterable (of hashable states, for `finals`).

With every weight z, a linear chain counts Motzkin paths; the test suite
checks `solve` there against the closed Motzkin generating function.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from ._checks import check_levels, check_size, check_weight
from .series import Series, _pad, one, zero

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
    """A pivot met in row order is missing or has constant term 0."""


class WeightedAutomaton(
    namedtuple("WeightedAutomaton", "n_states initial finals transitions")
):
    """States 0..n_states-1; transitions are (src, dst, weight) triples."""

    __slots__ = ()

    def __new__(cls, n_states, initial, finals, transitions):
        try:
            finals = frozenset(finals)
        except TypeError:
            raise InvalidAutomaton("finals must be an iterable of state numbers, got %r"
                                   % (finals,)) from None
        try:
            transitions = tuple(transitions)
        except TypeError:
            raise InvalidAutomaton("transitions must be an iterable of (src, dst, weight) "
                                   "triples, got %r" % (transitions,)) from None
        return super().__new__(cls, n_states, initial, finals, transitions)


def _is_state(q, n: int) -> bool:
    """Whether q is a state number: a size (`check_size`) below n."""
    try:
        return check_size("state", q) < n
    except ValueError:
        return False


def _check(auto: WeightedAutomaton, order: int) -> None:
    """Raise InvalidAutomaton naming the first bad part (module docstring)."""
    try:
        check_size("order", order)
        if not isinstance(auto, WeightedAutomaton):
            raise ValueError("auto must be a WeightedAutomaton, got %r" % (auto,))
        n = check_size("n_states", auto.n_states)
        if not _is_state(auto.initial, n):
            raise ValueError("initial state %r is not a state number" % (auto.initial,))
        for q in sorted(auto.finals, key=repr):
            if not _is_state(q, n):
                raise ValueError("final state %r is not a state number" % (q,))
        for idx, t in enumerate(auto.transitions):
            if not isinstance(t, (tuple, list)) or len(t) != 3:
                raise ValueError("transition %d is no (src, dst, weight) triple: %r" % (idx, t))
            src, dst, w = t
            if not (_is_state(src, n) and _is_state(dst, n)):
                raise ValueError("transition %d endpoints (%r, %r) are not state numbers"
                                 % (idx, src, dst))
            check_weight(w, "transition %d (%d->%d) weight" % (idx, src, dst), order)
    except ValueError as exc:
        raise InvalidAutomaton(str(exc)) from None


def _eliminate(rows, rhs):
    """Solve M x = rhs over the series ring, M given as sparse rows (dicts
    column -> Series), by elimination in row order, overwriting rows and
    rhs.  For M = I - W with val(W) >= 1 every pivot is a unit (module
    docstring); SingularSystem names the first column whose pivot is
    missing or has constant term 0.  Row i is carried to the order of
    rhs[i], padding what meets it (the precision rule)."""
    n = len(rows)
    for col in range(n):
        pivot_row = rows[col]
        pivot = pivot_row.get(col)
        if pivot is None or not pivot.coefficient(0):
            raise SingularSystem("column %d has no unit pivot in row order" % col)
        for i in range(col + 1, n):
            entry = rows[i].get(col)
            if entry is None or entry.is_zero():
                rows[i].pop(col, None)
                continue
            r = rhs[i].order
            factor = entry / _pad(pivot, r)
            for j, v in pivot_row.items():
                if j <= col or v.is_zero():
                    continue
                cur = rows[i].get(j)
                delta = factor * _pad(v, r)
                nxt = (cur - delta) if cur is not None else -delta
                if nxt.is_zero():
                    rows[i].pop(j, None)
                else:
                    rows[i][j] = nxt
            rows[i].pop(col, None)
            if not rhs[col].is_zero():
                rhs[i] = rhs[i] - factor * _pad(rhs[col], r)
    xs = [None] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j, v in rows[i].items():
            if j > i and not v.is_zero():
                acc = acc - v * _pad(xs[j], acc.order)
        xs[i] = acc / rows[i][i]
    return xs


def _state_orders(auto: WeightedAutomaton, order: int) -> list[int]:
    """r(q) = min(order, max(order - d(q), 1)) for every state q, d(q) the
    least total edge valuation of a walk from the initial state to q
    (Dijkstra; zero weights are no edges, unreachable states get r = 1)."""
    out_edges = [[] for _ in range(auto.n_states)]
    for src, dst, w in auto.transitions:
        v = w.valuation()
        if v != math.inf:
            out_edges[src].append((v, dst))
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
    _check(auto, order)
    n = auto.n_states
    r = _state_orders(auto, order)
    rows = [{q: one(r[q])} for q in range(n)]
    for src, dst, w in auto.transitions:
        if w.is_zero():
            continue
        w = w.truncate(r[src])
        cur = rows[src].get(dst)
        rows[src][dst] = (cur - w) if cur is not None else -w
    rhs = [one(r[q]) if q in auto.finals else zero(r[q]) for q in range(n)]
    return _eliminate(rows, rhs)[auto.initial]


def build_chain(kind: str, depth: int, levels, all_final: bool = False) -> WeightedAutomaton:
    """Chain automaton truncated at `depth`: `kind` is "linear" or
    "bilinear", and `levels[i]` supplies the weights at level i (and, for a
    bilinear chain, the primed weights of level -i).  State base + i is
    level i, with base = depth for a bilinear chain, whose level -i is state
    base - i, and base = 0 for a linear one.  The initial state is level 0,
    the only final one unless `all_final`.  Deleting the levels above
    `depth` keeps the boundary loop and back-edge.  InvalidAutomaton names
    the first weight of levels 0..depth that fails `check_levels` at order
    0, or else an unknown kind."""
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
    return WeightedAutomaton(n, base, range(n) if all_final else (base,),
                             [t for t in loops if not t[2].is_zero()] + steps)
