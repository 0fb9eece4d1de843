"""Reference checks for the counts the CLI prints.

Everything here is plain Python integers.  It uses nothing from
``fibpaths.series``, so a bug in the series arithmetic cannot hide itself.
A sequence c_0..c_n is accepted when its first terms equal the published
table row and the whole sequence satisfies the family's algebraic equation
modulo z^(n+1).  With

    b = 1 - kz - z^2,   a = b - z,   c = 1 - (k+3)z + (2k-1)z^2 + 2z^3

the equations are

    fib           z^2 b T^2 - a T + b = 0
    grand         (a^2 - 4 z^2 b^2) G^2 = b^2
    prefix        c P = b (1 - z T),  T the fib sequence of the same k
    grand-prefix  c P = b
"""

from __future__ import annotations


def _mul(p, q, m):
    """First m coefficients of the product of the integer lists p and q."""
    out = [0] * m
    for i, pi in enumerate(p[:m]):
        if pi:
            for j, qj in enumerate(q[: m - i]):
                out[i + j] += pi * qj
    return out


def _polys(k):
    b = [1, -k, -1]
    a = [1, -k - 1, -1]
    c = [1, -(k + 3), 2 * k - 1, 2]
    return a, b, c


def _shift(p, s):
    return [0] * s + list(p)


def _sub(p, q, m):
    """p - q through z^(m-1)."""
    p = list(p[:m]) + [0] * (m - len(p[:m]))
    q = list(q[:m]) + [0] * (m - len(q[:m]))
    return [x - y for x, y in zip(p, q)]


def _fib_residual(t, k):
    m = len(t)
    a, b, _ = _polys(k)
    z2b = _shift(b, 2)
    lhs = _mul(z2b, _mul(t, t, m), m)
    return _sub(lhs, _sub(_mul(a, t, m), b, m), m)


def _grand_residual(g, k):
    m = len(g)
    a, b, _ = _polys(k)
    z2b2 = _shift(_mul(b, b, 5), 2)
    disc = _sub(_mul(a, a, 5), [4 * x for x in z2b2], 7)
    return _sub(_mul(disc, _mul(g, g, m), m), _mul(b, b, m), m)


def fib_reference(k, n):
    """T_0..T_n from a T = b + z^2 b T^2, solved term by term; a_0 = 1."""
    a, b, _ = _polys(k)
    t, sq = [], []  # sq[j] = [z^j] T^2
    for i in range(n + 1):
        if i >= 2:
            j = i - 2
            sq.append(sum(t[r] * t[j - r] for r in range(j + 1)))
        acc = b[i] if i < 3 else 0
        # [z^i] z^2 b T^2 = sum_l b_l sq[i-2-l]
        for l, bl in enumerate(b):
            if i - 2 - l >= 0:
                acc += bl * sq[i - 2 - l]
        for l in range(1, min(i, 2) + 1):
            acc -= a[l] * t[i - l]
        t.append(acc)
    return t


def _prefix_residual(p, k):
    m = len(p)
    _, b, c = _polys(k)
    t = fib_reference(k, m - 1)
    one_minus_zt = _sub([1], _shift(t, 1), m)
    return _sub(_mul(c, p, m), _mul(b, one_minus_zt, m), m)


def _grand_prefix_residual(p, k):
    m = len(p)
    _, b, c = _polys(k)
    return _sub(_mul(c, p, m), b, m)


RESIDUALS = {
    "fib": _fib_residual,
    "grand": _grand_residual,
    "prefix": _prefix_residual,
    "grand-prefix": _grand_prefix_residual,
}


def sequence_problems(family, k, counts, published):
    """Why `counts` (c_0..c_n) is not the family's sequence; empty if it is.

    `published` maps family -> (rows by k, path length of the first column),
    the shape of ``fibpaths.tables.PUBLISHED``.
    """
    problems = []
    rows, start = published[family]
    row = rows.get(k, ())
    for i, expected in enumerate(row):
        n = start + i
        if n < len(counts) and counts[n] != expected:
            problems.append("n=%d: got %d, published %d" % (n, counts[n], expected))
    residual = RESIDUALS[family](list(counts), k)
    bad = [n for n, r in enumerate(residual) if r]
    if bad:
        problems.append("equation fails first at z^%d" % bad[0])
    return problems


def seq_problems(family, k, n, exit_code, stdout, published):
    """Problems with the text output of `seq --family F --k K --n N`."""
    if exit_code != 0:
        return ["exit code %d" % exit_code]
    try:
        counts = [int(w) for w in stdout.split()]
    except ValueError:
        return ["output is not a list of integers"]
    if len(counts) != n + 1:
        return ["expected %d counts, got %d" % (n + 1, len(counts))]
    return sequence_problems(family, k, counts, published)


def verify_problems(exit_code, stdout):
    """Problems with the output of `verify`: it must exit 0 and say PASS."""
    problems = []
    if exit_code != 0:
        problems.append("exit code %d" % exit_code)
    if "verify: PASS" not in stdout.splitlines():
        problems.append("no 'verify: PASS' line")
    return problems
