"""The input contract: which family, method, k, size (a path length, series
order, depth, convolution order r or coefficient index t), series weight or
chain of levels is valid.  Every entry point calls these checks; each
returns its value and raises ValueError; a bool is no int here."""

# family -> (stays nonnegative, ends at level 0), all that sets them apart
CONSTRAINTS = {
    "fib": (True, True),
    "grand": (False, True),
    "prefix": (True, False),
    "grand-prefix": (False, False),
}
FAMILIES = tuple(CONSTRAINTS)
METHODS = ("closed", "cf", "automaton", "formula", "brute")
# the methods that truncate a chain at a depth
DEPTH_METHODS = ("cf", "automaton")


def check_family(family):
    if family not in FAMILIES:
        raise ValueError("unknown family %r (one of %s)" % (family, ", ".join(FAMILIES)))
    return family


def check_method(method):
    if method not in METHODS:
        raise ValueError("unknown method %r (one of %s)" % (method, ", ".join(METHODS)))
    return method


def check_depth_method(method):
    if check_method(method) not in DEPTH_METHODS:
        raise ValueError("depth applies only to the %s methods, not %s"
                         % (" and ".join(DEPTH_METHODS), method))
    return method


def check_k(k):
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer, got %r" % (k,))
    return k


def check_size(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError("%s must be a nonnegative integer, got %r" % (name, value))
    return value


def check_weight(w, what, order):
    """A counting weight: a Series of valuation >= 1 carrying at least the
    `order` it is read at; a shorter weight is a truncation whose tail is
    unknown, not an exact polynomial."""
    from .series import Series  # not on load: series takes its sizes from here

    if not isinstance(w, Series):
        raise ValueError("%s must be a Series, got %r" % (what, w))
    if w.valuation() == 0:
        raise ValueError("%s must have valuation >= 1" % what)
    if w.order < order:
        raise ValueError("%s must have order >= %d, got %d" % (what, order, w.order))
    return w


def check_levels(levels, depth, order, primed=False):
    """A chain truncated at `depth`: a list or tuple of levels 0..depth,
    each weight the truncation reads readable at `order`, level by level,
    first bad one named.  It reads the loops h of levels 0..depth and the
    steps f, g of levels 0..depth-1; `primed` also asks for the mirror
    steps f', g' there and the mirror loops h' of levels 1..depth (level
    0's loop both sides share)."""
    check_size("depth", depth)
    check_size("order", order)
    if not isinstance(levels, (list, tuple)):
        raise ValueError("levels must be a list or tuple of levels, got %r" % (levels,))
    if len(levels) <= depth:
        raise ValueError(
            "need %d levels for depth %d, got %d" % (depth + 1, depth, len(levels))
        )
    names = ("f", "g", "h", "fp", "gp", "hp") if primed else ("f", "g", "h")
    for i, lvl in enumerate(levels[: depth + 1]):
        for name in names:
            # the top level is read for its loops only; level 0's h' is h
            if (i < depth or "h" in name) and (i or name != "hp"):
                what = "%s[%d]" % (name.replace("p", "'"), i)
                check_weight(getattr(lvl, name, None), what, order)
    return levels
