"""The input contract: which family, method, k or size (a path length, series
order, depth, convolution order r or coefficient index t) is valid.  Every
entry point calls these checks; each returns its value; a bool is no int
here."""

FAMILIES = ("fib", "grand", "prefix", "grand-prefix")
METHODS = ("closed", "cf", "automaton", "formula", "brute")


def check_family(family):
    if family not in FAMILIES:
        raise ValueError("unknown family %r (one of %s)" % (family, ", ".join(FAMILIES)))
    return family


def check_method(method):
    if method not in METHODS:
        raise ValueError("unknown method %r (one of %s)" % (method, ", ".join(METHODS)))
    return method


def check_k(k):
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer, got %r" % (k,))
    return k


def check_size(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError("%s must be a nonnegative integer, got %r" % (name, value))
    return value
