"""The input contract: every entry point refuses a bad k or size the same way,
and the names the perfbench tracer patches stay where it looks for them."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fibpaths
from fibpaths import brute, contfrac, families
from fibpaths._checks import CONSTRAINTS, DEPTH_METHODS, FAMILIES, METHODS, check_k
from fibpaths.automata import build_chain, solve
from fibpaths.brute import BudgetExceeded, check_budget, count_paths, path_counts
from fibpaths.contfrac import (
    CFLevel,
    excursion_cf,
    excursion_closed,
    grand_excursion_cf,
    grand_excursion_closed,
    grand_meander_cf,
    grand_meander_closed,
    meander_cf,
    meander_closed,
)
from fibpaths.families import (
    coeff,
    gf,
    horizontal_weight,
    least_depth,
    row_diff,
    sequence,
    verify_methods,
)
from fibpaths.kfib import convolved_binomial, convolved_sum, kfib
from fibpaths.series import one, poly, zero

from helpers import convolved_gf, motzkin_gf

# order-6 weights: enough for order 4, where the closed forms read 4 + 2; a
# meander at depth 2 reads levels 0 .. 4 + 2
STEP = poly([0, 1], 6)
LEVELS = [CFLevel(STEP, STEP, STEP, STEP, STEP, STEP)] * 8
CF_ARGS = dict(levels=LEVELS, depth=2, order=4)
CLOSED_ARGS = dict(f=STEP, g=STEP, h=STEP, order=4)

# entry point -> arguments it accepts; each k or size in them is replaced in turn.
# convolved_gf and motzkin_gf are test references (helpers.py); they keep the
# contract too, so that a bad argument cannot pass for a reference value.
ENTRY_POINTS = [
    (gf, dict(family="fib", k=2, order=4, method="cf", depth=3)),
    (sequence, dict(family="fib", k=2, n_max=4, method="automaton", depth=3)),
    (verify_methods, dict(family="fib", k=2, n_max=4, brute_max=3, depth=3)),
    (kfib, dict(k=2, n=4)),
    (convolved_gf, dict(k=2, r=2, order=4)),
    (convolved_sum, dict(k=2, m=3, r=1)),
    (convolved_binomial, dict(k=2, j=3, r=1)),
    *[(coeff, dict(family=family, k=2, t=4)) for family in FAMILIES],
    (count_paths, dict(family="fib", k=2, n=4)),
    (path_counts, dict(family="fib", k=2, n_max=4)),
    (check_budget, dict(name="n", n=4)),
    (horizontal_weight, dict(k=2, order=4)),
    (least_depth, dict(family="fib", order=4, method="automaton")),
    (excursion_cf, CF_ARGS),
    (grand_excursion_cf, CF_ARGS),
    (meander_cf, CF_ARGS),
    (grand_meander_cf, CF_ARGS),
    (excursion_closed, CLOSED_ARGS),
    (grand_excursion_closed, CLOSED_ARGS),
    (meander_closed, CLOSED_ARGS),
    (grand_meander_closed, CLOSED_ARGS),
    (build_chain, dict(kind="bilinear", depth=2, levels=LEVELS)),
    (solve, dict(auto=build_chain("linear", 2, LEVELS), order=4)),
    (poly, dict(coeffs=[1, 2], order=4)),
    (zero, dict(order=4)),
    (one, dict(order=4)),
    (motzkin_gf, dict(order=4)),
    (row_diff, dict(family="fib", k=2)),
]
CHECKED = ("k", "order", "depth", "n_max", "brute_max", "n", "r", "t", "j", "m")
BAD = [True, 2.0, "3", -1]


def name(fn, good):
    """The test id of an entry point; coeff, run once per family, is named
    coeff_<family>."""
    if fn is coeff:
        return "coeff_" + good["family"].replace("-", "_")
    return fn.__name__


@pytest.mark.parametrize(
    "fn, good, arg, bad",
    [
        pytest.param(fn, good, arg, bad, id="%s-%s=%r" % (name(fn, good), arg, bad))
        for fn, good in ENTRY_POINTS
        for arg in good
        if arg in CHECKED
        for bad in BAD
    ],
)
def test_bad_k_or_size_raises_value_error_naming_it(fn, good, arg, bad):
    # the good call first, so a cached entry for 1 or 2 cannot answer True or 2.0
    fn(**good)
    with pytest.raises(ValueError, match="^%s must be" % arg):
        fn(**dict(good, **{arg: bad}))


@pytest.mark.parametrize("method", [m for m in METHODS if m not in DEPTH_METHODS])
def test_only_the_depth_methods_have_a_depth(method):
    with pytest.raises(ValueError, match="^depth applies only to the cf and "
                                         "automaton methods, not %s$" % method):
        least_depth("fib", 5, method)


@pytest.mark.parametrize(
    "fn, args",
    [
        (gf, ("nope", 2, 4)),
        (gf, ("fib", 2, 4, "bogus")),
        (least_depth, ("nope", 5, "automaton")),
        (least_depth, ("fib", 5, "bogus")),
        (coeff, ("nope", 2, 4)),
        (row_diff, ("nope", 2)),
    ],
)
def test_unknown_family_or_method_raises_value_error_naming_it(fn, args):
    with pytest.raises(ValueError, match="^unknown (family 'nope'|method 'bogus')"):
        fn(*args)


def test_brute_windows_past_the_budget_are_refused_before_counting(monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("counted before checking the budget")

    monkeypatch.setattr(brute, "count_paths", no_counting)
    monkeypatch.setattr(brute, "path_counts", no_counting)
    with pytest.raises(BudgetExceeded, match="order: length 1001 .* budget 1000"):
        gf("fib", 2, 1001, "brute")
    monkeypatch.setattr(families, "gf", no_counting)
    with pytest.raises(BudgetExceeded, match="brute_max: length 1001 .* budget 1000"):
        verify_methods("fib", 2, 1001, brute_max=1001)
    # a bad depth too, though it only reaches the cf and automaton passes
    for depth in (-1, True, 2.0):
        with pytest.raises(ValueError, match="^depth must be a nonnegative integer"):
            verify_methods("fib", 2, 30, 5, depth=depth)


TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module of its own, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_what_the_tracer_patches_is_still_there(monkeypatch):
    # every name perfbench/tracing.py patches or reads, from its own lists
    tracing = load_tracing()
    monkeypatch.setattr(sys, "path", list(sys.path))
    mods = tracing.load_package(Path(fibpaths.__file__).parent.parent)
    for owner, names in [
        (mods["kernels"], tracing.KERNELS),
        (mods["series"].Series, tracing.SERIES_OPS),
        (mods["contfrac"], tracing.CF_FUNCS + tracing.CLOSED_FUNCS),
        (mods["automata"], ("solve",)),
        (mods["families"], ("gf",)),
        (mods["brute"], ("count_paths",)),
        (mods["cli"], ("main",)),
    ]:
        for name in names:
            assert callable(getattr(owner, name, None)), name
    assert isinstance(mods["package"].BACKEND, str)
    kfib_module = mods["kfib"]
    for cached in (kfib_module.convolved_binomial, kfib_module.convolved_sum):
        cached.cache_clear()
        cached(2, 3, 1)
        assert cached.cache_info().misses >= 1
    assert families.FAMILIES == FAMILIES == tuple(CONSTRAINTS)
    assert check_k(3) == 3

    # gf reaches each family's contfrac closed form, derived from the family
    # table, through the module attribute; cf reaches its own convergent and
    # no contfrac evaluator
    stems = {"fib": "excursion", "grand": "grand_excursion", "prefix": "meander",
             "grand-prefix": "grand_meander"}
    assert tuple(stems) == families.FAMILIES
    reached = []
    watched = [(contfrac, stem + kind) for stem in stems.values() for kind in ("_closed", "_cf")]
    for owner, name in watched + [(families, "_convergent")]:

        def counting(*args, _name=name, _real=getattr(owner, name)):
            reached.append(_name)
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    for family, stem in stems.items():
        reached.clear()
        gf(family, 2, 6, "closed")
        assert reached[0] == stem + "_closed", family
        reached.clear()
        gf(family, 2, 6, "cf")
        assert reached == ["_convergent"], family

    methods = []
    real_gf = families.gf

    def counting_gf(family, k, order, method="closed", depth=None):
        methods.append(method)
        return real_gf(family, k, order, method, depth)

    monkeypatch.setattr(families, "gf", counting_gf)
    sequence("prefix", 2, 4, "cf")
    assert methods == ["cf"]
    methods.clear()
    assert verify_methods("prefix", 2, 4, brute_max=2) == []
    assert methods == ["closed", "cf", "automaton", "formula"]
