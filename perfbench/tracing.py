"""In-process traced pass: spans and counters around each layer of fibpaths.

The wrappers live here, in the benchmark, and are put around the public
functions of each layer for the length of one pass; no source file of the
package changes.  Three facts about the package decide where they go:

* ``series.py`` looks up ``kernels.mul`` and its siblings at call time, so
  replacing the attributes of ``_backend.kernels`` catches every kernel call
  on either backend.
* ``families`` binds ``convolved_binomial`` by name at import, so a wrapper
  in ``kfib`` would miss those calls; its ``cache_info()`` counts them.
* The package attribute ``fibpaths.kfib`` is the function, not the module;
  the module is ``sys.modules["fibpaths.kfib"]``.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a CLI call).  Spans stay in memory until the pass
ends.  A span's self time is its duration minus the durations of its
children; since calls nest, the self times of all spans add up to the total
of the root spans.  Bookkeeping done after a call (reading result sizes,
keying continued-fraction chains) is its own ``trace.note`` span, so it is
charged to tracing and not to the layer that called.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import time
from collections import Counter

KERNELS = ("mul", "inv", "sqrt")
SERIES_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__pow__", "inverse", "__truediv__", "sqrt", "truncate",
)
CF_FUNCS = ("excursion_cf", "grand_excursion_cf", "meander_cf", "grand_meander_cf")
CLOSED_FUNCS = (
    "excursion_closed", "grand_excursion_closed", "meander_closed",
    "grand_meander_closed",
)
GF_METHODS = ("closed", "cf", "automaton", "formula", "brute")


def load_package(src):
    """Import ``fibpaths.cli`` from the directory `src` and return the
    package's modules by layer name."""
    src = str(src)
    if src not in sys.path:
        sys.path.insert(0, src)
    import fibpaths.cli  # noqa: F401  (imports every layer)

    if not fibpaths.__file__.startswith(src):
        raise ImportError("fibpaths imported from %s, not %s" % (fibpaths.__file__, src))
    mods = sys.modules
    return {
        "package": mods["fibpaths"],
        "kernels": mods["fibpaths._backend"].kernels,
        "series": mods["fibpaths.series"],
        "contfrac": mods["fibpaths.contfrac"],
        "automata": mods["fibpaths.automata"],
        "families": mods["fibpaths.families"],
        "brute": mods["fibpaths.brute"],
        "kfib": mods["fibpaths.kfib"],
        "cli": mods["fibpaths.cli"],
        "tables": mods["fibpaths.tables"],
    }


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patched = []
        self._cf_keys = set()
        self._ids = {}
        self._values = {}

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name, note=None):
        """`fn` inside a span called `name`; `note(args, kwargs, result)`
        runs afterwards in a ``trace.note`` span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, time.perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                t0 = time.perf_counter()
                note(args, kwargs, result)
                spans.append(["trace.note", t0, time.perf_counter(), parent])
            return result

        return wrapper

    def patch(self, owner, attr, name, note=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, note))

    def install(self, mods):
        """Put the wrappers around every layer of `mods` (see load_package)."""
        for fn in KERNELS:
            self.patch(mods["kernels"], fn, "kernels." + fn, self._note_kernel)
        series_cls = mods["series"].Series
        for op in SERIES_OPS:
            self.patch(series_cls, op, "series." + op)
        contfrac = mods["contfrac"]
        for fn in CF_FUNCS:
            note = self._note_excursion_cf if fn == "excursion_cf" else None
            self.patch(contfrac, fn, "contfrac.cf", note)
        for fn in CLOSED_FUNCS:
            self.patch(contfrac, fn, "contfrac.closed")
        self.patch(mods["automata"], "solve", "automata.solve", self._note_solve)
        families = mods["families"]
        gf = families.gf
        self._patched.append((families, "gf", gf))
        wrapped = {m: self.wrap(gf, "families.gf." + m) for m in GF_METHODS}

        @functools.wraps(gf)
        def gf_by_method(family, k, order=None, method="closed", depth=None):
            return wrapped.get(method, gf)(family, k, order, method, depth)

        families.gf = gf_by_method
        self.patch(mods["brute"], "count_paths", "brute.count_paths")

    def restore(self):
        """Put back every function `install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, mods):
        try:
            self.install(mods)
            yield self
        finally:
            self.restore()

    # -- counters ---------------------------------------------------------------

    def _note_kernel(self, args, kwargs, result):
        self.counters["kernels.coeffs_out"] += len(result)
        top = max(map(_bits, result), default=0)
        if top > self.counters["kernels.max_bits"]:
            self.counters["kernels.max_bits"] = top

    def _token(self, s):
        """Small int naming the value of series `s` within one CLI call.  The
        entry keeps `s` alive, so its id cannot be reused meanwhile."""
        if s is None:
            return None
        hit = self._ids.get(id(s))
        if hit is None:
            token = self._values.setdefault(s.coefficients(), len(self._values))
            hit = self._ids[id(s)] = (s, token)
        return hit[1]

    def _note_excursion_cf(self, args, kwargs, result):
        levels, depth, order = args
        chain = tuple(
            tuple(self._token(getattr(lvl, w)) for w in ("f", "g", "h", "fp", "gp", "hp"))
            for lvl in levels[: depth + 1]
        )
        self.counters["contfrac.excursion_cf.calls"] += 1
        self._cf_keys.add((chain, depth, order))

    def _note_solve(self, args, kwargs, result):
        self.counters["automata.solve.calls"] += 1
        self.counters["automata.states"] += args[0].n_states

    def begin_call(self):
        """Open the root span of one CLI call; end_call sets its times."""
        self._cf_keys = set()
        self._ids = {}
        self._values = {}
        self._stack.append(len(self.spans))
        self.spans.append(["cli.main", 0.0, 0.0, -1])

    def end_call(self, start, end, kfib_info):
        root = self.spans[self._stack.pop()]
        root[1], root[2] = start, end
        self.counters["contfrac.excursion_cf.distinct"] += len(self._cf_keys)
        self.counters["kfib.convolved_binomial.hits"] += kfib_info.hits
        self.counters["kfib.convolved_binomial.misses"] += kfib_info.misses

    # -- span arithmetic --------------------------------------------------------

    def self_times(self):
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def outermost_total(self, name):
        """Summed duration of the spans called `name` that have no enclosing
        span of the same name."""
        spans = self.spans
        total = 0.0
        for sname, start, end, parent in spans:
            if sname != name:
                continue
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        spans = self.spans
        c = self.counters
        selfs = self.self_times()
        calls = Counter(s[0] for s in spans)
        out = {}
        for fn in KERNELS:
            name = "kernels." + fn
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".s"] = (self.outermost_total(name), "s")
        out["kernels.coeffs_out"] = (c["kernels.coeffs_out"], "count")
        out["kernels.max_bits"] = (c["kernels.max_bits"], "bits")
        series = [i for i, s in enumerate(spans) if s[0].startswith("series.")]
        out["series.ops"] = (len(series), "count")
        out["series.self_s"] = (sum(selfs[i] for i in series), "s")
        n_cf = c["contfrac.excursion_cf.calls"]
        out["contfrac.excursion_cf.calls"] = (n_cf, "count")
        ratio = c["contfrac.excursion_cf.distinct"] / n_cf if n_cf else 0.0
        out["contfrac.excursion_cf.useful_ratio"] = (ratio, "ratio")
        out["contfrac.cf.s"] = (self.outermost_total("contfrac.cf"), "s")
        out["contfrac.closed.s"] = (self.outermost_total("contfrac.closed"), "s")
        out["automata.solve.calls"] = (c["automata.solve.calls"], "count")
        out["automata.states"] = (c["automata.states"], "count")
        out["automata.solve.s"] = (self.outermost_total("automata.solve"), "s")
        for m in GF_METHODS:
            name = "families.gf." + m
            out[name + ".s"] = (self.outermost_total(name), "s")
        out["kfib.convolved_binomial.hits"] = (c["kfib.convolved_binomial.hits"], "count")
        out["kfib.convolved_binomial.misses"] = (c["kfib.convolved_binomial.misses"], "count")
        out["brute.count_paths.calls"] = (calls["brute.count_paths"], "count")
        out["brute.count_paths.s"] = (self.outermost_total("brute.count_paths"), "s")
        return out

    def root_total(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def run_call(mods, argv, tracer=None):
    """One CLI call through ``cli.main`` in this process, as a fresh process
    would see it: the kfib caches start empty.  Returns (exit code, stdout,
    seconds in main)."""
    kfib = mods["kfib"]
    kfib.convolved_binomial.cache_clear()
    kfib.convolved_sum.cache_clear()
    out = io.StringIO()
    if tracer:
        tracer.begin_call()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = mods["cli"].main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real CLI call with exit 1
            code = 1
        end = time.perf_counter()
    if tracer:
        tracer.end_call(start, end, kfib.convolved_binomial.cache_info())
    return code, out.getvalue(), end - start
