"""Tests of the benchmark itself: the checker, the workload decks and the
tracing wrappers.  Run from the root of the repository:

    python -m pytest -q perfbench
"""

import itertools
import time

import pytest

import checker
import run
import tracing

MODS = tracing.load_package(run.SRC)
PUBLISHED = MODS["tables"].PUBLISHED
FAMILIES = ("fib", "grand", "prefix", "grand-prefix")

# cheap calls that between them reach every traced layer
SMALL = [
    ("seq", "--method", "cf", "--family", "grand-prefix", "--k", "2", "--n", "12"),
    ("seq", "--method", "closed", "--family", "grand", "--k", "3", "--n", "30"),
    ("seq", "--method", "formula", "--family", "prefix", "--k", "2", "--n", "15"),
    ("verify", "--k", "1", "--n-max", "8", "--brute-max", "5"),
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [1, 3])
def test_checker_rejects_one_count_off_by_one(family, k):
    counts = list(MODS["families"].sequence(family, k, 24).counts)
    assert checker.sequence_problems(family, k, counts, PUBLISHED) == []
    for n in (0, 5, 17, 24):  # inside and past the published rows
        for delta in (1, -1):
            wrong = list(counts)
            wrong[n] += delta
            assert checker.sequence_problems(family, k, wrong, PUBLISHED), (n, delta)


def test_checker_fib_reference_matches_published_rows():
    rows, start = PUBLISHED["fib"]
    for k, row in rows.items():
        assert checker.fib_reference(k, start + len(row) - 1)[start:] == list(row)


def test_checker_rejects_bad_cli_output():
    text = " ".join(str(c) for c in MODS["families"].sequence("fib", 2, 10).counts)
    assert checker.seq_problems("fib", 2, 10, 0, text, PUBLISHED) == []
    assert checker.seq_problems("fib", 2, 10, 1, text, PUBLISHED)
    assert checker.seq_problems("fib", 2, 11, 0, text, PUBLISHED)
    assert checker.seq_problems("fib", 2, 10, 0, text + " x", PUBLISHED)
    assert checker.verify_problems(0, "fib k=1 OK\nverify: PASS\n") == []
    assert checker.verify_problems(1, "verify: PASS\n")
    assert checker.verify_problems(0, "verify: FAIL\n")


def test_same_seed_same_argv_list():
    for workload in run.WORKLOADS:
        first = list(itertools.islice(run.decks(workload, 7), 9))
        assert first == list(itertools.islice(run.decks(workload, 7), 9))
        assert first != list(itertools.islice(run.decks(workload, 8), 9))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_each_round_of_decks_makes_every_call_once(workload):
    stream = run.decks(workload, 3)
    for _ in range(3):
        round_ = list(itertools.islice(stream, len(run.KS)))
        for deck in round_:
            assert len(deck) == len(run.WORKLOADS[workload])
        calls = [argv for deck in round_ for argv in deck]
        every = [template(k) for template in run.WORKLOADS[workload] for k in run.KS]
        assert sorted(calls) == sorted(every)


def _patch_targets():
    series = MODS["series"].Series
    targets = [(MODS["kernels"], f) for f in tracing.KERNELS]
    targets += [(series, op) for op in tracing.SERIES_OPS]
    targets += [(MODS["contfrac"], f) for f in tracing.CF_FUNCS + tracing.CLOSED_FUNCS]
    targets += [
        (MODS["automata"], "solve"),
        (MODS["families"], "gf"),
        (MODS["brute"], "count_paths"),
    ]
    return targets


def test_wrappers_restore_the_original_functions():
    targets = _patch_targets()
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(MODS):
            wrapped = [getattr(owner, attr) for owner, attr in targets]
            assert all(w is not b for w, b in zip(wrapped, before))
            tracing.run_call(MODS, SMALL[0], tracer)
            raise KeyError("leave the block by an error")
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))
    assert tracer.spans


def _traced(argvs):
    tracer = tracing.Tracer()
    with tracer.installed(MODS):
        t0 = time.perf_counter()
        results = [tracing.run_call(MODS, argv, tracer) for argv in argvs]
        wall = time.perf_counter() - t0
    return tracer, results, wall


def test_span_self_times_add_up_to_the_traced_wall_time():
    tracer, results, wall = _traced(SMALL)
    assert [code for code, _, _ in results] == [0] * len(SMALL)
    selfs = tracer.self_times()
    assert min(selfs) >= 0
    traced_wall = sum(seconds for _, _, seconds in results)
    assert tracer.root_total() == pytest.approx(traced_wall, rel=1e-12)
    assert sum(selfs) == pytest.approx(traced_wall, rel=1e-9)
    assert traced_wall <= wall
    names = {span[0].split(".")[0] for span in tracer.spans}
    assert names == {"cli", "kernels", "series", "contfrac", "automata", "families",
                     "brute", "trace"}


def _counts(tracer):
    return {n: v for n, (v, unit) in tracer.metrics().items() if unit != "s"}


def test_traced_counters_repeat_exactly():
    first = _counts(_traced(SMALL)[0])
    assert first == _counts(_traced(SMALL)[0])
    assert first["kfib.convolved_binomial.misses"] > 0
    assert first["contfrac.excursion_cf.calls"] > 0


def test_verify_counters_at_n_40():
    tracer, results, _ = _traced([run._verify(2)])
    assert results[0][0] == 0
    got = _counts(tracer)
    assert got["kernels.mul.calls"] == 3312
    assert got["kernels.inv.calls"] == 1442
    assert got["kernels.sqrt.calls"] == 3
    assert got["contfrac.excursion_cf.calls"] == 48
    assert got["automata.solve.calls"] == 4
    assert got["brute.count_paths.calls"] == 44
