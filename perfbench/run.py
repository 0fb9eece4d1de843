#!/usr/bin/env python3
"""Layered benchmark of the fibpaths command line.

    python3 perfbench/run.py --workload {verify,closed-large,formula} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs nothing beyond the standard
library and the sources under ``src``.  Every call is
``python -m fibpaths.cli ...`` in a fresh interpreter with ``PYTHONPATH=src``,
issued by one closed-loop client: one call at a time, the next only after
the previous one has exited.  The seed picks the k of every call and the
order of the calls; see ``decks``.

``--trace 0`` times whole CLI calls and prints the end-to-end metrics.
``--trace 1`` runs one deck of calls in this process through
``fibpaths.cli.main``, once plain and once with the wrappers of
``tracing.py``, and prints the per-layer metrics.  Every count either run
produces is checked by ``checker.py``.  The last line of the output is one JSON object; the lines
before it repeat the metrics with their units and give the labels
(backend, Python version, nproc).  README.md documents the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import checker
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline_trace.json"

KS = (1, 2, 3, 4)
SETUP_ARGV = ("seq", "--family", "fib", "--k", "1", "--n", "0")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fibpaths.cli; "
    "print(time.perf_counter() - t)"
)
# Children get none of these variables, so that the caller's settings (such as
# FIBPATH_ORDER, FIBPATH_KERNEL, PYTHONDONTWRITEBYTECODE or PYTHONOPTIMIZE)
# cannot change what is measured; PYTHONPATH is then set to src.
SCRUBBED_ENV_PREFIXES = ("FIBPATH_", "PYTHON")


def _verify(k):
    return ("verify", "--k", str(k), "--n-max", "40", "--brute-max", "10")


def _seq(method, family, n, k):
    return ("seq", "--method", method, "--family", family, "--k", str(k), "--n", str(n))


# The templates of each workload: one argv per k.  BENCHMARK.json leaves
# `formula` out because its timings spread too widely; see README.md.
WORKLOADS = {
    "verify": [_verify],
    "closed-large": [
        partial(_seq, "closed", f, 600) for f in ("fib", "grand", "prefix", "grand-prefix")
    ],
    "formula": [partial(_seq, "formula", f, 60) for f in ("fib", "grand", "prefix")],
}


def decks(workload, seed):
    """Endless stream of decks drawn from `seed`.

    A deck makes one call of each template of the workload, in a shuffled
    order.  Each template takes its k from its own shuffled cycle of KS, so
    the seed picks the k of every call and the order of the calls, and every
    len(KS) consecutive decks from the start (a round) make each template
    with each k exactly once.
    """
    rng = random.Random(seed)
    templates = WORKLOADS[workload]
    while True:
        cycles = [rng.sample(KS, len(KS)) for _ in templates]
        for i in range(len(KS)):
            deck = [template(ks[i]) for template, ks in zip(templates, cycles)]
            rng.shuffle(deck)
            yield deck


def problems(argv, code, stdout, published):
    """Why the output of CLI call `argv` is wrong; empty when it is right."""
    if argv[0] == "verify":
        return checker.verify_problems(code, stdout)
    opts = dict(zip(argv[1::2], argv[2::2]))
    return checker.seq_problems(
        opts["--family"], int(opts["--k"]), int(opts["--n"]), code, stdout, published
    )


# -- subprocess calls -----------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_ENV_PREFIXES)}
    env["PYTHONPATH"] = str(SRC)
    return env


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(args, env):
    """Run ``python <args>``; returns wall s, cpu s, exit code, stdout and
    stderr.  The child is the only one reaped meanwhile, so the growth of
    this process's children CPU time is the child's own."""
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cpu": _children_cpu() - cpu0,
        "code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }


def cli_args(argv):
    return ["-m", "fibpaths.cli", *argv]


# -- the two kinds of run -----------------------------------------------------------


def end_to_end(workload, seed, seconds, published):
    """Time whole CLI calls, deck after deck, for about `seconds`.  The first
    deck always runs; after it, a deck starts only if the time of the last
    one still fits.  Every child is a CLI call, so the largest peak RSS of
    the reaped children is that of the largest call."""
    env = child_env()
    warm = run_child(cli_args(SETUP_ARGV), env)  # writes the .pyc files, untimed
    if warm["code"] != 0:
        raise RuntimeError("set-up call failed: %s" % warm["stderr"].strip())
    setup = [run_child(cli_args(SETUP_ARGV), env)["wall"] for _ in range(SETUP_REPEATS)]
    deck_wall, deck_cpu, results = [], [], []
    start = time.perf_counter()
    for i, deck in enumerate(decks(workload, seed)):
        if i and time.perf_counter() - start + last > seconds:
            break
        t0 = time.perf_counter()
        runs = []
        for argv in deck:
            setup.append(run_child(cli_args(SETUP_ARGV), env)["wall"])
            runs.append(run_child(cli_args(argv), env))
        last = time.perf_counter() - t0
        deck_wall.append(sum(r["wall"] for r in runs))
        deck_cpu.append(sum(r["cpu"] for r in runs))
        results += zip(deck, runs)
    failed = 0
    seen = {}
    for argv, r in results:
        key = (argv, r["code"], r["stdout"])
        if key not in seen:
            seen[key] = problems(argv, r["code"], r["stdout"], published)
            for p in seen[key]:
                print("FAIL %s: %s %s" % (" ".join(argv), p, r["stderr"].strip()))
        failed += bool(seen[key])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(deck_wall), "s"),
        "cpu_s": (statistics.median(deck_cpu), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    for argv, r in results:
        print("%-58s %8.3f s" % (" ".join(argv), r["wall"]))
    print("deck wall s: %s" % " ".join("%.3f" % w for w in deck_wall))
    print("decks %d, calls %d, set-up samples %d" % (len(deck_wall), len(results), len(setup)))
    print("failed_frac %.4f ratio" % (failed / len(results)))
    return metrics, len(results), failed


def traced(workload, seed, mods, published):
    """The seed's first deck in this process, each call plain and traced."""
    env = child_env()
    imports = []
    for _ in range(SETUP_REPEATS):
        r = run_child(["-c", IMPORT_PROBE], env)
        if r["code"] != 0:
            raise RuntimeError("importing fibpaths.cli failed: %s" % r["stderr"].strip())
        imports.append(float(r["stdout"]))
    calls = next(decks(workload, seed))
    print("traced deck %s" % json.dumps(calls))
    plain, spanned = [], []
    tracer = tracing.Tracer()
    for i, argv in enumerate(calls):
        # plain and traced take turns going first, so drift in machine speed
        # does not bias the overhead
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed(mods):
                    spanned.append(tracing.run_call(mods, argv, tracer))
            else:
                plain.append(tracing.run_call(mods, argv))
    attempted = failed = 0
    for argv, (code, out, _) in [*zip(calls, plain), *zip(calls, spanned)]:
        found = problems(argv, code, out, published)
        for p in found:
            print("FAIL %s: %s" % (" ".join(argv), p))
        attempted += 1
        failed += bool(found)
    metrics = tracer.metrics()
    plain_s = sum(s for _, _, s in plain)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (tracer.root_total() - plain_s, "s")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    _compare_with_baseline(workload, calls, metrics)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / ("spans-%s-%d.json" % (workload, seed))
    with open(spans_file, "w") as f:
        json.dump({"argv": calls, "spans": tracer.spans}, f)
    print("spans written to %s" % spans_file.relative_to(ROOT))
    return metrics, attempted, failed


def _compare_with_baseline(workload, calls, metrics):
    try:
        with open(BASELINE) as f:
            base = json.load(f)[workload]
    except (OSError, KeyError):
        print("no recorded baseline for %s" % workload)
        return
    if [tuple(argv) for argv in base["argv"]] != calls:
        print("recorded baseline is of another deck (seed %d)" % base["seed"])
        return
    base = base["metrics"]
    # every metric but the times must repeat exactly
    diff = [
        "%s %s -> %s" % (name, base.get(name), value)
        for name, (value, unit) in metrics.items()
        if unit != "s" and base.get(name) != value
    ]
    print("counters vs baseline: %s" % ("; ".join(diff) if diff else "identical"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fibpaths" / "cli.py").is_file():
        print("error: no fibpaths sources under %s" % SRC, file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("FIBPATH_")]:
        del os.environ[name]
    mods = tracing.load_package(SRC)
    published = mods["tables"].PUBLISHED
    labels = {
        "backend": mods["package"].BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
    }
    print("labels %s" % json.dumps(labels, sort_keys=True))
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed, mods, published)
    else:
        metrics, attempted, failed = end_to_end(
            args.workload, args.seed, args.seconds, published
        )
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
