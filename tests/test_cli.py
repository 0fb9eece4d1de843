"""CLI subcommands, output formats, and exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fibpaths import cli, families, tables
from fibpaths._checks import CONSTRAINTS
from fibpaths.automata import SingularSystem
from fibpaths.families import NonIntegralResult
from fibpaths.series import SeriesError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- start-up ------------------------------------------------------------------


def child_env():
    """The environment of a fresh interpreter that imports fibpaths from src."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    return env


def test_import_loads_no_dataclasses_inspect_or_json():
    # modules that site loads are already in sys.modules and do not count
    probe = (
        "import sys; before = set(sys.modules); import fibpaths.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True,
        text=True, check=True,
    ).stdout
    added = set(out.split())
    assert "fibpaths.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_pipe_ends_the_program_quietly():
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the program writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fibpaths.cli", "verify", "--n-max", "0"],
            env=child_env(), stdout=w, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, "")


# -- seq -----------------------------------------------------------------------


def test_seq_text(capsys):
    code, out, err = run(capsys, "seq", "--family", "fib", "--k", "2", "--n", "5")
    assert code == 0
    assert out == "1 1 4 13 47 168\n"
    assert err == ""


def test_seq_text_length_zero(capsys):
    code, out, _ = run(capsys, "seq", "--family", "grand", "--k", "3", "--n", "0")
    assert code == 0
    assert out == "1\n"


def test_seq_json(capsys):
    code, out, _ = run(
        capsys, "seq", "--family", "prefix", "--k", "3", "--n", "5",
        "--method", "automaton", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "family": "prefix",
        "k": 3,
        "method": "automaton",
        "n_max": 5,
        "counts": ["1", "2", "8", "35", "162", "757"],
    }


def test_seq_csv_with_header(capsys):
    code, out, _ = run(
        capsys, "seq", "--family", "grand-prefix", "--k", "4", "--n", "5",
        "--format", "csv", "--header",
    )
    assert code == 0
    assert out == "0,1,2,3,4,5\n1,3,13,68,379,2151\n"


def test_seq_csv_without_header(capsys):
    code, out, _ = run(
        capsys, "seq", "--family", "fib", "--k", "1", "--n", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "1,1,3,8,23\n"


def test_seq_methods_agree(capsys):
    outputs = set()
    for method in ("closed", "cf", "automaton", "formula", "brute"):
        code, out, _ = run(
            capsys, "seq", "--family", "grand", "--k", "2", "--n", "8",
            "--method", method,
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_seq_is_deterministic(capsys):
    args = ("seq", "--family", "fib", "--k", "4", "--n", "20", "--format", "json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_seq_usage_errors_exit_2(capsys):
    for argv in (
        ["seq", "--family", "fib", "--n", "5"],          # missing --k
        ["seq", "--family", "fib", "--k", "0", "--n", "5"],
        ["seq", "--family", "fib", "--k", "2", "--n", "-3"],
        ["seq", "--family", "nope", "--k", "2", "--n", "5"],
        ["seq", "--family", "fib", "--k", "2", "--n", "5", "--method", "nope"],
        ["seq", "--family", "fib", "--k", "2", "--n", "5", "--depth", "3"],
        # shallower than the exact horizon of --n
        ["seq", "--family", "prefix", "--k", "2", "--n", "5", "--method", "cf",
         "--depth", "1"],
        ["seq", "--family", "grand-prefix", "--k", "2", "--n", "5",
         "--method", "automaton", "--depth", "0"],
        ["seq", "--family", "fib", "--k", "2", "--n", "4", "--header"],  # text
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        if argv[:1] == ["seq"]:
            assert err.startswith("usage: fibpaths seq"), argv


def test_seq_at_a_depth_far_past_the_cap_prints_the_counts(capsys):
    # only the levels up to the walked cap are walked, not 10^9 of them
    argv = ("seq", "--family", "fib", "--k", "2", "--n", "5", "--method", "cf",
            "--depth", str(10**9))
    assert run(capsys, *argv) == (0, "1 1 4 13 47 168\n", "")


@pytest.mark.parametrize("method", ["cf", "automaton"])
@pytest.mark.parametrize("family", families.FAMILIES)
def test_seq_refuses_only_depths_below_the_least_exact_one(capsys, family, method):
    # the least exact depth is n // 2, or n for the all-final automaton
    # chains of the meander families
    for k in (1, 2, 3):
        for n in range(17):
            least = families.least_depth(family, n, method)
            assert least == (n if method == "automaton" and "prefix" in family else n // 2)
            base = ("seq", "--family", family, "--k", str(k), "--n", str(n))
            _, closed, _ = run(capsys, *base)
            code, out, err = run(capsys, *base, "--method", method, "--depth", str(least))
            assert (code, out, err) == (0, closed, ""), (k, n)
            if least == 0:
                continue
            shallow = families.gf(family, k, n, method, depth=least - 1)
            assert shallow.coefficient(n) != families.gf(family, k, n).coefficient(n), (k, n)
            with pytest.raises(SystemExit) as exc:
                cli.main([*base, "--method", method, "--depth", str(least - 1)])
            assert exc.value.code == 2
            assert "--depth %d is below %d" % (least - 1, least) in capsys.readouterr().err


def test_seq_refuses_a_depth_for_a_method_without_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["seq", "--family", "fib", "--k", "2", "--n", "5",
                  "--method", "closed", "--depth", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--depth" in err and "cf and automaton" in err


def test_seq_asks_the_least_depth_only_for_a_given_depth(capsys, monkeypatch):
    asked = []
    real = families.least_depth

    def counting(*args):
        asked.append(args)
        return real(*args)

    monkeypatch.setattr(families, "least_depth", counting)
    base = ("seq", "--family", "prefix", "--k", "2", "--n", "6", "--method", "cf")
    assert run(capsys, *base)[0] == 0
    assert asked == []
    assert run(capsys, *base, "--depth", "3")[0] == 0
    assert asked == [("prefix", 6, "cf")]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_seq_grand_prefix_formula_prints_the_published_row(capsys, k):
    code, out, err = run(
        capsys, "seq", "--family", "grand-prefix", "--k", str(k), "--n", "10",
        "--method", "formula",
    )
    assert (code, err) == (0, "")
    assert out.split() == [str(c) for c in tables.TABLE_GRAND_PREFIX[k]]


def test_seq_brute_budget_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["seq", "--family", "fib", "--k", "1", "--n", "1001",
                  "--method", "brute"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fibpaths seq")
    assert err.endswith(
        "\nfibpaths seq: error: --n: length 1001 exceeds the enumeration budget 1000\n"
    )


def test_verify_brute_max_over_budget_exits_2_before_counting(capsys, monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("verify counted before checking --brute-max")

    monkeypatch.setattr(cli.families, "verify_methods", no_counting)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--k", "1", "--n-max", "1001", "--brute-max", "1001"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fibpaths verify")
    assert err.endswith(
        "\nfibpaths verify: error: --brute-max: length 1001 exceeds the "
        "enumeration budget 1000\n"
    )


@pytest.mark.parametrize("command, counter", [
    ("seq --family fib --k 2 --n 5", "sequence"),
    ("verify --family fib --k 2 --n-max 5", "verify_methods"),
    ("tables", "row_diff"),
])
def test_running_out_of_memory_exits_2(capsys, monkeypatch, command, counter):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(families, counter, out_of_memory)
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    name = command.split()[0]
    assert out == ""
    assert err.startswith("usage: fibpaths %s" % name)
    assert err.endswith("\nfibpaths %s: error: out of memory\n" % name)


@pytest.mark.parametrize("error", [NonIntegralResult, SingularSystem, SeriesError],
                         ids=lambda error: error.__name__)
def test_an_inconsistent_result_exits_4(capsys, monkeypatch, error):
    def inconsistent(*args):
        raise error("count 3 is 1/2")

    monkeypatch.setattr(families, "sequence", inconsistent)
    monkeypatch.setattr(families, "verify_methods", inconsistent)
    for argv in (["seq", "--family", "fib", "--k", "2", "--n", "5"],
                 ["verify", "--family", "fib", "--k", "2", "--n-max", "5"]):
        assert run(capsys, *argv) == (4, "", "internal inconsistency: count 3 is 1/2\n")


# -- tables ----------------------------------------------------------------------


def test_tables_pass(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "tables: PASS"
    assert len(lines) == 17  # 4 families x 4 values of k, plus the verdict
    assert all(line.endswith("PASS") for line in lines)
    assert lines[0].startswith("fib")


def test_tables_json(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["tables"]) == 16
    first = payload["tables"][0]
    assert first["family"] == "fib" and first["k"] == 1
    assert first["cells"][0] == {"n": 0, "expected": "1", "got": "1", "ok": True}


def test_tables_detects_corrupt_fixture(capsys, monkeypatch):
    bad = tables.TABLE_FIB[1][:-1] + (tables.TABLE_FIB[1][-1] + 1,)
    monkeypatch.setitem(tables.TABLE_FIB, 1, bad)
    code, out, _ = run(capsys, "tables")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "fib           k=1  FAIL"
    assert lines[1] == "  n=10 expected 17744 got 17743"
    assert lines[-1] == "tables: FAIL"
    # only the corrupted row fails
    assert sum(line.endswith("FAIL") for line in lines) == 2
    # verify reports the same cell, as published against closed
    code, out, _ = run(capsys, "verify", "--family", "fib", "--k", "1",
                       "--n-max", "10", "--brute-max", "5")
    assert code == 1
    assert out.splitlines() == ["fib k=1 n=10: published=17744 closed=17743",
                                "verify: FAIL"]


# -- verify ----------------------------------------------------------------------


def test_verify_scoped_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "fib", "--k", "2",
        "--n-max", "12", "--brute-max", "6",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fib           k=2  OK (n<=12, brute<=6)"
    assert lines[-1] == "verify: PASS"


def test_verify_reports_brute_window_capped(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "grand", "--k", "1",
        "--n-max", "4", "--brute-max", "9",
    )
    assert code == 0
    assert "brute<=4" in out


def test_verify_forced_mismatch_exits_1(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "fib", "--k", "2",
        "--n-max", "12", "--brute-max", "0", "--depth", "1",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "verify: FAIL"
    assert any(line.startswith("fib k=2 n=") and "closed=" in line for line in lines)


def test_verify_lists_every_mismatching_n(capsys):
    # depth 1 is exact through z^3, so cf and automaton are wrong at every
    # n from 4 on; each of those n gets its own line
    code, out, _ = run(
        capsys, "verify", "--family", "fib", "--k", "2",
        "--n-max", "12", "--brute-max", "0", "--depth", "1",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "verify: FAIL"
    reference = families.sequence("fib", 2, 12).counts
    wrong = {
        method: families.sequence("fib", 2, 12, method, depth=1).counts
        for method in ("cf", "automaton")
    }
    assert lines[:-1] == [
        "fib k=2 n=%d: closed=%d %s=%d" % (n, reference[n], method, wrong[method][n])
        for method in ("cf", "automaton")
        for n in range(4, 13)
    ]


@pytest.mark.parametrize("family", families.FAMILIES)
def test_verify_depth_is_exact_through_the_horizon_its_help_states(capsys, family):
    # below the least depth, cf and automaton are exact only through
    # z^(2*depth+1), z^depth for the automaton of prefix and grand-prefix;
    # from the least depth on, verify passes
    base = ("verify", "--family", family, "--k", "2", "--n-max", "12", "--brute-max", "0")
    code, out, _ = run(capsys, *base, "--depth", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "verify: FAIL"
    reference = families.sequence(family, 2, 12).counts
    horizon = {"cf": 7, "automaton": 3 if "prefix" in family else 7}
    wrong = {
        method: families.sequence(family, 2, 12, method, depth=3).counts
        for method in horizon
    }
    assert lines[:-1] == [
        "%s k=2 n=%d: closed=%d %s=%d" % (family, n, reference[n], method, wrong[method][n])
        for method in horizon
        for n in range(horizon[method] + 1, 13)
    ]
    least = max(families.least_depth(family, 12, method) for method in horizon)
    code, out, err = run(capsys, *base, "--depth", str(least))
    assert (code, out.splitlines()[-1], err) == (0, "verify: PASS", "")


def test_verify_catches_a_wrong_family_table(capsys, monkeypatch):
    # prefix counted as grand-prefix by all five methods alike
    monkeypatch.setitem(CONSTRAINTS, "prefix", CONSTRAINTS["grand-prefix"])
    code, out, _ = run(
        capsys, "verify", "--family", "prefix", "--k", "2",
        "--n-max", "10", "--brute-max", "5",
    )
    assert code == 1
    row = tables.TABLE_PREFIX[2]
    wrong = families.sequence("prefix", 2, 10).counts
    assert out.splitlines() == [
        "prefix k=2 n=%d: published=%d closed=%d" % (n, row[n], wrong[n])
        for n in range(1, 11)
    ] + ["verify: FAIL"]


def test_verify_refuses_k_with_k_max(capsys, monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("verify counted despite --k with --k-max")

    monkeypatch.setattr(cli.families, "verify_methods", no_counting)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--k", "3", "--k-max", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --k-max: not allowed with argument --k" in captured.err


def test_verify_all_families_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "8", "--brute-max", "4",
                       "--k-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verify: PASS"
    assert len(lines) == 9  # 4 families x 2 values of k, plus the verdict
