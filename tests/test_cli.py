"""CLI subcommands, output formats, and exit codes."""

import json

import pytest

from fibpaths import cli, tables


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()


def test_seq_formula_unavailable_exits_3(capsys):
    code, out, err = run(
        capsys, "seq", "--family", "grand-prefix", "--k", "2", "--n", "5",
        "--method", "formula",
    )
    assert code == 3
    assert out == ""
    assert "grand-prefix" in err


def test_seq_brute_budget_exits_2(capsys):
    code, out, err = run(
        capsys, "seq", "--family", "fib", "--k", "1", "--n", "15",
        "--method", "brute",
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_verify_brute_max_over_budget_exits_2_before_counting(capsys, monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("verify counted before checking --brute-max")

    monkeypatch.setattr(cli.families, "verify_methods", no_counting)
    code, out, err = run(
        capsys, "verify", "--k", "1", "--n-max", "20", "--brute-max", "20"
    )
    assert code == 2
    assert out == ""
    assert "--brute-max" in err and "budget 14" in err


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


def test_verify_all_families_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "8", "--brute-max", "4",
                       "--k-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verify: PASS"
    assert len(lines) == 9  # 4 families x 2 values of k, plus the verdict
