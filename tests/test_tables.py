"""The published rows in `tables`, a data module, and `families.row_diff`,
which compares them with the closed counts."""

import ast
import inspect

import pytest

from fibpaths import tables
from fibpaths.families import row_diff


def test_fixture_shape():
    for family, (rows, start) in tables.PUBLISHED.items():
        assert set(rows) == {1, 2, 3, 4}
        width = 10 if family == "grand" else 11
        for k, row in rows.items():
            assert len(row) == width, (family, k)
            assert all(isinstance(c, int) and c > 0 for c in row)
    # grand rows omit the length-0 column, all others include it
    assert tables.PUBLISHED["grand"][1] == 1
    assert tables.PUBLISHED["fib"][1] == 0


def test_tables_is_data_only():
    """No function and no import: the comparison lives in `families`, which
    imports `tables`, so `tables` cannot import it back."""
    tree = ast.parse(inspect.getsource(tables))
    code = [type(node).__name__ for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.Import, ast.ImportFrom))]
    assert code == []


def test_fixture_anchor_cells():
    assert tables.TABLE_FIB[2][-1] == 112736
    assert tables.TABLE_GRAND[4][-1] == 4624581
    assert tables.TABLE_PREFIX[4][-1] == 7322967
    assert tables.TABLE_GRAND_PREFIX[3][-1] == 3603528


@pytest.mark.parametrize("family", sorted(tables.PUBLISHED))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_row_diff_reproduces_published_rows(family, k):
    for n, expected, got in row_diff(family, k):
        assert expected == got, (family, k, n)


@pytest.mark.parametrize("k", [5, 100])
def test_row_diff_refuses_a_k_without_a_published_row(k):
    with pytest.raises(ValueError, match=r"^k must be in \[1, 2, 3, 4\] for a published "
                                         r"row, got %d$" % k):
        row_diff("fib", k)


def test_row_diff_cells_are_indexed_by_length():
    cells = row_diff("grand", 2)
    assert [n for n, _, _ in cells] == list(range(1, 11))
    cells = row_diff("fib", 1)
    assert [n for n, _, _ in cells] == list(range(11))
    assert cells[0][1:] == (1, 1)


def test_rows_grow_with_k():
    """More horizontal colors can only add paths."""
    for family, (rows, _) in tables.PUBLISHED.items():
        for k in (1, 2, 3):
            assert all(a <= b for a, b in zip(rows[k], rows[k + 1])), (family, k)
