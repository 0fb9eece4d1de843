"""Path enumeration oracle: counts and the budget, and the test-only path
lister against them."""

import pytest

from fibpaths._checks import FAMILIES
from fibpaths.brute import COUNT_BUDGET, BudgetExceeded, check_budget, count_paths, path_counts

from helpers import count_paths_reference, list_paths


def test_figure_counts():
    assert count_paths("fib", 2, 3) == 13
    assert count_paths("grand", 2, 3) == 16
    assert count_paths("prefix", 2, 3) == 26


def test_fib_row_against_published_values():
    assert [count_paths("fib", 1, n) for n in range(7)] == [1, 1, 3, 8, 23, 67, 199]


def test_grand_row_against_published_values():
    assert [count_paths("grand", 4, n) for n in range(5)] == [1, 1, 7, 32, 177]


def test_empty_path_counts_once_everywhere():
    for family in ("fib", "grand", "prefix", "grand-prefix"):
        assert count_paths(family, 3, 0) == 1


def test_path_counts_agree_with_the_plain_recursion():
    for family in FAMILIES:
        for k in range(1, 5):
            want = [count_paths_reference(family, k, n) for n in range(11)]
            assert path_counts(family, k, 10) == want, (family, k)
            assert [count_paths(family, k, n) for n in range(11)] == want, (family, k)


def test_count_paths_reaches_the_budget():
    # 1845913 = closed-form count, cross-checked in the families tests
    assert count_paths("fib", 1, 14) == 1845913
    counts = path_counts("fib", 1, COUNT_BUDGET)
    assert len(counts) == COUNT_BUDGET + 1 and counts[14] == 1845913
    assert count_paths("fib", 1, COUNT_BUDGET) == counts[-1]


def test_count_budget():
    assert COUNT_BUDGET == 1000
    with pytest.raises(BudgetExceeded, match="n: length 1001 .* budget 1000"):
        count_paths("fib", 1, 1001)
    with pytest.raises(BudgetExceeded, match="n_max: length 1001 .* budget 1000"):
        path_counts("fib", 1, 1001)


def test_check_budget_has_one_budget_and_names_the_argument():
    assert check_budget("--brute-max", COUNT_BUDGET) is None
    with pytest.raises(BudgetExceeded, match="^--brute-max: length 1001 .* budget 1000$"):
        check_budget("--brute-max", COUNT_BUDGET + 1)


def test_validation():
    with pytest.raises(ValueError):
        count_paths("cyclic", 1, 3)
    with pytest.raises(ValueError):
        count_paths("fib", 0, 3)
    with pytest.raises(ValueError):
        count_paths("fib", 1, -1)


@pytest.mark.parametrize("k", [True, 1.0])
def test_count_paths_rejects_k_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        count_paths("fib", k, 3)


def test_list_paths_figure_example():
    paths = list_paths("fib", 2, 3)
    assert len(paths) == 7
    assert sorted(w for _, w in paths) == [1, 1, 1, 1, 2, 2, 5]
    assert sum(w for _, w in paths) == count_paths("fib", 2, 3)
    by_steps = dict(paths)
    assert by_steps[(("H", 3),)] == 5  # one run of length 3, five colorings


def test_list_paths_weights_sum_to_count():
    for family in ("fib", "grand", "prefix", "grand-prefix"):
        for k in (1, 3):
            for n in range(6):
                paths = list_paths(family, k, n)
                assert sum(w for _, w in paths) == count_paths(family, k, n)
                assert len(set(p for p, _ in paths)) == len(paths)


def test_list_paths_empty_path():
    assert list_paths("grand-prefix", 2, 0) == [((), 1)]


def test_list_paths_deterministic_order():
    paths = list_paths("fib", 3, 2)
    assert [p for p, _ in paths] == [("U", "D"), (("H", 1), ("H", 1)), (("H", 2),)]
    assert [w for _, w in paths] == [1, 1, 3]


def test_list_paths_respects_constraints():
    for steps, _ in list_paths("fib", 1, 5):
        y = 0
        for s in steps:
            if s == "U":
                y += 1
            elif s == "D":
                y -= 1
            assert y >= 0
        assert y == 0
    endings = set()
    for steps, _ in list_paths("prefix", 1, 4):
        y = sum(1 if s == "U" else -1 if s == "D" else 0 for s in steps)
        endings.add(y)
    assert endings == {0, 1, 2, 3, 4}  # horizontal runs make every height reachable


def test_list_paths_has_no_budget():
    # 7 is past the length the package lister used to refuse
    paths = list_paths("fib", 1, 7)
    assert sum(w for _, w in paths) == count_paths("fib", 1, 7)
    assert len(set(p for p, _ in paths)) == len(paths)
