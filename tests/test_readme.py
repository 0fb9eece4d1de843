"""The README's library examples run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert failed == 0
    assert attempted >= 4
