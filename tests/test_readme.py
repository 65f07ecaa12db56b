"""The README's library example runs as written."""

import doctest

from conftest import REPO_ROOT


def test_readme_library_example_runs():
    failed, attempted = doctest.testfile(str(REPO_ROOT / "README.md"), module_relative=False)
    assert attempted > 0 and failed == 0
