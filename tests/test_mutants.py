"""Tests of the kept-mutant runner, ``tests/mutants.py``; CI runs the mutants
themselves."""

import pytest

from mutants import MUTANTS, ROOT, Mutant, check

QUICK_TEST = "tests/test_manacher.py::TestSmallCases::test_single_letter_odd"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_once_and_is_changed(mutant):
    text = (ROOT / "src" / "palstream" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for test in mutant.tests:
        assert (ROOT / test.partition("::")[0]).is_file(), test


def test_a_replacement_that_changes_nothing_is_reported():
    snippet = 'self._rad = array("B", (0,))'
    mutant = Mutant("no change", "manacher.py", snippet, snippet, (QUICK_TEST,))
    assert check(mutant) == "its replacement changes nothing"


def test_a_missing_snippet_is_reported():
    mutant = Mutant("missing", "manacher.py", "no such line", "", (QUICK_TEST,))
    assert check(mutant) == "its snippet occurs 0 times in src/palstream/manacher.py"


def test_a_mutant_whose_tests_pass_is_reported():
    # a comment changes nothing that a test can see
    mutant = Mutant("comment only", "manacher.py", "# slot 0's radius",
                    "# the radius of slot 0", (QUICK_TEST,))
    assert check(mutant) == "its tests pass"


def test_a_mutant_whose_tests_fail_is_killed():
    mutant = Mutant("max_pal off by two", "manacher.py", "return 2 * self._r + 1 - self.delta",
                    "return 2 * self._r + 3 - self.delta", (QUICK_TEST,))
    assert check(mutant) is None
