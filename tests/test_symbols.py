"""Mixed symbols in both child-storage modes.

A valid symbol equals itself, hashable or not; ordered mode also needs a
total order.  Equal values (``0`` and ``False``; ``1``, ``1.0`` and
``True``) are one symbol, and a fresh ``object()`` equals only itself.  Each
word is relabelled to ints, one label per class of equal symbols, and every
report is compared with the linear-time reference of
``perfbench/reference.py`` over the labels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from palstream import ChildStorageMode, PalindromeDetector
from reference import expected_reports
from support import FailsOnCall


POOLS = {
    ChildStorageMode.ORDERED: (0, 1, 1.0, True, False, 2, 2.0),
    ChildStorageMode.UNORDERED: (0, 1, 1.0, True, None, "a", object(), object()),
}


def label(pool, c):
    """Index of the first element of ``pool`` equal to ``c`` as containers
    compare (``x is c or x == c``)."""
    return next(i for i, x in enumerate(pool) if x is c or x == c)


class Incomparable:
    """A symbol whose every comparison raises: ``==`` in both modes, and
    ``<`` as well, since ordered mode may bisect before it tests equality."""

    def _refuse(self, other):
        raise ValueError("no comparison")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = object.__hash__


@pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_reports_match_reference_on_labels(mode, data):
    pool = POOLS[mode]
    word = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
    detector = PalindromeDetector(mode)
    for c, want in zip(word, expected_reports([label(pool, c) for c in word])):
        assert detector.push(c) == want


@pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
def test_lists_report_as_the_equal_tuples(mode):
    # no structure hashes a symbol, and a list compares with lists as the
    # equal tuple does with tuples; each list is a fresh object, so every
    # match is made by ==, not by identity
    tuples = random.Random(3).choices([(), (0,), (1,), (0, 1), (1, 0)], k=2_000)
    lists = [list(t) for t in tuples]
    by_tuple, by_list = PalindromeDetector(mode), PalindromeDetector(mode)
    assert [by_list.push(c) for c in lists] == [by_tuple.push(c) for c in tuples]
    assert by_list.finish() == by_tuple.finish()
    assert list(PalindromeDetector(mode).feed(lists)) == list(PalindromeDetector(mode).feed(tuples))


@pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
def test_the_first_symbol_is_compared_with_the_boundary(mode):
    # once in each tracker, as any symbol is once its palindrome reaches the
    # start; the automaton has no transition yet to compare it with
    never = FailsOnCall(0)
    PalindromeDetector(mode).push(never)
    assert never.calls == 2
    with pytest.raises(ValueError, match="no comparison"):
        PalindromeDetector(mode).push(Incomparable())


def stream_machine(mode):
    """Pushes of pool symbols, ``finish()`` at any point, and one push that
    fails: reports match the reference, and the failure poisons the detector
    without changing its totals."""
    pool = POOLS[mode]

    class Stream(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.detector = PalindromeDetector(mode)
            self.labels = []
            self.reports = []
            self.failed = False

        @precondition(lambda self: not self.failed)
        @rule(c=st.sampled_from(pool))
        def push(self, c):
            self.reports.append(self.detector.push(c))
            self.labels.append(label(pool, c))
            *_, want = expected_reports(self.labels)
            assert self.reports[-1] == want

        @rule()
        def finish(self):
            summary = self.detector.finish()
            assert summary.n == len(self.reports)
            assert summary.distinct_count == (
                self.reports[-1].distinct_count if self.reports else 0)

        @precondition(lambda self: not self.failed)
        @rule()
        def push_incomparable(self):
            with pytest.raises(ValueError, match="no comparison"):
                self.detector.push(Incomparable())
            self.failed = True

        @precondition(lambda self: self.failed)
        @rule(c=st.sampled_from(pool))
        def push_after_failure(self, c):
            with pytest.raises(RuntimeError, match="no comparison"):
                self.detector.push(c)

    Stream.TestCase.settings = settings(deadline=None, max_examples=100,
                                        stateful_step_count=40)
    return Stream


TestOrderedStream = stream_machine(ChildStorageMode.ORDERED).TestCase
TestUnorderedStream = stream_machine(ChildStorageMode.UNORDERED).TestCase
