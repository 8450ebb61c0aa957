"""Memory tests for the online suffix automaton.

The automaton replaced an Ukkonen suffix tree, whose test file this was; its
other tests are now in `test_automaton.py`."""

import tracemalloc

import pytest

import palstream.automaton
from palstream import ChildStorageMode, OnlineSuffixAutomaton
from support import fibonacci_word


class TestMemory:
    """Bytes the automaton still holds after 20,000 symbols, per symbol.

    Every transition of ``a``^n is a chain edge, so it measures the text
    and the suffix links alone: 12.86 in both modes, 8 bytes a text slot and
    4 a link; the limit, 14.0, leaves 8% headroom, and 8-byte links read
    17.08.  The Fibonacci word stores transition lists at 19 prefix states
    spread over the whole text; a structure sized by the highest of them
    pays for every prefix state below it.  Measured: 12.94 ordered and
    12.93 unordered; the limit, a^n plus 1.0, leaves 0.92 headroom.  A
    list slot per prefix state up to the highest with transitions read
    21.48 on the Fibonacci word (with 8-byte links).
    """

    @staticmethod
    def bytes_per_symbol(word, mode):
        tracemalloc.start()
        try:
            a = OnlineSuffixAutomaton(mode)
            for c in word:
                a.add_letter(c)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        source = tracemalloc.Filter(True, palstream.automaton.__file__)
        held = snapshot.filter_traces([source])
        return sum(stat.size for stat in held.statistics("filename")) / len(word)

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_unary_costs_at_most_14_bytes(self, mode):
        assert self.bytes_per_symbol("a" * 20_000, mode) <= 14.0

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_fibonacci_costs_no_more_than_unary(self, mode):
        unary = self.bytes_per_symbol("a" * 20_000, mode)
        assert self.bytes_per_symbol(fibonacci_word(20_000), mode) <= unary + 1.0
