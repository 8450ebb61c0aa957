"""The paper's comparison bounds, counted on real symbol comparisons.

Kosolobov, Rubinchik and Shur bound the work in symbol comparisons:
O(n log σ) when symbols are ordered and O(nσ) when they only compare for
equality, both optimal in the comparison model.  These tests count every
``__eq__`` and ``__lt__`` call on random words of 20,000 symbols (seed 5),
with one fresh symbol object per position, so that no identity shortcut
(``list.index`` tries ``is`` first) hides a comparison.

Limits, set from the counts measured when this module was written and never
to be widened; the measured counts given are the current ones:

- ordered, comparisons per symbol ≤ 1.5·log₂σ + 10: limits 11.5 / 16 / 22 /
  28 for σ = 2 / 16 / 256 / 4096, against 6.84 / 9.49 / 16.59 / 17.62
  measured, so at least 32% headroom;
- unordered, comparisons grow at least 0.5 × 16 = 8× from σ = 16 to σ = 256
  (measured 12.79 → 143.93, 11.3×).  σ = 2 → 16 grows only 2.5× and is not
  gated;
- a Manacher tracker makes at most one comparison per loop pass (measured
  28,359 against 34,555 passes on σ = 2).

The counts are exact and machine independent, so these tests cannot flake.
"""

import math
import random
from functools import cache

import pytest

from palstream import ChildStorageMode, PalindromeDetector
from palstream.automaton import OnlineSuffixAutomaton
from palstream.manacher import OnlineManacher

N = 20_000
SEED = 5


class Counted:
    """An int symbol that counts its comparisons in ``Counted.calls``.

    ``__eq__`` answers False for anything else, so a comparison with the
    buffer's boundary object (which falls back to the symbol's ``__eq__``)
    is counted too."""

    __slots__ = ("value",)
    calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        Counted.calls += 1
        return isinstance(other, Counted) and self.value == other.value

    def __lt__(self, other):
        Counted.calls += 1
        return self.value < other.value

    def __hash__(self):
        return hash(self.value)


def word(sigma):
    rng = random.Random(SEED)
    return [Counted(rng.randrange(sigma)) for _ in range(N)]


def comparisons(add_letter, symbols):
    """Comparisons made while ``add_letter`` takes every symbol."""
    Counted.calls = 0
    for c in symbols:
        add_letter(c)
    return Counted.calls


@cache
def detector_comparisons_per_symbol(mode, sigma):
    return comparisons(PalindromeDetector(mode).push, word(sigma)) / N


@pytest.mark.parametrize("sigma", [2, 16, 256, 4096])
def test_ordered_comparisons_within_log_sigma(sigma):
    per_symbol = detector_comparisons_per_symbol(ChildStorageMode.ORDERED, sigma)
    limit = 1.5 * math.log2(sigma) + 10
    assert per_symbol <= limit, \
        f"{per_symbol:.2f} comparisons per symbol > {limit} at sigma {sigma}"


def test_unordered_comparisons_grow_with_sigma():
    small, large = (detector_comparisons_per_symbol(ChildStorageMode.UNORDERED, s)
                    for s in (16, 256))
    assert large / small >= 0.5 * 256 / 16, \
        f"unordered comparisons grew only {large / small:.1f}x from sigma 16 to 256"


@pytest.mark.parametrize("sigma", [2, 16, 256])
def test_unordered_automaton_comparisons_equal_child_probes(sigma):
    automaton = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
    calls = comparisons(automaton.add_letter, word(sigma))
    assert calls == automaton.counters().child_probes


@pytest.mark.parametrize("sigma", [2, 16, 256])
def test_unordered_batch_comparisons_equal_child_probes(sigma):
    automaton = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
    w = word(sigma)
    cuts = [w[i:i + 7] for i in range(0, N, 7)]
    calls = comparisons(lambda cut: automaton._add_batch(cut, []), cuts)
    assert calls == automaton.counters().child_probes


@pytest.mark.parametrize("delta", [0, 1], ids=["odd", "even"])
def test_manacher_compares_at_most_once_per_loop_pass(delta):
    tracker = OnlineManacher(delta)
    calls = comparisons(tracker.add_letter, word(2))
    assert calls <= tracker.loop_iterations
