"""Differential runs against the benchmark's linear-time reference.

``perfbench/reference.py`` derives every report field from an eertree
(Rubinchik and Shur, arXiv:1506.04862) and a dictionary-based suffix
automaton, sharing no logic with the package.  It runs in linear time on
the words below, so they can be far longer than the cubic oracle allows.
"""

import random
import string
from itertools import chain, product

import pytest

from palstream import ChildStorageMode, PalindromeDetector
from reference import expected_reports
from support import fibonacci_word, random_tokens

N = 100_000


def uneven_pieces(symbols):
    """``symbols`` cut into pieces of 1, 255, 256 and 257 symbols, then the
    rest: a piece that is less than, exactly or more than one batch of
    ``feed``, each starting where the last left off."""
    cuts = [0, 1, 256, 512, 769, len(symbols)]
    return [symbols[a:b] for a, b in zip(cuts, cuts[1:])]


def assert_matches_reference(symbols, modes=tuple(ChildStorageMode)):
    """Per mode, push ``symbols`` through one detector and feed them in
    uneven pieces to another, comparing every report of both with the
    reference's tuple of the same step; both paths must end with the same
    totals, within the bounds."""
    pushed = [PalindromeDetector(mode) for mode in modes]
    fed = [PalindromeDetector(mode) for mode in modes]
    feeds = [chain.from_iterable(map(det.feed, uneven_pieces(symbols))) for det in fed]
    for c, want, *from_feed in zip(symbols, expected_reports(symbols), *feeds):
        for det in pushed:
            got = det.push(c)
            assert got == want, (det.mode.value, got, want)
        for det, got in zip(fed, from_feed):
            assert got == want, ("feed", det.mode.value, got, want)
    assert [det.n for det in pushed + fed] == [len(symbols)] * 2 * len(modes)
    for by_push, by_feed in zip(pushed, fed):
        summary = by_push.finish()
        assert by_feed.finish() == summary
        assert summary.bound_problems() == []


def thue_morse(n):
    return "".join("ab"[bin(i).count("1") & 1] for i in range(n))


def abx_blocks(n, rng):
    # a b x1 a b x2 ...: the only palindromes are single letters
    xs = rng.choices(string.ascii_lowercase[2:], k=(n + 2) // 3)
    return "".join("ab" + x for x in xs)[:n]


BOTH_MODES = tuple(ChildStorageMode)

#: Each family: a word of ``n`` symbols, and the modes that run it.
LONG_WORDS = {
    "fibonacci": (fibonacci_word, BOTH_MODES),
    "thue_morse": (thue_morse, BOTH_MODES),
    "uniform_a": (lambda n: "a" * n, BOTH_MODES),
    "abx": (lambda n: abx_blocks(n, random.Random(3)), BOTH_MODES),
    "random_sigma2": (lambda n: "".join(random.Random(5).choices("ab", k=n)), BOTH_MODES),
    "random_sigma26": (lambda n: "".join(random.Random(7).choices(string.ascii_lowercase, k=n)),
                       BOTH_MODES),
    "tokens256": (lambda n: random_tokens(n, random.Random(11)), BOTH_MODES),
    # the reference's parity walk is quadratic on (ab)^k, so k stays small
    "ab_repeated": (lambda n: "ab" * min(n // 2, 2_000), BOTH_MODES),
    # the automaton's size bounds (Blumer et al.): 2n - 1 states, then
    # 3n - 4 transitions
    "a_then_b_run": (lambda n: "a" + "b" * (n - 1), BOTH_MODES),
    "a_then_b_run_then_c": (lambda n: "a" + "b" * (n - 2) + "c", BOTH_MODES),
    # a long run, then symbols that end it: one push walks the whole run
    "a_run_then_bca": (lambda n: "a" * (n - 3) + "bca", BOTH_MODES),
    # large transition lists; an unordered scan of them is too slow here
    "random_ints_sigma65536": (lambda n: random.Random(17).choices(range(1 << 16), k=n),
                               (ChildStorageMode.ORDERED,)),
}


class TestLongWords:
    @pytest.mark.parametrize("name", list(LONG_WORDS))
    def test_every_report_matches(self, name):
        word, modes = LONG_WORDS[name]
        assert_matches_reference(word(N), modes)


class TestPaddingSlots:
    """The text buffer starts with a private boundary object in slots 0 and
    1, which must never equal an input symbol.  Slot 0 is read only by the
    first symbol's odd test."""

    def test_none_is_an_ordinary_symbol(self):
        # in both modes on a unary word, which ordered mode compares with ==
        # only; a None first symbol meets slot 0 in its odd test
        assert_matches_reference([None] * 5)
        for length in range(1, 13):
            for word in product((None, 0), repeat=length):
                assert_matches_reference(list(word), (ChildStorageMode.UNORDERED,))

    def test_fresh_objects_are_ordinary_symbols(self):
        rng = random.Random(13)
        for sigma in (1, 2, 3, 8):
            pool = [object() for _ in range(sigma)]
            for _ in range(20):
                word = rng.choices(pool, k=rng.randint(1, 200))
                assert_matches_reference(word, (ChildStorageMode.UNORDERED,))
