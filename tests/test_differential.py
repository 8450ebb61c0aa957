"""Differential runs against the benchmark's linear-time reference.

``perfbench/reference.py`` derives every report field from an eertree
(Rubinchik and Shur, arXiv:1506.04862) and a dictionary-based suffix
automaton, sharing no logic with the package.  It runs in linear time on
the words below, so they can be far longer than the cubic oracle allows.
"""

import random
import string
from itertools import product
from pathlib import Path

import pytest

from palstream import ChildStorageMode, PalindromeDetector

N = 100_000


@pytest.fixture
def expected_reports(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from reference import expected_reports

    return expected_reports


def assert_matches_reference(symbols, expected_reports, modes=tuple(ChildStorageMode)):
    """Push ``symbols`` through one detector per mode, comparing every
    report with the reference's tuple of the same step."""
    detectors = [PalindromeDetector(mode) for mode in modes]
    for c, want in zip(symbols, expected_reports(symbols)):
        for det in detectors:
            got = det.push(c)
            assert got == want, (det.mode.value, got, want)
    assert [det.n for det in detectors] == [len(symbols)] * len(detectors)


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def thue_morse(n):
    return "".join("ab"[bin(i).count("1") & 1] for i in range(n))


def abx_blocks(n, rng):
    # a b x1 a b x2 ...: the only palindromes are single letters
    xs = rng.choices(string.ascii_lowercase[2:], k=(n + 2) // 3)
    return "".join("ab" + x for x in xs)[:n]


def random_tokens(n, rng):
    vocab = [f"t{k:03d}" for k in range(256)]
    return rng.choices(vocab, k=n)


LONG_WORDS = {
    "fibonacci": lambda: fibonacci_word(N),
    "thue_morse": lambda: thue_morse(N),
    "uniform_a": lambda: "a" * N,
    "abx": lambda: abx_blocks(N, random.Random(3)),
    "random_sigma2": lambda: "".join(random.Random(5).choices("ab", k=N)),
    "random_sigma26": lambda: "".join(random.Random(7).choices(string.ascii_lowercase, k=N)),
    "tokens256": lambda: random_tokens(N, random.Random(11)),
    # the reference's parity walk is quadratic on (ab)^k, so k stays small
    "ab_repeated": lambda: "ab" * 2_000,
}


class TestLongWords:
    @pytest.mark.parametrize("name", list(LONG_WORDS))
    def test_every_report_matches(self, name, expected_reports):
        assert_matches_reference(LONG_WORDS[name](), expected_reports)


class TestPaddingSlots:
    """The text buffer starts with ``None`` (slot 0) and a private boundary
    object (slot 1); neither may ever equal an input symbol."""

    def test_none_is_an_ordinary_symbol(self, expected_reports):
        for length in range(1, 13):
            for word in product((None, 0), repeat=length):
                assert_matches_reference(list(word), expected_reports,
                                         (ChildStorageMode.UNORDERED,))

    def test_fresh_objects_are_ordinary_symbols(self, expected_reports):
        rng = random.Random(13)
        for sigma in (1, 2, 3, 8):
            pool = [object() for _ in range(sigma)]
            for _ in range(20):
                word = rng.choices(pool, k=rng.randint(1, 200))
                assert_matches_reference(word, expected_reports,
                                         (ChildStorageMode.UNORDERED,))
