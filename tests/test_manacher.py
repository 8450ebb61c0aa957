"""Tests for the online maximal suffix-palindrome structure."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palstream import OnlineManacher, PalindromeDetector, manacher
from palstream.oracle import naive_max_suffix_palindrome
from support import FailsOnCall, all_strings

REFERENCE_WORD = "abadaadcaa"
# values observed after each symbol of the reference word, per parity
EXPECTED_ODD = [1, 1, 3, 1, 3, 1, 1, 1, 1, 1]
EXPECTED_EVEN = [0, 0, 0, 0, 0, 2, 4, 0, 0, 2]
# final radii at text positions 2..11 (the input positions)
EXPECTED_RADII_ODD = (0, 1, 0, 1, 0, 0, 0, 0, 0, 0)
EXPECTED_RADII_EVEN = (0, 0, 0, 0, 2, 0, 0, 0, 1, 0)


def feed(delta, w):
    m = OnlineManacher(delta)
    values = []
    for c in w:
        m.add_letter(c)
        values.append(m.max_pal())
    return m, values


def radii_of(m):
    """Radii at text positions 1..n (position 1 is the boundary).  Entries
    left of the center ``m._i`` are final; the center holds its current
    radius ``m._r`` and the positions right of it read 0."""
    return (tuple(m._rad) + (m._r,) + (0,) * len(m._text))[1:len(m._text)]


class TestConstruction:
    def test_loop_counter_starts_at_zero(self):
        assert OnlineManacher(0).loop_iterations == 0
        assert OnlineManacher(1).loop_iterations == 0

    def test_query_before_any_symbol_raises(self):
        with pytest.raises(RuntimeError):
            OnlineManacher(0).max_pal()

    def test_fresh_state(self):
        # only the boundary in the text, center candidate parked one past the end
        for delta in (0, 1):
            m = OnlineManacher(delta)
            assert len(m._text) - 2 == 0  # input symbols; the boundary is not one
            assert m._i == 2
            assert radii_of(m) == (0,)

    def test_bad_parity_rejected(self):
        # a float equal to 0 or 1 would pass `in (0, 1)` and then fail as a
        # list index on the second symbol
        for delta in (2, 0.0, 1.0):
            with pytest.raises(ValueError):
                OnlineManacher(delta)

    def test_failed_add_letter_stops_the_tracker(self):
        class Uncomparable:
            def __eq__(self, other):
                raise ArithmeticError("cannot compare")

            __hash__ = object.__hash__

        for delta in (0, 1):
            m, _ = feed(delta, "abc")
            with pytest.raises(ArithmeticError):
                m.add_letter(Uncomparable())
            with pytest.raises(RuntimeError, match="ArithmeticError") as info:
                m.add_letter("a")
            assert isinstance(info.value.__cause__, ArithmeticError)


    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failure_on_a_later_pass_stops_the_tracker(self, k):
        # after a^6 a new symbol is compared on 3 (odd) or 4 (even) passes:
        # the first one, then one per center up to the last position
        for delta in (0, 1):
            m, _ = feed(delta, "a" * 6)
            c = FailsOnCall(k)
            with pytest.raises(ArithmeticError):
                m.add_letter(c)
            assert c.calls == k
            with pytest.raises(RuntimeError, match="ArithmeticError") as info:
                m.add_letter("a")
            assert isinstance(info.value.__cause__, ArithmeticError)


class TestReferenceWord:
    def test_odd_sequence(self):
        _, values = feed(0, REFERENCE_WORD)
        assert values == EXPECTED_ODD

    def test_even_sequence(self):
        _, values = feed(1, REFERENCE_WORD)
        assert values == EXPECTED_EVEN

    def test_final_radii(self):
        m_odd, _ = feed(0, REFERENCE_WORD)
        m_even, _ = feed(1, REFERENCE_WORD)
        assert radii_of(m_odd)[1:] == EXPECTED_RADII_ODD
        assert radii_of(m_even)[1:] == EXPECTED_RADII_EVEN


class TestSmallCases:
    def test_single_letter_odd(self):
        _, values = feed(0, "z")
        assert values == [1]

    def test_single_letter_even_is_empty(self):
        _, values = feed(1, "a")
        assert values == [0]

    def test_uniform_loop_trace(self):
        # hand-stepped: the four adds use 0, 1, 1 and 2 loop passes (odd
        # parity) and 0, 1, 2 and 1 passes (even parity), both totalling 4
        m_odd, _ = feed(0, "aaaa")
        m_even, _ = feed(1, "aaaa")
        assert m_odd.loop_iterations == 4
        assert m_even.loop_iterations == 4


def brute_radius(w, center, delta):
    """Maximal radius of the delta-parity palindrome centered at ``center``
    (1-based position in w), by direct expansion."""
    n = len(w)
    r = 0
    while True:
        left = center - (r + 1) + delta
        right = center + (r + 1)
        if left < 1 or right > n or w[left - 1] != w[right - 1]:
            return r
        r += 1


class TestOracleEquivalence:
    def test_exhaustive_binary(self):
        for w in all_strings("ab", 10):
            for delta in (0, 1):
                m = OnlineManacher(delta)
                for k, c in enumerate(w, 1):
                    m.add_letter(c)
                    assert m.max_pal() == naive_max_suffix_palindrome(w[:k], delta), \
                        (w, k, delta)

    def test_exhaustive_ternary(self):
        for w in all_strings("abc", 7):
            for delta in (0, 1):
                m, values = feed(delta, w)
                expected = [naive_max_suffix_palindrome(w[:k], delta)
                            for k in range(1, len(w) + 1)]
                assert values == expected, (w, delta)

    @settings(deadline=None)
    @given(st.text(alphabet="abcd", min_size=1, max_size=60))
    def test_random_strings(self, w):
        for delta in (0, 1):
            _, values = feed(delta, w)
            expected = [naive_max_suffix_palindrome(w[:k], delta)
                        for k in range(1, len(w) + 1)]
            assert values == expected

    def test_completed_radii_match_brute_force(self):
        # every entry left of the center is the true maximal radius; on the
        # long word both parities store radii above 256 mid-word
        long_word = "a" * 600 + "b" + "a" * 300
        for w in [*all_strings("ab", 9), long_word]:
            for delta in (0, 1):
                m, _ = feed(delta, w)
                assert len(m._rad) == m._i, (w, delta)
                radii = (0,) + radii_of(m)  # re-pad to text positions
                for pos in range(2, m._i):
                    assert radii[pos] == brute_radius(w, pos - 1, delta), \
                        (w, delta, pos)


class TestAmortizedBound:
    def test_exhaustive_short(self):
        for w in all_strings("ab", 10):
            m0, _ = feed(0, w)
            m1, _ = feed(1, w)
            assert m0.loop_iterations + m1.loop_iterations <= 4 * len(w)

    def test_random_long(self):
        rng = random.Random(11)
        for sigma in (1, 2, 26):
            letters = "abcdefghijklmnopqrstuvwxyz"[:sigma]
            w = "".join(rng.choice(letters) for _ in range(5000))
            m0, _ = feed(0, w)
            m1, _ = feed(1, w)
            assert m0.loop_iterations + m1.loop_iterations <= 4 * len(w)

    def test_add_letter_returns_max_pal(self):
        for w in all_strings("ab", 8):
            for delta in (0, 1):
                m = OnlineManacher(delta)
                for c in w:
                    assert m.add_letter(c) == m.max_pal(), (w, delta)

    def test_counter_is_monotone(self):
        m = OnlineManacher(0)
        last = 0
        for c in "abaabbabaab":
            m.add_letter(c)
            assert m.loop_iterations >= last
            last = m.loop_iterations


class TestMirrorSymmetry:
    def test_final_radii_satisfy_reflection_rule(self):
        # for a completed center c and offset k within its palindrome, the
        # right-side radius is pinned by the left side unless both hit the
        # palindrome border
        for w in all_strings("ab", 10):
            for delta in (0, 1):
                m, _ = feed(delta, w)
                radii = (0,) + radii_of(m)
                for c in range(2, m._i):
                    for k in range(1, radii[c] + 1):
                        if c + k >= m._i or c - k < 1:
                            continue
                        left, here = radii[c - k], radii[c]
                        if left < here - k:
                            assert radii[c + k] == left, (w, delta, c, k)
                        elif left > here - k:
                            assert radii[c + k] == here - k, (w, delta, c, k)


class TestDeterminism:
    def test_identical_feeds_identical_state(self):
        rng = random.Random(5)
        w = "".join(rng.choice("ab") for _ in range(200))
        a, va = feed(0, w)
        b, vb = feed(0, w)
        assert va == vb
        assert radii_of(a) == radii_of(b)
        assert a._i == b._i
        assert a.loop_iterations == b.loop_iterations

    def test_center_stays_in_range(self):
        rng = random.Random(6)
        w = "".join(rng.choice("abc") for _ in range(300))
        m = OnlineManacher(0)
        for k, c in enumerate(w, 1):
            m.add_letter(c)
            assert 2 <= m._i <= k + 2  # text length is k + 1

    def test_arbitrary_symbols(self):
        # the suffix 42, ("tok",), 42 is an odd palindrome of length 3
        m = OnlineManacher(0)
        for sym in (b"x", 42, ("tok",), 42):
            m.add_letter(sym)
        assert m.max_pal() == 3

    def test_token_symbols(self):
        m = OnlineManacher(0)
        for sym in ("alpha", "beta", "alpha"):
            m.add_letter(sym)
        assert m.max_pal() == 3


def random_letters(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


class TestMemory:
    """Bytes the trackers still hold after 20,000 symbols, per symbol.

    Each tracker keeps one radius per center left of its current one, 8
    bytes in an ``array('q')``.  Measured with both trackers of a detector:
    8.18 on a^n (the centers sit mid-text), 12.60 on (ab)^k and 17.01 on
    random a-z; the limits leave 22%, 19% and 9% headroom.  A boxed int per
    radius or a placeholder slot per position right of the center crosses
    the first two limits (a list of both read 48.5 and 32.9).  The random
    case, where radii are small and centers follow the text's end, read
    17.31 that way too: it only guards against a second slot per symbol.
    """

    @pytest.mark.parametrize("word, limit", [
        ("a" * 20_000, 10),
        ("ab" * 10_000, 15),
        (random_letters(20_000, seed=7), 18.5),
    ], ids=["uniform", "alternating", "random"])
    def test_bytes_per_symbol(self, word, limit):
        tracemalloc.start()
        try:
            detector = PalindromeDetector()
            for c in word:
                detector.push(c)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, manacher.__file__)])
        assert sum(stat.size for stat in held.statistics("filename")) / len(word) <= limit
