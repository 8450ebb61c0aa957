"""Tests for the online maximal suffix-palindrome structure."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palstream import OnlineManacher, PalindromeDetector, manacher
from palstream._buffer import _new_text
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
        # the boundary in slots 0 and 1 and the center on it: before every
        # symbol, the first included, the suffix-palindrome ends at the
        # text's last position
        for delta in (0, 1):
            m = OnlineManacher(delta)
            assert len(m._text) - 2 == 0  # input symbols; the boundary is not one
            assert m._text[0] is m._text[1]
            assert (m._i, m._r, radii_of(m)) == (1, 0, (0,))
            for c in "abaab":
                assert m._i + m._r == len(m._text) - 1, (delta, c)
                assert len(m._rad) == m._i, (delta, c)
                m.add_letter(c)

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


class TestSpan:
    """``_add_spans``, the detector's batch path: an odd and an even tracker
    over an owner's text absorb the symbols at a range of positions in one
    call, each symbol through both parities."""

    @staticmethod
    def state(m):
        return tuple(m._rad), m._i, m._r, m.loop_iterations

    @pytest.mark.parametrize("delta", [0, 1])
    def test_spans_build_what_add_letter_builds(self, delta):
        # both trackers go through _add_spans; the one of parity delta must
        # match add_letter's
        rng = random.Random(8)
        for _ in range(30):
            w = rng.choices("aab", k=rng.randint(1, 200))
            one, values = feed(delta, w)
            text = _new_text()
            spanned = OnlineManacher._over(text, 0), OnlineManacher._over(text, 1)
            lengths = [], []
            for cut in range(0, len(w), 7):  # text[2 + k] is symbol k
                text.extend(w[cut:cut + 7])
                manacher._add_spans(*spanned, 2 + cut, len(text), *lengths)
            assert lengths[delta] == values
            assert self.state(spanned[delta]) == self.state(one)

    # after a^6 the next symbol is compared 3 times in the odd step and 4
    # times in the even step: the first test, then one per center up to the
    # last position
    BEFORE = "a" * 6
    ODD_CALLS, EVEN_CALLS = 3, 4

    def span_failing_at(self, k):
        """The trackers and answers after a^6, a symbol that fails at its
        k-th comparison, then two more symbols, taken in one call."""
        failing = FailsOnCall(k)
        text = _new_text() + [*self.BEFORE, failing, "a", "a"]
        odd, even = OnlineManacher._over(text, 0), OnlineManacher._over(text, 1)
        lengths = [], []
        with pytest.raises(ArithmeticError):
            manacher._add_spans(odd, even, 2, len(text), *lengths)
        assert failing.calls == k
        return odd, even, lengths

    def test_comparisons_per_step(self):
        never = FailsOnCall(0)
        for delta, calls in ((0, self.ODD_CALLS), (1, self.EVEN_CALLS)):
            m, _ = feed(delta, self.BEFORE)
            m.add_letter(never)
            assert never.calls == calls, delta
            never.calls = 0

    @pytest.mark.parametrize("k", range(1, ODD_CALLS + 1))
    def test_a_symbol_failing_in_the_odd_step(self, k):
        # neither tracker has absorbed it: the odd one is where add_letter
        # leaves it after raising, the even one is as after a^6
        odd, even, lengths = self.span_failing_at(k)
        want_odd, odd_values = feed(0, self.BEFORE)
        with pytest.raises(ArithmeticError):
            want_odd.add_letter(FailsOnCall(k))
        want_even, even_values = feed(1, self.BEFORE)
        assert lengths == (odd_values, even_values)
        assert (self.state(odd), self.state(even)) == (self.state(want_odd),
                                                        self.state(want_even))

    @pytest.mark.parametrize("k", range(1, EVEN_CALLS + 1))
    def test_a_symbol_failing_in_the_even_step(self, k):
        # the odd tracker has absorbed it, answer and loop passes included;
        # the even one is where add_letter leaves it after raising
        odd, even, lengths = self.span_failing_at(self.ODD_CALLS + k)
        want_odd, odd_values = feed(0, self.BEFORE)
        odd_values.append(want_odd.add_letter(FailsOnCall(0)))
        want_even, even_values = feed(1, self.BEFORE)
        with pytest.raises(ArithmeticError):
            want_even.add_letter(FailsOnCall(k))
        assert lengths == (odd_values, even_values)
        assert (self.state(odd), self.state(even)) == (self.state(want_odd),
                                                        self.state(want_even))


def random_letters(n, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


class TestMemory:
    """Bytes the trackers still hold after 20,000 symbols, per symbol.

    Each tracker keeps one radius per center left of its current one, in
    the narrowest array that holds them: 'B' on random a-z and on the even
    radii of (ab)^k, which are all 0, and 'H' on a^n and the odd radii of
    (ab)^k, which reach 10,000.  Measured with both trackers of a detector
    on 3.10.13, 3.11.7, 3.12.1 and 3.13.0: 2.04-2.11 on a^n (the centers
    sit mid-text), 2.09-2.10 on (ab)^k and 2.15 on random a-z; the limit,
    2.5, leaves 16% to 22% headroom.  4-byte radii in an ``array('i')``
    cross all three limits (4.10-4.18, 6.30 and 8.51), and so do 8-byte
    radii, a boxed int per radius or a placeholder slot per position right
    of the center.  Radii that start at 2 bytes cross the limits on (ab)^k
    and random text (3.17 and 4.27 on 3.11.7).
    """

    @pytest.mark.parametrize("word, limit", [
        ("a" * 20_000, 2.5),
        ("ab" * 10_000, 2.5),
        (random_letters(20_000, seed=7), 2.5),
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
