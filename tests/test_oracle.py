"""Tests for the brute-force reference implementations themselves."""

import random

import pytest

from palstream import oracle
from support import all_strings


class TestIsPalindrome:
    def test_empty(self):
        assert oracle.is_palindrome("")

    def test_examples(self):
        assert oracle.is_palindrome("daad")
        assert oracle.is_palindrome("aba")
        assert not oracle.is_palindrome("ab")

    def test_sequences(self):
        assert oracle.is_palindrome([1, 2, 1])
        assert not oracle.is_palindrome((1, 2))


class TestDistinctSubpalindromes:
    def test_reference_word(self):
        spans = oracle.naive_distinct_subpalindromes("abadaadcaa")
        assert spans == {
            "a": (1, 1),
            "b": (2, 2),
            "aba": (1, 3),
            "d": (4, 4),
            "ada": (3, 5),
            "aa": (5, 6),
            "daad": (4, 7),
            "c": (8, 8),
        }

    def test_empty(self):
        assert oracle.naive_distinct_subpalindromes("") == {}

    def test_uniform(self):
        spans = oracle.naive_distinct_subpalindromes("aaaa")
        assert spans == {"a": (1, 1), "aa": (1, 2), "aaa": (1, 3), "aaaa": (1, 4)}

    def test_count_bound(self):
        # at most |w| distinct non-empty palindromic substrings
        for w in all_strings("ab", 9):
            assert len(oracle.naive_distinct_subpalindromes(w)) <= len(w)

    def test_token_sequence_keys(self):
        spans = oracle.naive_distinct_subpalindromes([3, 1, 3])
        assert spans == {(3,): (1, 1), (1,): (2, 2), (3, 1, 3): (1, 3)}


class TestMaxSuffixPalindrome:
    def test_any_parity(self):
        assert oracle.naive_max_suffix_palindrome("abadaa") == 2

    def test_even(self):
        assert oracle.naive_max_suffix_palindrome("abadaad", parity=1) == 4

    def test_odd_single(self):
        assert oracle.naive_max_suffix_palindrome("z", parity=0) == 1

    def test_even_may_be_zero(self):
        assert oracle.naive_max_suffix_palindrome("ab", parity=1) == 0

    def test_odd_on_empty_raises(self):
        with pytest.raises(ValueError):
            oracle.naive_max_suffix_palindrome("", parity=0)

    def test_parity_consistency(self):
        for w in all_strings("ab", 8):
            odd = oracle.naive_max_suffix_palindrome(w, 0)
            even = oracle.naive_max_suffix_palindrome(w, 1)
            assert odd % 2 == 1 and even % 2 == 0
            assert oracle.naive_max_suffix_palindrome(w) == max(odd, even)


class TestMinUniqueSuffix:
    def test_reference_word(self):
        assert oracle.naive_min_unique_suffix("abadaadcaa") == 3

    def test_single(self):
        assert oracle.naive_min_unique_suffix("a") == 1

    def test_uniform(self):
        assert oracle.naive_min_unique_suffix("aaa") == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            oracle.naive_min_unique_suffix("")

    def test_overlapping_occurrences_count(self):
        # "aa" occurs twice in "aaa" (overlapping), so it is not unique
        assert oracle.naive_min_unique_suffix("aaa") != 2


class TestPalindromicClosure:
    def test_examples(self):
        assert oracle.naive_palindromic_closure("abad") == "abadaba"
        assert oracle.naive_palindromic_closure("aba") == "aba"
        assert oracle.naive_palindromic_closure("abadaa") == "abadaadaba"
        assert oracle.naive_palindromic_closure("") == ""

    def test_length_law(self):
        rng = random.Random(7)
        for _ in range(200):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 30)))
            closure = oracle.naive_palindromic_closure(w)
            assert len(closure) == 2 * len(w) - oracle.naive_max_suffix_palindrome(w)

    def test_is_minimal_palindrome_with_prefix(self):
        # any shorter palindrome with w as prefix would have to mirror a
        # shorter head of w; none of those candidates may be palindromic
        for w in all_strings("ab", 7):
            closure = oracle.naive_palindromic_closure(w)
            assert oracle.is_palindrome(closure)
            assert closure[:len(w)] == w
            n = len(w)
            for m in range(n, len(closure)):
                candidate = w + w[:m - n][::-1]
                assert not oracle.is_palindrome(candidate)


class TestGenAbx:
    def test_single_block(self):
        assert oracle.gen_abx("a", "b", ["c"]) == "abc"

    def test_multi_block(self):
        w = oracle.gen_abx("a", "b", list("cdc"))
        assert w == "abcabdabc"
        assert set(oracle.naive_distinct_subpalindromes(w)) == {"a", "b", "c", "d"}

    def test_equal_markers_rejected(self):
        with pytest.raises(ValueError):
            oracle.gen_abx("a", "a", ["c"])

    def test_colliding_separator_rejected(self):
        with pytest.raises(ValueError):
            oracle.gen_abx("a", "b", ["c", "a"])

    def test_int_symbols_give_list(self):
        assert oracle.gen_abx(0, 1, [2, 3]) == [0, 1, 2, 0, 1, 3]

    def test_no_long_palindromic_substring(self):
        rng = random.Random(3)
        letters = "abcdefgh"
        for _ in range(50):
            xs = [rng.choice(letters[2:]) for _ in range(rng.randint(1, 12))]
            w = oracle.gen_abx(letters[0], letters[1], xs)
            assert all(len(p) == 1
                       for p in oracle.naive_distinct_subpalindromes(w))
