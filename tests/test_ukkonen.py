"""Tests for the online suffix automaton and its shortest-unique-suffix
queries.

The automaton replaced an Ukkonen suffix tree. This file keeps the tree's
test file name, and the tests that still apply keep their names, so their
ids stay stable; the benchmark also still calls this layer `ukkonen`."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palstream import ChildStorageMode, OnlineSuffixAutomaton
from palstream.oracle import naive_min_unique_suffix

REFERENCE_WORD = "abadaadcaa"
EXPECTED_MIN_UNIQUE = [1, 1, 2, 1, 2, 2, 3, 1, 2, 3]


def build(w, mode=ChildStorageMode.ORDERED):
    automaton = OnlineSuffixAutomaton(mode)
    values = []
    for c in w:
        automaton.add_letter(c)
        values.append(automaton.min_unique_suff())
    return automaton, values


def all_strings(alphabet, max_len):
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


# -- readers of the layout documented on OnlineSuffixAutomaton ---------------

def text_of(a):
    return a._text[2:]


def states(a):
    return [*range(len(text_of(a)) + 1), *(~k for k in range(1, len(a._clone_len)))]


def length(a, s):
    return s if s >= 0 else a._clone_len[~s]


def link(a, s):
    return a._link[s] if s >= 0 else a._clone_link[~s]


def explicit(a, s):
    """Explicit transitions of state s as (symbol, target) pairs, in storage
    order."""
    if s >= 0:
        edges = a._out[s] if s < len(a._out) else None
    else:
        edges = a._clone_out[~s]
    if edges is None:
        return []
    m = len(edges) // 2
    return list(zip(edges[:m], edges[m:]))


def chain(a, s):
    """The chain edge of state s as a (symbol, target) pair, or None."""
    text = text_of(a)
    return (text[s], s + 1) if 0 <= s < len(text) else None


def transitions(a, s):
    out = dict(explicit(a, s))
    if chain(a, s) is not None:
        out.update([chain(a, s)])
    return out


def spelled(a):
    """Every string readable from the root, mapped to the state it reaches."""
    reached = {(): 0}
    stack = [((), 0)]
    while stack:
        word, s = stack.pop()
        for sym, target in transitions(a, s).items():
            longer = word + (sym,)
            assert longer not in reached
            reached[longer] = target
            stack.append((longer, target))
    return reached


def substrings(w):
    return {tuple(w[i:j]) for i in range(len(w) + 1) for j in range(i, len(w) + 1)}


class TestConstruction:
    def test_empty_automaton_has_only_root(self):
        automaton = OnlineSuffixAutomaton()
        assert automaton.counters().nodes == 1

    def test_query_on_empty_raises(self):
        with pytest.raises(RuntimeError):
            OnlineSuffixAutomaton().min_unique_suff()

    def test_single_symbol(self):
        automaton, values = build("a")
        assert values == [1]
        assert automaton.counters().nodes == 2

    def test_three_distinct_symbols_no_clones(self):
        # one state per prefix; the root reaches b and c explicitly
        automaton, _ = build("abc")
        assert automaton.counters().nodes == 4
        assert explicit(automaton, 0) == [("b", 2), ("c", 3)]

    def test_mode_accepts_plain_strings(self):
        automaton = OnlineSuffixAutomaton("unordered")
        assert automaton.mode is ChildStorageMode.UNORDERED

    def test_failed_add_letter_stops_the_automaton(self):
        # ordered mode bisects the root's explicit symbols: "b" there makes
        # the int 1 incomparable halfway through the update
        automaton, _ = build("ab")
        with pytest.raises(TypeError):
            automaton.add_letter(1)
        with pytest.raises(RuntimeError, match="TypeError") as info:
            automaton.add_letter("a")
        assert isinstance(info.value.__cause__, TypeError)


class TestMinUniqueSuffix:
    def test_reference_word(self):
        _, values = build(REFERENCE_WORD)
        assert values == EXPECTED_MIN_UNIQUE

    def test_uniform(self):
        _, values = build("aaa")
        assert values == [1, 2, 3]

    def test_two_distinct(self):
        _, values = build("ab")
        assert values == [1, 1]

    def test_exhaustive_binary(self):
        for w in all_strings("ab", 10):
            _, values = build(w)
            expected = [naive_min_unique_suffix(w[:k])
                        for k in range(1, len(w) + 1)]
            assert values == expected, w

    def test_exhaustive_ternary(self):
        for w in all_strings("abc", 6):
            _, values = build(w)
            expected = [naive_min_unique_suffix(w[:k])
                        for k in range(1, len(w) + 1)]
            assert values == expected, w

    @settings(deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=60))
    def test_random_strings(self, w):
        _, values = build(w)
        expected = [naive_min_unique_suffix(w[:k])
                    for k in range(1, len(w) + 1)]
        assert values == expected

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_integer_symbols(self, symbols):
        _, values = build(symbols)
        expected = [naive_min_unique_suffix(symbols[:k])
                    for k in range(1, len(symbols) + 1)]
        assert values == expected

    def test_add_letter_returns_min_unique_suff(self):
        # covers clones from chain states and from clones, in both modes
        for mode in ChildStorageMode:
            for w in all_strings("abc", 7):
                automaton = OnlineSuffixAutomaton(mode)
                for c in w:
                    assert automaton.add_letter(c) == automaton.min_unique_suff(), (w, mode)


class TestStructure:
    def test_layout_golden(self):
        # "abb": the second b splits the state of "ab" (reached from the root
        # by a non-solid b edge) into clone ~1 for "b" and state 2 for "ab"
        automaton, _ = build("abb")
        assert list(automaton._link) == [-1, 0, ~1, ~1]
        assert list(automaton._clone_len) == [0, 1]
        assert list(automaton._clone_link) == [0, 0]
        assert automaton._out == [["b", ~1]]
        assert automaton._clone_out == [None, ["b", 3]]

    def test_accepts_exactly_the_substrings(self):
        for w in all_strings("ab", 10):
            automaton, _ = build(w)
            assert set(spelled(automaton)) == substrings(w), w

    def test_unique_suffixes_reach_the_last_state(self):
        # a suffix occurs exactly once iff it ends only at the text's end
        for w in all_strings("ab", 8):
            automaton, _ = build(w)
            reached = spelled(automaton)
            unique = {suffix for suffix in (w[i:] for i in range(len(w)))
                      if sum(w.startswith(suffix, at) for at in range(len(w))) == 1}
            last = {suffix for suffix in (w[i:] for i in range(len(w)))
                    if reached[tuple(suffix)] == len(w)}
            assert last == unique, w

    def test_links_strictly_shorten(self):
        # a state's length is that of its longest string, and its link is the
        # state of the longest suffix of that string living in another state
        for w in all_strings("ab", 9):
            automaton, _ = build(w)
            reached = spelled(automaton)
            strings = {}
            for word, s in reached.items():
                strings.setdefault(s, []).append(word)
            assert sorted(strings) == sorted(states(automaton)), w
            for s in states(automaton):
                longest = max(strings[s], key=len)
                assert length(automaton, s) == len(longest), (w, s)
                if s == 0:
                    assert link(automaton, s) == -1
                    continue
                assert length(automaton, link(automaton, s)) < length(automaton, s), (w, s)
                cut = next(k for k in range(1, len(longest) + 1)
                           if reached[longest[k:]] != s)
                assert link(automaton, s) == reached[longest[cut:]], (w, s)

    def test_ordered_explicit_symbols_distinct_and_sorted(self):
        automaton, _ = build("abaabbabaababcabcacbbca")
        for s in states(automaton):
            symbols = [sym for sym, _ in explicit(automaton, s)]
            assert len(set(symbols)) == len(symbols)
            assert symbols == sorted(symbols), s

    def test_no_explicit_transition_duplicates_a_chain_edge(self):
        for mode in ChildStorageMode:
            for w in all_strings("abc", 6):
                automaton, _ = build(w, mode)
                for s in states(automaton):
                    edge = chain(automaton, s)
                    if edge is not None:
                        assert edge[0] not in dict(explicit(automaton, s)), (w, s)


class TestBoundsAndCounters:
    def test_node_count_linear(self):
        rng = random.Random(9)
        for sigma in (1, 2, 4, 26):
            letters = "abcdefghijklmnopqrstuvwxyz"[:sigma]
            w = "".join(rng.choice(letters) for _ in range(2000))
            automaton, _ = build(w)
            assert automaton.counters().nodes <= 2 * len(w)

    def test_counters_monotone(self):
        automaton = OnlineSuffixAutomaton()
        previous = automaton.counters()
        for c in "abaabbbaabab":
            automaton.add_letter(c)
            current = automaton.counters()
            assert current.nodes >= previous.nodes
            assert current.suffix_link_hops >= previous.suffix_link_hops
            assert current.child_probes >= previous.child_probes
            previous = current

    def test_unordered_probes_count_scan_length(self):
        # the k-th distinct symbol is missing at the root, which costs its
        # chain edge plus the k - 2 explicit symbols: 1 + 2 + 3 probes
        automaton = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
        for c in "abcd":
            automaton.add_letter(c)
        assert automaton.counters().child_probes == 6


class TestModeEquivalence:
    def test_identical_answers_and_shape(self):
        rng = random.Random(13)
        for _ in range(30):
            w = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 120)))
            a_ord, v_ord = build(w, ChildStorageMode.ORDERED)
            a_uno, v_uno = build(w, ChildStorageMode.UNORDERED)
            assert v_ord == v_uno
            assert states(a_ord) == states(a_uno)
            for s in states(a_ord):
                assert link(a_ord, s) == link(a_uno, s)
                assert length(a_ord, s) == length(a_uno, s)
                assert transitions(a_ord, s) == transitions(a_uno, s)
