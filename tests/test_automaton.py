"""Tests for the online suffix automaton and its shortest-unique-suffix
queries.

The automaton replaced an Ukkonen suffix tree; the tests that still apply
kept their names.  The benchmark still calls this layer `ukkonen`."""

import random
import string
import sys
import tracemalloc
from collections import Counter, deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import palstream.automaton
import palstream.manacher
from palstream import ChildStorageMode, OnlineSuffixAutomaton
from palstream.oracle import naive_min_unique_suffix
from reference import _SuffixAutomaton
from support import FailsOnCall, all_strings, fibonacci_word, limit_symbols

REFERENCE_WORD = "abadaadcaa"
EXPECTED_MIN_UNIQUE = [1, 1, 2, 1, 2, 2, 3, 1, 2, 3]


def build(w, mode=ChildStorageMode.ORDERED):
    automaton = OnlineSuffixAutomaton(mode)
    values = []
    for c in w:
        automaton.add_letter(c)
        values.append(automaton.min_unique_suff())
    return automaton, values


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
    order, with a clone's None target read as its source's chain edge."""
    edges = a._out.get(s, []) if s >= 0 else a._clone_out[~s]
    m = len(edges) // 2
    return [(sym, a._clone_src[~s] + 1 if target is None else target)
            for sym, target in zip(edges[:m], edges[m:])]


def chain(a, s):
    """The chain edge of state s as a (symbol, target) pair, or None."""
    return (a._text[s + 2], s + 1) if 0 <= s < len(a._text) - 2 else None


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
        # by a non-solid b edge) into clone ~1 for "b" and state 2 for "ab";
        # the clone stores state 2's chain edge on b with the target None,
        # read as _clone_src[1] + 1 == 3
        automaton, _ = build("abb")
        assert list(automaton._link) == [-1, 0, ~1, ~1]
        assert list(automaton._clone_len) == [0, 1]
        assert list(automaton._clone_link) == [0, 0]
        assert automaton._out == {0: ["b", ~1]}
        assert automaton._clone_out == [None, ["b", None]]
        assert list(automaton._clone_src) == [-1, 2]
        # "ababb": the second b splits state 2 ("ab"), which stores the
        # transition on b to 5, so the clone copies that list and adds
        # state 2's chain edge on a, to 3, as None
        clone_edges = {ChildStorageMode.ORDERED: ["a", "b", None, 5],
                       ChildStorageMode.UNORDERED: ["b", "a", 5, None]}
        for mode, edges in clone_edges.items():
            automaton = OnlineSuffixAutomaton(mode)
            assert [automaton.add_letter(c) for c in "ababb"] == [1, 1, 2, 3, 2]
            assert automaton._out == {0: ["b", ~1], 2: ["b", 5]}
            assert automaton._clone_out == [None, edges]

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

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_transitions_count_every_edge(self, mode):
        rng = random.Random(15)
        for sigma in (1, 2, 3, 26):
            w = rng.choices("abcdefghijklmnopqrstuvwxyz"[:sigma], k=rng.randint(1, 400))
            automaton, _ = build(w, mode)
            edges = sum(len(transitions(automaton, s)) for s in states(automaton))
            assert automaton.counters().transitions == edges

    def test_unordered_probes_count_scan_length(self):
        # the k-th distinct symbol is missing at the root, which costs its
        # chain edge plus the k - 2 explicit symbols: 1 + 2 + 3 probes
        automaton = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
        for c in "abcd":
            automaton.add_letter(c)
        assert automaton.counters().child_probes == 6

    def test_probe_table(self):
        # the walks count an ordered search among m symbols from the table
        # below its end and by the formula past it, which ordered tokens256
        # reaches in TestPinnedCounters with its root's 255 symbols
        table = palstream.automaton._PROBES
        assert len(table) <= 255
        for m, probes in enumerate(table):
            assert probes == m.bit_length() + 1, m

    def test_clone_past_2n_minus_1_states_raises(self):
        # "abb" clones once, at n = 3, into its fifth state (2n - 1 = 5); a
        # padded clone slot makes that clone the sixth
        automaton, _ = build("ab")
        automaton._clone_len.append(0)
        with pytest.raises(RuntimeError, match=r"6 states > 2n - 1 = 5$"):
            automaton.add_letter("b")


def layout(a):
    return (a._text[2:], list(a._link), a._out, list(a._clone_len),
            list(a._clone_link), a._clone_out, list(a._clone_src), a.counters())


class TestBatch:
    """``_add_batch``, the detector's batch path: the same walk over a list
    of symbols in one call."""

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_batches_build_what_add_letter_builds(self, mode):
        rng = random.Random(21)
        for _ in range(30):
            w = rng.choices("abcd"[:rng.randint(1, 4)], k=rng.randint(1, 300))
            one, values = build(w, mode)
            batched = OnlineSuffixAutomaton(mode)
            answers = []
            for cut in range(0, len(w), 7):
                batched._add_batch(w[cut:cut + 7], answers)
            assert answers == values
            assert layout(batched) == layout(one)

    def test_symbol_limit_inside_a_batch(self, monkeypatch):
        limit_symbols(monkeypatch, 5)
        a = OnlineSuffixAutomaton()
        answers = []
        with pytest.raises(OverflowError, match="at most 5 symbols"):
            a._add_batch(list("abcdefg"), answers)
        assert answers == build("abcde")[1]
        assert layout(a) == layout(build("abcde")[0])
        with pytest.raises(OverflowError):  # full, not stopped
            a.add_letter("f")

    def test_failed_batch_stops_the_automaton(self):
        a = OnlineSuffixAutomaton()
        answers = []
        with pytest.raises(TypeError):  # 1 and "b" do not compare
            a._add_batch(["a", 1, "b", "a"], answers)
        assert answers == [1, 1]
        with pytest.raises(RuntimeError, match="TypeError"):
            a._add_batch(["a"], answers)


def transition_lists(a):
    return ({s: edges.copy() for s, edges in a._out.items()},
            [edges.copy() for edges in a._clone_out[1:]])


class TestUnorderedScan:
    """The unordered walks find a missing symbol at the stand-in they put in
    the first target slot, not through ``ValueError``; the clone step's
    redirect, past the symbols."""

    def test_walks_raise_no_exception(self):
        w = random.Random(17).choices("abcdefghijklmnopqrstuvwxyz", k=1000)
        one = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
        batched = OnlineSuffixAutomaton(ChildStorageMode.UNORDERED)
        raised = []

        def profile(frame, event, arg):
            if event == "c_exception":
                raised.append(arg)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for c in w:
                one.add_letter(c)
            for cut in range(0, len(w), 7):
                batched._add_batch(w[cut:cut + 7], [])
        finally:
            sys.setprofile(previous)
        assert raised == []
        assert len(one._clone_len) > 100  # so the redirect searched too

    @pytest.mark.parametrize("batch", [False, True], ids=["add_letter", "_add_batch"])
    def test_failed_comparison_restores_the_borrowed_slot(self, batch):
        # the root's chain edge on "a" is the first comparison, then the
        # scan of the root's list ["b", "c", "d", 2, 3, 4] fails at "c"
        automaton, _ = build("abcd", ChildStorageMode.UNORDERED)
        before = transition_lists(automaton)
        symbol = FailsOnCall(3)
        with pytest.raises(ArithmeticError):
            if batch:
                automaton._add_batch([symbol], [])
            else:
                automaton.add_letter(symbol)
        assert symbol.calls == 3
        assert transition_lists(automaton) == before
        with pytest.raises(RuntimeError, match="ArithmeticError"):
            automaton.add_letter("a")


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


def built(w, mode, batch):
    """The automaton of w, through add_letter or through _add_batch in cuts
    of 7."""
    automaton = OnlineSuffixAutomaton(mode)
    if batch:
        for cut in range(0, len(w), 7):
            automaton._add_batch(w[cut:cut + 7], [])
    else:
        for c in w:
            automaton.add_letter(c)
    return automaton


def assert_matches_reference(w, mode):
    """Build w through both paths and check each against perfbench's
    textbook automaton, whose clone redirect stops at the first state that
    does not lead to the split state: states matched by a breadth-first
    search from both roots have equal lengths, links and transitions.

    Plain asserts, so that CI can run it outside pytest on long words."""
    ref = _SuffixAutomaton()
    for c in w:
        ref.add(c)
    for batch in (False, True):
        a = built(w, mode, batch)
        match = {0: 0}
        queue = deque([0])
        while queue:
            s = queue.popleft()
            r = match[s]
            assert length(a, s) == ref.length[r], (batch, s, r)
            mine = transitions(a, s)
            assert mine.keys() == ref.next[r].keys(), (batch, s, r)
            for sym, t in mine.items():
                if t not in match:
                    match[t] = ref.next[r][sym]
                    queue.append(t)
                assert match[t] == ref.next[r][sym], (batch, s, sym)
        assert len(match) == len(set(match.values())) == len(states(a)) == len(ref.length)
        for s, r in match.items():
            assert match.get(link(a, s), -1) == ref.link[r], (batch, s)


def clone_kinds(a, c, add):
    """Call add(c) on automaton a and return the kinds of clone it made, read
    from the structure before and after, with no hook in the package.

    Before: the transitions on c of the states on the suffix path the walk
    takes, from the first state that has one.  That state is p, where the
    walk stops; a clone splits its target q, and the redirect moves to the
    clone the transitions of the states after p that led to q."""
    hits = []  # (state, list, slot, target before) of each transition on c
    s = link(a, len(text_of(a)))
    while s != -1:
        edges = a._out.get(s, []) if s >= 0 else a._clone_out[~s]
        m = len(edges) // 2
        if c in edges[:m]:
            slot = m + edges.index(c, 0, m)
            hits.append((s, edges, slot, edges[slot]))
        elif not hits and chain(a, s) is not None and chain(a, s)[0] == c:
            break  # the walk hits a chain edge, which is solid: no clone
        s = link(a, s)
    clones = len(a._clone_len)
    add(c)
    if len(a._clone_len) == clones:
        return set()
    clone = ~clones
    (p, p_edges, p_slot, q), *further = hits
    assert p_edges[p_slot] == clone
    # a clone is shorter than its source state, so the transition a None
    # target stands for is never solid: a walk hit on one clones
    kinds = {"walk hit on a None target"} if q is None else set()
    if q is None:
        q = a._clone_src[~p] + 1
    kinds.add("of a clone" if q < 0 else "of a prefix state with a list"
              if q in a._out else "of a prefix state without a list")
    redirected = [target for _, edges, slot, target in further if edges[slot] == clone]
    if len(redirected) >= 2:
        kinds.add("loop redirecting two or more states")
    if None in redirected:
        kinds.add("redirect over a None target")
    return kinds


class TestReferenceAutomaton:
    """The clone step's redirect stops on state lengths; the reference's
    stops by search.  A wrong stop would leave a transition into the wrong
    state, or move one too many.  A clone's ``None`` target, read through
    ``_clone_src``, must be read right by the walks and by the redirect."""

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_isomorphic_to_the_reference(self, mode):
        words = [random.Random(1).choices(alphabet, k=2000)
                 for alphabet in ("ab", "abc", string.ascii_lowercase)]
        for w in words:
            assert_matches_reference(w, mode)
        # each walk has its own copy of the clone step, so each must make
        # every kind; on "ab" alone, one build makes 530, 8, 83, 970 and 149
        # clones of the kinds gated here
        for add in (OnlineSuffixAutomaton.add_letter,
                    lambda a, c: a._add_batch([c], [])):
            kinds = Counter()
            for w in words:
                a = OnlineSuffixAutomaton(mode)
                for c in w:
                    kinds.update(clone_kinds(a, c, partial(add, a)))
            assert all(kinds[kind] > 0 for kind in (
                "of a clone", "of a prefix state with a list",
                "loop redirecting two or more states", "walk hit on a None target",
                "redirect over a None target")), (add, kinds)


class TestCorruptRedirect:
    """The clone step trusts the structure to say where its redirect ends.  A
    state it must redirect that does not lead to the split state raises
    (an explicit ``raise``, so ``python -O`` keeps it) and stops the
    automaton."""

    # "aaba" + "b" splits state 3 ("aab", "ab", "b"): state 1 ("a"), where
    # the walk stops, and then the root lead to it on "b"
    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("batch", [False, True], ids=["add_letter", "_add_batch"])
    @pytest.mark.parametrize("corruption", ["wrong_target", "missing_symbol"])
    def test_corrupt_slot_raises_and_stops(self, mode, batch, corruption):
        automaton, _ = build("aaba", mode)
        assert automaton._out[0] == ["b", 3]
        if corruption == "wrong_target":
            automaton._out[0][1] = 2
        else:
            del automaton._out[0]
        with pytest.raises(RuntimeError, match="^automaton corrupt: state 0 has "
                                               "no transition on 'b' to state 3$") as first:
            if batch:
                automaton._add_batch(["b"], [])
            else:
                automaton.add_letter("b")
        with pytest.raises(RuntimeError, match="automaton unusable") as later:
            automaton.add_letter("a")
        assert later.value.__cause__ is first.value

    # "aabbab" + "b" splits state 4 ("aabb", "abb", "bb"), which the walk
    # reaches from clone ~2 ("ab"); the redirect then reaches clone ~1 ("b"),
    # whose transition on "b" to 4 is the None it copied from state 3's
    # chain edge
    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("batch", [False, True], ids=["add_letter", "_add_batch"])
    def test_wrong_clone_source_raises_and_stops(self, mode, batch):
        automaton, _ = build("aabbab", mode)
        edges = automaton._clone_out[1]
        assert edges[len(edges) // 2 + edges.index("b")] is None
        assert automaton._clone_src[1] == 3
        automaton._clone_src[1] = 2  # None now reads as 3
        with pytest.raises(RuntimeError, match=f"^automaton corrupt: state {~1} has "
                                               "no transition on 'b' to state 4$") as first:
            if batch:
                automaton._add_batch(["b"], [])
            else:
                automaton.add_letter("b")
        with pytest.raises(RuntimeError, match="automaton unusable") as later:
            automaton.add_letter("a")
        assert later.value.__cause__ is first.value


class TestListCapacity:
    """A transition list that gains its second transition is built with
    exactly four slots; two inserts would grow it to six or eight."""

    # the word, then the lists with two transitions it leaves: "abc" and
    # "acb" the root's (c after b, and before it); "abbc" the root's and
    # clone 1's ("b", None) gaining c after it; "abba" clone 1's gaining a
    # before it
    WORDS = {"abc": ["root"], "acb": ["root"], "abbc": ["root", "clone"],
             "abba": ["clone"]}

    @pytest.mark.parametrize("batch", [False, True], ids=["add_letter", "_add_batch"])
    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("w", list(WORDS))
    def test_second_transition_leaves_four_slots(self, w, mode, batch):
        automaton = built(w, mode, batch)
        for name in self.WORDS[w]:
            edges = automaton._out[0] if name == "root" else automaton._clone_out[1]
            assert len(edges) == 4, name
            assert sys.getsizeof(edges) == sys.getsizeof([None] * 4), name


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

    Random a-z text clones at a third of its symbols, so it measures the
    transition lists, through both walks: 86.00-86.14 on 3.10.13 and
    89.56-89.57 on 3.11.7, 3.12.1 and 3.13.0, in both modes.  Lists that
    gain their second transition by two inserts, with six spare slots on
    3.11+ and four on 3.10, read 95.90-95.92 and 92.35-92.48; the limit,
    91.5, lies between, so either walk back on inserts fails on every
    version.
    """

    @staticmethod
    def held_in(source, word, mode, batch=False):
        """The blocks filed under the module ``source`` that an automaton
        still holds once it has taken ``word``."""
        tracemalloc.start()
        try:
            a = built(word, mode, batch)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, source.__file__)])
        return held.statistics("filename")

    @classmethod
    def bytes_per_symbol(cls, word, mode, batch=False):
        held = cls.held_in(palstream.automaton, word, mode, batch)
        return sum(stat.size for stat in held) / len(word)

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_unary_costs_at_most_14_bytes(self, mode):
        assert self.bytes_per_symbol("a" * 20_000, mode) <= 14.0

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_fibonacci_costs_no_more_than_unary(self, mode):
        unary = self.bytes_per_symbol("a" * 20_000, mode)
        assert self.bytes_per_symbol(fibonacci_word(20_000), mode) <= unary + 1.0

    @pytest.mark.parametrize("batch", [False, True], ids=["add_letter", "_add_batch"])
    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_random_text_costs_at_most_91_5_bytes(self, mode, batch):
        w = random.Random(1).choices(string.ascii_lowercase, k=20_000)
        assert self.bytes_per_symbol(w, mode, batch) <= 91.5

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_no_block_is_filed_under_the_manacher_module(self, mode):
        # tracemalloc files a block under the module that allocated it, and
        # perfbench sums its per-layer memory figures by module
        w = random.Random(1).choices(string.ascii_lowercase, k=1_000)
        assert self.held_in(palstream.manacher, w, mode) == []
