"""Tests for the combined per-symbol palindrome detector."""

import gc
import io
import pickle
import random
import string
import sys
from itertools import count, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palstream import (ChildStorageMode, DetectorSummary, OnlineManacher,
                       OnlineSuffixAutomaton, PalindromeDetector, PerfCounters,
                       StepReport)
from palstream import cli
from palstream import detector as detector_module
from palstream import oracle
from palstream.bench import BenchMeasurement, run_config
from palstream.selftest import oracle_failures
from reference import expected_reports
from support import FailsOnCall, all_strings, fibonacci_word, limit_symbols, random_tokens
from tracing import Tracer, trace_detector

REFERENCE_WORD = "abadaadcaa"
EXPECTED_MAX_PAL = [1, 1, 3, 1, 3, 2, 4, 1, 1, 2]
EXPECTED_MIN_UNIQUE = [1, 1, 2, 1, 2, 2, 3, 1, 2, 3]
EXPECTED_SPANS = [(1, 1), (2, 2), (1, 3), (4, 4), (3, 5),
                  (5, 6), (4, 7), (8, 8), None, None]
# closure lengths computed with the naive closure oracle on every prefix
EXPECTED_CLOSURES = [1, 3, 3, 7, 7, 10, 10, 15, 17, 18]
EXPECTED_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8, 8, 8]


def run(w, mode=ChildStorageMode.ORDERED):
    det = PalindromeDetector(mode)
    return det, list(det.feed(w))


class TestReferenceWord:
    def test_all_rows(self):
        _, reports = run(REFERENCE_WORD)
        assert [r.max_pal for r in reports] == EXPECTED_MAX_PAL
        assert [r.min_unique_suff for r in reports] == EXPECTED_MIN_UNIQUE
        assert [r.new_palindrome for r in reports] == EXPECTED_SPANS
        assert [r.closure_len for r in reports] == EXPECTED_CLOSURES
        assert [r.distinct_count for r in reports] == EXPECTED_COUNTS

    def test_closure_row_matches_naive_oracle(self):
        _, reports = run(REFERENCE_WORD)
        for k, r in enumerate(reports, 1):
            closure = oracle.naive_palindromic_closure(REFERENCE_WORD[:k])
            assert r.closure_len == len(closure)

    def test_summary(self):
        det, _ = run(REFERENCE_WORD)
        summary = det.finish()
        assert summary.n == 10
        assert summary.distinct_count == 8
        assert summary.manacher_loop_total <= 40
        assert 11 <= summary.tree.nodes <= 20  # a state per prefix, at most 2n


class TestSmallCases:
    def test_uniform_counts_every_step(self):
        _, reports = run("aaaa")
        assert [r.distinct_count for r in reports] == [1, 2, 3, 4]
        assert [r.new_palindrome for r in reports] == \
            [(1, 1), (1, 2), (1, 3), (1, 4)]

    def test_empty_stream(self):
        det = PalindromeDetector()
        summary = det.finish()
        assert summary.n == 0
        assert summary.distinct_count == 0

    def test_detector_usable_after_finish(self):
        det = PalindromeDetector()
        det.push("a")
        det.finish()
        report = det.push("b")
        assert report.n == 2

    def test_failed_push_poisons_detector(self):
        # ordered mode needs comparable symbols: once the root holds 1 as an
        # explicit symbol, bisecting for "b" raises after the trackers took it
        det = PalindromeDetector()
        det.push("a")
        det.push(1)
        with pytest.raises(TypeError):
            det.push("b")
        with pytest.raises(RuntimeError, match="TypeError"):
            det.push("a")
        summary = det.finish()
        assert summary.n == 2
        assert summary.distinct_count == 2

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_failure_at_any_comparison_poisons_detector(self, mode):
        # the symbol's k-th comparison raises, whichever structure makes it:
        # after a^6 the automaton compares it 6 times, the odd tracker 3
        # times and the even tracker 4 times
        total = FailsOnCall(0)
        run("a" * 6, mode)[0].push(total)
        assert total.calls == 6 + 3 + 4
        for k in range(1, total.calls + 1):
            det, _ = run("a" * 6, mode)
            c = FailsOnCall(k)
            with pytest.raises(ArithmeticError):
                det.push(c)
            assert c.calls == k
            with pytest.raises(RuntimeError, match="ArithmeticError"):
                det.push("a")

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_feed_raises_for_every_symbol_after_a_failed_push(self, mode):
        # one feed iterator: the failing symbol's error, then RuntimeError
        # for each later symbol instead of a quiet end that drops them
        c = FailsOnCall(1)
        reports = PalindromeDetector(mode).feed(["a", "a", c, "a", "a"])
        assert [next(reports).n, next(reports).n] == [1, 2]
        with pytest.raises(ArithmeticError) as failed:
            next(reports)
        for _ in range(2):
            with pytest.raises(RuntimeError) as later:
                next(reports)
            assert later.value.__cause__ is failed.value
        assert next(reports, None) is None

    def test_structures_share_one_symbol_buffer(self):
        det = PalindromeDetector()
        for c in "abcab":
            det.push(c)
        assert det._odd._text is det._tree._text
        assert det._even._text is det._tree._text
        assert det._tree._text[2:] == list("abcab")
        assert not hasattr(det, "_text")  # no second name for the buffer

    def test_first_report(self):
        _, reports = run("a")
        r = reports[0]
        assert r.n == 1
        assert r.max_pal == 1
        assert r.new_palindrome == (1, 1)
        assert r.closure_len == 1


def feed_items(detector, symbols):
    """Every item of ``detector.feed(symbols)``: a report, or the exception
    that taking it raised."""
    items = []
    reports = detector.feed(symbols)
    while True:
        try:
            items.append(next(reports))
        except StopIteration:
            return items
        except Exception as exc:
            items.append(exc)


class TestFeedFailures:
    """``feed`` takes its input a batch at a time, one call into each
    structure per batch; wherever a symbol fails in a batch, the items are
    those of ``push``: the reports before it, its exception, then a chained
    RuntimeError for each later symbol."""

    #: Where the failing symbol sits, with batches of 8 symbols: the first,
    #: a middle and the last slot of the second batch, and the first slot of
    #: the third.  The first symbol of all makes no comparison.
    POSITIONS = {"first": 8, "middle": 11, "last": 15, "next_first": 16}

    @staticmethod
    def word(position, failing):
        # before the failing symbol a unary word, so that it is compared only
        # with == (ordered mode bisects no list holding it); after it enough
        # symbols to fill the rest of its batch and the next
        return ["a"] * position + [failing] + ["a"] * 12

    def check(self, mode, position, every=True):
        """Feed the word with its symbol at ``position`` failing at each of
        its comparisons (or at the first, a middle and the last); check the
        items."""
        never = FailsOnCall(0)
        reference = PalindromeDetector(mode)
        want = [reference.push(c) for c in self.word(position, never)]
        total = never.calls
        assert total > 0
        for k in range(1, total + 1) if every else (1, total // 2, total):
            word = self.word(position, FailsOnCall(k))
            det = PalindromeDetector(mode)
            items = feed_items(det, word)
            failed = next(i for i, item in enumerate(items)
                          if isinstance(item, BaseException))
            assert failed >= position
            assert items[:failed] == want[:failed], k
            assert isinstance(items[failed], ArithmeticError), (k, items[failed])
            for later in items[failed + 1:]:
                assert isinstance(later, RuntimeError), (k, later)
                assert later.__cause__ is items[failed]
            assert len(items) == len(word)
            assert (det.n, det.distinct_count) == (failed, want[failed - 1].distinct_count)

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("where", list(POSITIONS))
    def test_failure_at_every_comparison(self, monkeypatch, mode, where):
        monkeypatch.setattr(detector_module, "_BATCH", 8)
        self.check(mode, self.POSITIONS[where])

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_failure_at_the_edges_of_full_batches(self, mode):
        # the last slot of the first batch of 256 and the first of the
        # second, failing at the first, a middle and the last comparison
        for position in (255, 256):
            self.check(mode, position, every=False)

    def test_symbol_limit_inside_a_batch(self, monkeypatch):
        limit_symbols(monkeypatch, 5)
        det = PalindromeDetector()
        items = feed_items(det, "abcdefg")
        assert items[:5] == run("abcde")[1]
        assert isinstance(items[5], OverflowError)
        assert [type(item) for item in items[6:]] == [RuntimeError]
        assert items[6].__cause__ is items[5]
        assert det.n == 5

    def test_input_error_follows_the_reports_before_it(self):
        def symbols():
            yield from "aba"
            raise ValueError("input failed")

        det = PalindromeDetector()
        items = feed_items(det, symbols())
        assert items[:3] == run("aba")[1]
        assert [type(item) for item in items[3:]] == [ValueError]
        assert det.push("c").n == 4  # the input's error is not the detector's

    def test_feed_after_a_failure_raises_for_every_symbol(self):
        det = PalindromeDetector()
        det.push("a")
        with pytest.raises(ArithmeticError):
            det.push(FailsOnCall(1))
        items = feed_items(det, "abc")
        assert [type(item) for item in items] == [RuntimeError] * 3
        assert det.n == 1

    def test_takes_at_most_one_batch_before_its_first_report(self):
        taken = count()
        symbols = ("a" for _ in taken)  # endless
        first = next(PalindromeDetector().feed(symbols))
        assert first.n == 1
        assert next(taken) == detector_module._BATCH == 256


class TestStepReport:
    def test_fields_in_order(self):
        assert StepReport._fields == (
            "n", "max_pal_odd", "max_pal_even", "max_pal", "min_unique_suff",
            "new_palindrome", "closure_len", "distinct_count")

    def test_fields_are_read_only(self):
        report = PalindromeDetector().push("a")
        for field in StepReport._fields:
            with pytest.raises(AttributeError):
                setattr(report, field, 0)

    def test_is_a_plain_tuple_of_its_fields(self):
        det, reports = run("aba")
        assert reports[2] == (3, 3, 0, 3, 2, (1, 3), 3, 3)
        n, *_, distinct = reports[2]
        assert (n, distinct) == (3, 3)
        assert reports[2] == StepReport(n=3, max_pal_odd=3, max_pal_even=0, max_pal=3,
                                        min_unique_suff=2, new_palindrome=(1, 3),
                                        closure_len=3, distinct_count=3)
        # the package's other records are named tuples in the same way
        summary = det.finish()
        n, distinct, odd, even, tree = summary
        assert (n, distinct, odd, even) == (3, 3, 2, 2)
        assert tree == (4, 1, 2, 4)
        [measurement] = run_config("paper_example")
        for record in (reports[2], summary, tree, measurement):
            fields = tuple(getattr(record, name) for name in record._fields)
            assert tuple(record) == fields
            assert record == fields


_TREE = (4, 1, 2, 4)
# each record class: the first line of its docstring, its fields in order,
# and the values of one instance
RECORDS = {
    "StepReport": (
        StepReport, "Everything known about the stream right after one symbol.",
        ("n", "max_pal_odd", "max_pal_even", "max_pal", "min_unique_suff",
         "new_palindrome", "closure_len", "distinct_count"),
        (3, 3, 0, 3, 2, (1, 3), 3, 3)),
    "DetectorSummary": (
        DetectorSummary, "Snapshot of totals; taking one leaves the detector usable.",
        ("n", "distinct_count", "manacher_loop_odd", "manacher_loop_even", "tree"),
        (3, 3, 2, 2, PerfCounters(*_TREE))),
    "PerfCounters": (
        PerfCounters, "Monotone structural totals, used to check the linear-size bounds.",
        ("nodes", "suffix_link_hops", "child_probes", "transitions"),
        _TREE),
    "BenchMeasurement": (
        BenchMeasurement,
        "Aggregated result for one (generator, size, mode) configuration.",
        ("gen", "sigma", "n", "mode", "reps", "seed", "wall_best", "wall_mean",
         "symbols_per_sec", "manacher_loop_iters", "manacher_loop_bound", "nodes",
         "transitions", "child_probes", "suffix_link_hops", "distinct_count"),
        ("random", 26, 100, "ordered", 1, 0, 0.5, 0.75, 200.0, 150, 400, 130, 190,
         900, 80, 40)),
}


@pytest.mark.parametrize("cls, doc, fields, values", RECORDS.values(), ids=list(RECORDS))
class TestRecordContract:
    """The package's four record classes are named tuples with a fixed
    contract, whatever builds them."""

    def test_docstring_and_fields_in_order(self, cls, doc, fields, values):
        assert cls.__doc__.partition("\n")[0] == doc
        assert cls._fields == fields

    def test_equals_the_plain_tuple(self, cls, doc, fields, values):
        record = cls(**dict(zip(fields, values)))
        assert record == cls(*values) == values
        assert tuple(record) == values
        assert type(cls._make(values)) is cls

    def test_asdict_and_replace(self, cls, doc, fields, values):
        record = cls(*values)
        assert record._asdict() == dict(zip(fields, values))
        assert list(record._asdict()) == list(fields)
        replaced = record._replace(**{fields[-1]: 7})
        assert type(replaced) is cls
        assert replaced == values[:-1] + (7,)

    def test_repr_and_no_instance_dict(self, cls, doc, fields, values):
        record = cls(*values)
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(record) == f"{cls.__name__}({shown})"
        assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self, cls, doc, fields, values):
        record = cls(*values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(record, protocol))
            assert type(loaded) is cls
            assert loaded == record


def test_a_built_summary_has_its_properties_and_bounds():
    summary = DetectorSummary(*RECORDS["DetectorSummary"][3])
    assert summary.manacher_loop_total == 4
    assert summary.manacher_loop_bound == 12
    assert summary.bound_problems() == []


class TestOracleEquivalence:
    def test_exhaustive_short(self):
        for w in all_strings("ab", 9):
            assert oracle_failures(w) == [], w

    @settings(deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=50))
    def test_random_strings(self, w):
        assert oracle_failures(w) == []

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_integer_symbols(self, symbols):
        assert oracle_failures(symbols) == []

    def test_detected_set_equals_naive_set(self):
        rng = random.Random(17)
        for _ in range(100):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 60)))
            _, reports = run(w)
            detected = {}
            for r in reports:
                if r.new_palindrome is not None:
                    start, end = r.new_palindrome
                    value = w[start - 1:end]
                    assert value not in detected, (w, value)  # exactly once
                    detected[value] = r.new_palindrome
            assert detected == oracle.naive_distinct_subpalindromes(w), w

    def test_reported_span_is_leftmost_occurrence_ending_at_step(self):
        rng = random.Random(19)
        for _ in range(100):
            w = "".join(rng.choice("aab") for _ in range(rng.randint(1, 50)))
            _, reports = run(w)
            for r in reports:
                if r.new_palindrome is None:
                    continue
                start, end = r.new_palindrome
                assert end == r.n
                value = w[start - 1:end]
                assert w.find(value) == start - 1, (w, value)


class TestClosureProperties:
    def test_closure_construction(self):
        rng = random.Random(23)
        for _ in range(200):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 40)))
            _, reports = run(w)
            for k, r in enumerate(reports, 1):
                prefix = w[:k]
                closure = prefix + prefix[:k - r.max_pal][::-1]
                assert len(closure) == r.closure_len
                assert oracle.is_palindrome(closure)
                assert closure.startswith(prefix)


class TestCountingBound:
    def test_at_most_one_new_per_step(self):
        rng = random.Random(29)
        for _ in range(50):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 80)))
            _, reports = run(w)
            last = 0
            for r in reports:
                assert r.distinct_count in (last, last + 1)
                assert r.distinct_count <= r.n
                last = r.distinct_count

    def test_uniform_attains_bound(self):
        _, reports = run("a" * 500)
        assert reports[-1].distinct_count == 500


class TestAdversarialBlocks:
    def test_block_strings_only_single_letters(self):
        rng = random.Random(31)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(30):
            sigma = rng.randint(3, 10)
            xs = [rng.choice(letters[2:sigma]) for _ in range(rng.randint(1, 40))]
            w = oracle.gen_abx("a", "b", xs)
            det, reports = run(w)
            for r in reports:
                if r.new_palindrome is not None:
                    start, end = r.new_palindrome
                    assert end - start == 0, (w, r)
            assert det.distinct_count == len(set(w))


class TestModesAndDeterminism:
    def test_reports_do_not_depend_on_mode(self):
        rng = random.Random(37)
        for _ in range(25):
            w = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 100)))
            _, ordered = run(w, ChildStorageMode.ORDERED)
            _, unordered = run(w, ChildStorageMode.UNORDERED)
            assert ordered == unordered

    def test_two_detectors_agree(self):
        w = "abacabadabacaba"
        _, first = run(w)
        _, second = run(w)
        assert first == second


class TestBoundProblems:
    def test_broken_bounds_are_named(self):
        n = 10
        summary = DetectorSummary(
            n=n, distinct_count=0, manacher_loop_odd=4 * n + 1, manacher_loop_even=0,
            tree=PerfCounters(nodes=2 * n, suffix_link_hops=0, child_probes=0,
                              transitions=3 * n - 3))
        problems = summary.bound_problems()
        assert len(problems) == 3
        assert "4n = 40" in problems[0]
        assert "2n - 1 = 19" in problems[1]
        assert "3n - 4 = 26" in problems[2]

    def test_real_runs_hold_both_bounds(self):
        for w in ("", REFERENCE_WORD, "a" * 300, "ab" * 150):
            det, _ = run(w)
            assert det.finish().bound_problems() == [], w

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_extremal_words_meet_blumers_bounds_exactly(self, mode):
        # Blumer et al.: a b^(n-1) has the most states, a b^(n-2) c the most
        # transitions; both paths into the automaton reach them
        for n in (3, 4, 10, 1000):
            most_states = "a" + "b" * (n - 1)
            most_transitions = "a" + "b" * (n - 2) + "c"
            for w, field, bound in ((most_states, "nodes", 2 * n - 1),
                                    (most_transitions, "transitions", 3 * n - 4)):
                pushed = PalindromeDetector(mode)
                for c in w:
                    pushed.push(c)
                fed, _ = run(w, mode)
                for det in (pushed, fed):
                    summary = det.finish()
                    assert getattr(summary.tree, field) == bound, (w, field)
                    assert summary.bound_problems() == [], w

    def test_a_planted_extra_transition_is_reported(self):
        n = 50
        det, _ = run("a" + "b" * (n - 2) + "c")
        assert det.finish().bound_problems() == []
        det._tree._out[n] = ["d", 0]  # the last state gets a transition
        assert det.finish().bound_problems() == [
            f"{3 * n - 3} automaton transitions > 3n - 4 = {3 * n - 4}"]


PINNED_WORDS = {
    "reference": lambda: REFERENCE_WORD,
    "uniform_a": lambda: "a" * 2000,
    "ab_repeated": lambda: "ab" * 1000,
    "random_sigma26": lambda: "".join(
        random.Random(17).choices("abcdefghijklmnopqrstuvwxyz", k=5000)),
    "tokens256": lambda: random_tokens(5000, random.Random(19)),
}
# exact finish() totals: manacher_loop_odd, manacher_loop_even, nodes,
# suffix_link_hops, child_probes; only child_probes depends on the mode.
# The words with clones (nodes > n + 1) make no lookup for the first
# transition a clone takes over: the automaton's walk has just found it.
PINNED_TOTALS = {
    ("reference", "ordered"): (11, 11, 13, 9, 29),
    ("reference", "unordered"): (11, 11, 13, 9, 21),
    ("uniform_a", "ordered"): (2998, 2998, 2001, 0, 1999),
    ("uniform_a", "unordered"): (2998, 2998, 2001, 0, 1999),
    ("ab_repeated", "ordered"): (2998, 1999, 2001, 1, 1999),
    ("ab_repeated", "unordered"): (2998, 1999, 2001, 1, 1999),
    ("random_sigma26", "ordered"): (5191, 5214, 6249, 6244, 46115),
    ("random_sigma26", "unordered"): (5191, 5214, 6249, 6244, 81317),
    ("tokens256", "ordered"): (5021, 5016, 5428, 5425, 69912),
    ("tokens256", "unordered"): (5021, 5016, 5428, 5425, 652832),
}


class TestPinnedCounters:
    """The structural totals are part of the output: a change to either
    Manacher loop or to the automaton's walk must leave them exactly as
    they are, not merely within their bounds."""

    @staticmethod
    def totals(det):
        s = det.finish()
        return (s.manacher_loop_odd, s.manacher_loop_even, s.tree.nodes,
                s.tree.suffix_link_hops, s.tree.child_probes)

    @pytest.mark.parametrize("word, mode", list(PINNED_TOTALS))
    def test_exact_totals(self, word, mode):
        det, _ = run(PINNED_WORDS[word](), mode)
        assert self.totals(det) == PINNED_TOTALS[word, mode]

    # push takes the automaton's add_letter walk, feed its _add_batch walk;
    # ordered tokens256 searches the root's list of 255 symbols on both,
    # past the walks' table of probe counts
    @pytest.mark.parametrize("word, mode", list(PINNED_TOTALS))
    def test_exact_totals_through_push(self, word, mode):
        det = PalindromeDetector(mode)
        for c in PINNED_WORDS[word]():
            det.push(c)
        assert self.totals(det) == PINNED_TOTALS[word, mode]


class TestCapacity:
    """Every int the automaton stores takes 4 bytes, and a Manacher radius
    at most 4 (:class:`TestRadiusWidths`).  They fit because a text holds at
    most ``_MAX_SYMBOLS`` symbols; one more is refused before any structure
    changes."""

    FULL = "symbol limit reached: at most 5 symbols"

    def test_arrays_take_four_bytes_and_never_truncate(self):
        det, _ = run(REFERENCE_WORD)
        tree = det._tree
        for ints in (tree._link, tree._clone_len, tree._clone_link, tree._clone_src):
            stored = list(ints)
            assert ints.itemsize == 4
            for value in (2**31, -2**31 - 1):
                with pytest.raises(OverflowError):
                    ints.append(value)
            assert list(ints) == stored

    @pytest.mark.parametrize("mode", list(ChildStorageMode), ids=lambda m: m.value)
    def test_automaton_refuses_a_symbol_past_the_limit(self, monkeypatch, mode):
        limit_symbols(monkeypatch, 5)
        a = OnlineSuffixAutomaton(mode)
        for c in "ababb":  # one clone
            a.add_letter(c)

        def state():
            return (list(a._text), list(a._link), a._out, list(a._clone_len),
                    list(a._clone_link), a._clone_out, list(a._clone_src),
                    a.counters(), a.min_unique_suff())
        before = repr(state())
        for c in "ab":
            with pytest.raises(OverflowError, match=self.FULL):
                a.add_letter(c)
            assert repr(state()) == before

    @pytest.mark.parametrize("delta", [0, 1])
    def test_tracker_refuses_a_symbol_past_the_limit(self, monkeypatch, delta):
        limit_symbols(monkeypatch, 5)
        m = OnlineManacher(delta)
        for c in "ababb":
            m.add_letter(c)

        def state():
            return (list(m._text[2:]), list(m._rad), m._i, m._r,
                    m.loop_iterations, m.max_pal())
        before = state()
        for c in "ab":
            with pytest.raises(OverflowError, match=self.FULL):
                m.add_letter(c)
            assert state() == before

    def test_detector_raises_on_every_push_past_the_limit(self, monkeypatch):
        limit_symbols(monkeypatch, 5)
        det, reports = run("abcde")
        assert len(reports) == 5
        with pytest.raises(OverflowError, match=self.FULL):
            det.push("f")
        for c in "fg":
            with pytest.raises(RuntimeError, match="detector unusable") as info:
                det.push(c)
            assert isinstance(info.value.__cause__, OverflowError)
        assert det.n == 5


def unary_report(n):
    """The report after the n-th symbol of a^n: every prefix is itself a
    new palindrome, and its one unique suffix."""
    return (n, n - 1 + n % 2, n - n % 2, n, n, (1, n), n, n)


class TestRadiusWidths:
    """Each tracker stores its radii in an array('B') until a radius passes
    255, then in an 'H' until one passes 65,535, then in an 'i'.  On a^n the
    odd tracker leaves a center of radius r behind at symbol 2r + 2 and the
    even one at 2r + 1, so the radii widen at symbols 513 (even) and 514
    (odd), then 131,073 and 131,074."""

    N = 131_080
    # the typecode of the odd and of the even radii from each symbol of a^n on
    UNARY_WIDTHS = ({1: "B", 514: "H", 131_074: "i"}, {1: "B", 513: "H", 131_073: "i"})

    @classmethod
    def unary_widths(cls, n):
        """The typecodes of the odd and even radii after a^n."""
        return tuple(codes[max(k for k in codes if k <= n)] for codes in cls.UNARY_WIDTHS)

    @staticmethod
    def widths(det):
        return det._odd._rad.typecode, det._even._rad.typecode

    @pytest.mark.parametrize("delta", [0, 1])
    def test_standalone_tracker_widens_on_unary(self, delta):
        m = OnlineManacher(delta)
        for n in range(1, self.N + 1):
            assert m.add_letter("a") == unary_report(n)[1 + delta], n
            assert m._rad.typecode == self.unary_widths(n)[delta], n

    def test_push_widens_on_unary(self):
        det = PalindromeDetector()
        for n in range(1, self.N + 1):
            assert det.push("a") == unary_report(n), n
            assert self.widths(det) == self.unary_widths(n), n

    @pytest.mark.parametrize("cuts", [(), (512, 513, 514, 131_072, 131_073, 131_074),
                                      (512, 514, 131_072, 131_074)],
                             ids=["whole", "cut_at_each_change", "both_in_one_batch"])
    def test_feed_widens_on_unary(self, cuts):
        # uncut, the batches of 256 put symbols 513 and 131,073 first in a
        # batch and 514 and 131,074 second; cut at each change, each of them
        # is a batch; cut around both, one batch of two symbols widens the
        # even radii and then the odd ones, and the widths are checked
        # right before and right after it
        det = PalindromeDetector()
        for start, stop in pairwise((0, *cuts, self.N)):
            for n, report in enumerate(det.feed("a" * (stop - start)), start + 1):
                assert report == unary_report(n), n
            assert det.n == stop
            assert self.widths(det) == self.unary_widths(stop), stop

    def test_one_wide_radius_after_narrow_ones_widens_to_four_bytes(self):
        # w z reverse(w): the center at z leaves radius |w| behind, past
        # 'H', while every radius before it fits 'B'
        w = random.Random(3).choices("abcdefghijklmnopqrstuvwxy", k=65_600)
        word = [*w, "z", *reversed(w), "a"]
        det = PalindromeDetector()
        odd = OnlineManacher(0)
        for c, report, want in zip(word, det.feed(word), expected_reports(word),
                                   strict=True):
            assert report == want, want[0]
            assert odd.add_letter(c) == want[1], want[0]
            if want[0] == 2 * len(w) + 1:  # the palindrome w z reverse(w)
                assert odd._rad.typecode == "B"
        assert self.widths(det) == ("i", "B") and odd._rad.typecode == "i"

    def test_random_text_keeps_one_byte_radii(self):
        det = PalindromeDetector()
        for _ in det.feed(random.Random(1).choices("abcdefghijklmnopqrstuvwxyz",
                                                   k=100_000)):
            pass
        assert det.n == 100_000
        assert self.widths(det) == ("B", "B")


class TestTracingHooks:
    """The benchmark's traced run wraps the detector's structures by
    attribute name; these are the names and methods it relies on."""

    def test_traced_detector_reports_and_spans(self):
        _, untraced = run(REFERENCE_WORD)
        tracer = Tracer()
        push = trace_detector(PalindromeDetector(), tracer)
        assert [push(c) for c in REFERENCE_WORD] == untraced
        counts = {name: row[0] for name, row in tracer.totals().items()}
        for name in ("detector.push", "manacher.odd.add_letter",
                     "manacher.even.add_letter", "ukkonen.add_letter"):
            assert counts[name] == len(REFERENCE_WORD), name


def unreachable_after(work):
    """The objects that the cyclic garbage collector finds unreachable once
    ``work()`` has run, with the collector paused, and returned, dropping
    what it made."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


_rng = random.Random(29)
CYCLE_WORDS = {
    "random_letters": "".join(_rng.choices(string.ascii_lowercase, k=10_000)),
    "random_three_letter_tokens": ["".join(_rng.choices(string.ascii_lowercase, k=3))
                                   for _ in range(10_000)],
    "a5000_b": "a" * 5000 + "b",
    "fibonacci": fibonacci_word(10_000),
}


class TestNoReferenceCycles:
    """The engine makes no reference cycles: reference counting alone frees
    a stream's objects, which is what lets `palstream run` pause the cyclic
    collector.  A failed push is the exception: the detector holds the
    exception, whose traceback holds a frame that holds the detector.  The
    collector, which `run` restores when the stream ends, frees that."""

    @pytest.mark.parametrize("word", list(CYCLE_WORDS))
    @pytest.mark.parametrize("path", ["push", "feed"])
    def test_a_stream_makes_no_cycles(self, path, word):
        symbols = CYCLE_WORDS[word]

        def work():
            for mode in ChildStorageMode:
                detector = PalindromeDetector(mode)
                if path == "push":
                    reports = [detector.push(c) for c in symbols]
                else:
                    reports = list(detector.feed(symbols))
                assert reports[-1].n == len(symbols)
                assert not detector.finish().bound_problems()

        assert unreachable_after(work) == 0

    @pytest.mark.parametrize("fmt, tokens", [("table", False), ("jsonl", False),
                                             ("jsonl", True)],
                             ids=["table", "jsonl", "tokens"])
    def test_run_makes_no_cycles(self, monkeypatch, tmp_path, fmt, tokens):
        # run_command, not main: the argument parser is a web of cycles
        path = tmp_path / "input.txt"
        path.write_text(" ".join(CYCLE_WORDS["random_three_letter_tokens"]) if tokens
                        else CYCLE_WORDS["random_letters"])
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)

        def work():
            assert cli.run_command(str(path), fmt, tokens).n == 10_000

        assert unreachable_after(work) == 0
        assert out.getvalue().count("\n") == 10_000 + (fmt == "table")

    def test_a_failed_push_makes_a_cycle(self):
        def work():
            detector = PalindromeDetector(ChildStorageMode.UNORDERED)
            detector.push("a")
            try:
                detector.push(FailsOnCall(1))
            except ArithmeticError:
                pass

        assert unreachable_after(work) > 0
