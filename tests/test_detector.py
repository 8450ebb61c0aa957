"""Tests for the combined per-symbol palindrome detector."""

import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palstream import (ChildStorageMode, DetectorSummary, PalindromeDetector,
                       PerfCounters, StepReport)
from palstream import oracle
from palstream.selftest import oracle_failures

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


def all_strings(alphabet, max_len):
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


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

    def test_structures_share_one_symbol_buffer(self):
        det = PalindromeDetector()
        for c in "abcab":
            det.push(c)
        assert det._odd._text is det._text
        assert det._even._text is det._text
        assert det._tree._text is det._text
        assert det._text[2:] == list("abcab")

    def test_first_report(self):
        _, reports = run("a")
        r = reports[0]
        assert r.n == 1
        assert r.max_pal == 1
        assert r.new_palindrome == (1, 1)
        assert r.closure_len == 1


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
        _, reports = run("aba")
        assert reports[2] == (3, 3, 0, 3, 2, (1, 3), 3, 3)
        n, *_, distinct = reports[2]
        assert (n, distinct) == (3, 3)
        assert reports[2] == StepReport(n=3, max_pal_odd=3, max_pal_even=0, max_pal=3,
                                        min_unique_suff=2, new_palindrome=(1, 3),
                                        closure_len=3, distinct_count=3)


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
            tree=PerfCounters(nodes=2 * n + 1, suffix_link_hops=0, child_probes=0))
        problems = summary.bound_problems()
        assert len(problems) == 2
        assert "4n = 40" in problems[0]
        assert "2n = 20" in problems[1]

    def test_real_runs_hold_both_bounds(self):
        for w in ("", REFERENCE_WORD, "a" * 300, "ab" * 150):
            det, _ = run(w)
            assert det.finish().bound_problems() == [], w


class TestTracingHooks:
    """The benchmark's traced run wraps the detector's structures by
    attribute name; these are the names and methods it relies on."""

    def test_traced_detector_reports_and_spans(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from tracing import Tracer, trace_detector

        _, untraced = run(REFERENCE_WORD)
        tracer = Tracer()
        push = trace_detector(PalindromeDetector(), tracer)
        assert [push(c) for c in REFERENCE_WORD] == untraced
        counts = {name: row[0] for name, row in tracer.totals().items()}
        for name in ("detector.push", "manacher.odd.add_letter",
                     "manacher.even.add_letter", "ukkonen.add_letter"):
            assert counts[name] == len(REFERENCE_WORD), name
