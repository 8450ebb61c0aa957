"""Per-symbol palindrome bookkeeping over a stream.

Combines both suffix-palindrome parities with shortest-unique-suffix queries:
a step reveals a new palindrome exactly when the maximal palindromic suffix
is at least as long as the shortest suffix never seen before.  Every distinct
palindromic substring of the stream is reported exactly once, at the step
where it first becomes a suffix.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

from .automaton import ChildStorageMode, OnlineSuffixAutomaton, PerfCounters
from .manacher import OnlineManacher, _add_spans

__all__ = ["StepReport", "DetectorSummary", "PalindromeDetector"]

#: Builds a StepReport from a tuple of its fields, skipping the argument
#: handling of ``StepReport.__new__``.
_new_tuple = tuple.__new__

#: The most symbols :meth:`PalindromeDetector.feed` takes from its input for
#: one call into each structure; ``palstream run`` writes the records of at
#: most this many symbols at a time.
_BATCH = 256


class StepReport(NamedTuple):
    """Everything known about the stream right after one symbol.

    A named tuple: it unpacks in field order and compares equal to the plain
    tuple of its fields.
    """

    n: int  # symbols consumed so far
    max_pal_odd: int
    max_pal_even: int
    max_pal: int  # max of the two parities
    min_unique_suff: int
    new_palindrome: tuple[int, int] | None  # 1-based inclusive span, or None
    closure_len: int  # length of the palindromic closure of the prefix
    distinct_count: int  # distinct non-empty palindromes seen so far


class DetectorSummary(NamedTuple):
    """Snapshot of totals; taking one leaves the detector usable."""

    n: int
    distinct_count: int
    manacher_loop_odd: int
    manacher_loop_even: int
    tree: PerfCounters

    @property
    def manacher_loop_total(self) -> int:
        return self.manacher_loop_odd + self.manacher_loop_even

    @property
    def manacher_loop_bound(self) -> int:
        """4n: the most Manacher loop passes a run of n symbols may take."""
        return 4 * self.n

    def bound_problems(self) -> list[str]:
        """The linear bounds these totals break, one message each: at most 4n
        Manacher loop passes, and Blumer et al.'s exact bounds on the
        automaton, at most 2n - 1 states once n >= 2 (2 at n = 1) and at
        most 3n - 4 transitions once n >= 3."""
        n = self.n
        problems = []
        if self.manacher_loop_total > self.manacher_loop_bound:
            problems.append(f"manacher loop total {self.manacher_loop_total} "
                            f"> 4n = {self.manacher_loop_bound}")
        if n == 1 and self.tree.nodes > 2:
            problems.append(f"{self.tree.nodes} automaton states > 2 at n = 1")
        if n >= 2 and self.tree.nodes > 2 * n - 1:
            problems.append(f"{self.tree.nodes} automaton states > 2n - 1 = {2 * n - 1}")
        if n >= 3 and self.tree.transitions > 3 * n - 4:
            problems.append(f"{self.tree.transitions} automaton transitions "
                            f"> 3n - 4 = {3 * n - 4}")
        return problems


class PalindromeDetector:
    """Streams symbols through the palindrome trackers and the suffix automaton.

    Symbols may be any objects, hashable or not, that each equal themselves
    (so not ``float("nan")``); ordered child-storage mode additionally needs
    them totally ordered.  Symbols are not checked: outside this contract
    the answers are wrong, and differ between the modes.  The
    automaton owns the one symbol buffer and appends each symbol to it; both
    palindrome trackers read that buffer.  Independent detectors share no
    state; a single detector is single-writer.  A push that raises leaves
    the structures inconsistent, so every later push raises too.
    """

    def __init__(self, mode: ChildStorageMode | str = ChildStorageMode.ORDERED) -> None:
        self._tree = OnlineSuffixAutomaton(mode)
        text = self._tree._text
        self._odd = OnlineManacher._over(text, 0)
        self._even = OnlineManacher._over(text, 1)
        self._n = 0
        self._distinct = 0
        self._failure: BaseException | None = None

    @property
    def mode(self) -> ChildStorageMode:
        return self._tree.mode

    @property
    def n(self) -> int:
        return self._n

    @property
    def distinct_count(self) -> int:
        return self._distinct

    def push(self, c) -> StepReport:
        """Consume one symbol and report the state of the extended stream.

        Each substructure absorbs the symbol and returns its new answer.  The
        automaton goes first: it appends the symbol that the trackers read,
        so an exception (say, from comparing symbols) always comes after the
        stream has grown.  It propagates and the detector is marked failed:
        later pushes raise RuntimeError.
        """
        if self._failure is not None:
            raise RuntimeError("detector unusable: an earlier push failed with "
                               f"{self._failure!r}") from self._failure
        try:
            unique = self._tree.add_letter(c)
            odd = self._odd.add_letter(c)
            even = self._even.add_letter(c)
            self._n = n = self._n + 1
            longest = odd if odd >= even else even
            distinct = self._distinct
            span = None
            if longest >= unique:
                span = (n - longest + 1, n)
                self._distinct = distinct = distinct + 1
        except BaseException as exc:
            self._failure = exc
            raise
        return _new_tuple(StepReport, (n, odd, even, longest, unique, span,
                                       2 * n - longest, distinct))

    def feed(self, symbols: Iterable) -> Iterator[StepReport]:
        """The reports of ``iter(symbols)`` (taken now), in order, as
        :meth:`push` would give them.

        The symbols are taken ``_BATCH`` at a time; the automaton absorbs a
        batch in one call, and then both palindrome trackers in another.
        When a symbol fails, the items are the reports of the symbols before
        it, then its exception, then :class:`RuntimeError`, chained to that
        exception, for each later symbol; :attr:`n` then counts the reports
        given, while the totals of :meth:`finish` may include the
        automaton's work on the rest of the failing batch, which it absorbs
        before the trackers, and, when the symbol fails in the even
        tracker, the odd tracker's loop passes on it.  While a batch's
        reports are being taken, :attr:`n` and :attr:`distinct_count`
        already count the whole batch.  If the input itself raises, its
        exception follows the reports of the symbols taken before it.
        """
        # A generator that has raised is exhausted, so the next item comes
        # from the tail: push, which refuses each symbol _batches left in rest.
        rest: list = []
        return chain(chain.from_iterable(self._batches(iter(symbols), rest)),
                     map(self.push, chain.from_iterable(rest)))

    def _batches(self, symbols: Iterator, rest: list) -> Iterator[list[StepReport]]:
        """The reports of ``symbols``, one list a batch, while the detector
        is usable; the symbols after a failed one, or all of them once it
        is unusable, go to ``rest``."""
        while self._failure is None:
            batch, error = [], None
            try:
                batch.extend(islice(symbols, _BATCH))
            except BaseException as exc:
                error = exc
            if not batch and error is None:
                return
            reports, failure = self._absorb(batch)
            if failure is not None:
                self._failure = error = failure
                rest += (batch[len(reports) + 1:], symbols)
            yield reports
            if error is not None:
                raise error
        rest.append(symbols)

    def _absorb(self, batch: list) -> tuple[list[StepReport], BaseException | None]:
        """The automaton absorbs ``batch``, then both trackers absorb as much
        of it as the automaton did; returns the reports of the symbols that
        all three absorbed and the exception that stopped one of them, if
        any.  After a failure in the even tracker, the odd tracker has
        absorbed the failing symbol too, and its loop total counts it."""
        start = self._n + 2  # the text position of batch[0]
        unique: list[int] = []
        odd: list[int] = []
        even: list[int] = []
        failure = None
        try:
            self._tree._add_batch(batch, unique)
        except BaseException as exc:
            failure = exc
        try:
            _add_spans(self._odd, self._even, start, start + len(unique), odd, even)
        except BaseException as exc:
            failure = exc
        reports = []
        append = reports.append
        n, distinct = self._n, self._distinct
        for unique_len, odd_len, even_len in zip(unique, odd, even):
            n += 1
            longest = odd_len if odd_len >= even_len else even_len
            span = None
            if longest >= unique_len:
                span = (n - longest + 1, n)
                distinct += 1
            append(_new_tuple(StepReport, (n, odd_len, even_len, longest, unique_len, span,
                                           2 * n - longest, distinct)))
        self._n, self._distinct = n, distinct
        return reports, failure

    def finish(self) -> DetectorSummary:
        """Pure snapshot of the totals; the detector stays usable."""
        return DetectorSummary(
            n=self._n,
            distinct_count=self._distinct,
            manacher_loop_odd=self._odd.loop_iterations,
            manacher_loop_even=self._even.loop_iterations,
            tree=self._tree.counters(),
        )
