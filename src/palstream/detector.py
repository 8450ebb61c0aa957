"""Per-symbol palindrome bookkeeping over a stream.

Combines both suffix-palindrome parities with shortest-unique-suffix queries:
a step reveals a new palindrome exactly when the maximal palindromic suffix
is at least as long as the shortest suffix never seen before.  Every distinct
palindromic substring of the stream is reported exactly once, at the step
where it first becomes a suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .automaton import ChildStorageMode, OnlineSuffixAutomaton, PerfCounters
from .manacher import OnlineManacher

__all__ = ["StepReport", "DetectorSummary", "PalindromeDetector"]

#: Builds a StepReport from a tuple of its fields, skipping the argument
#: handling of ``StepReport.__new__``.
_new_tuple = tuple.__new__


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


@dataclass(frozen=True, slots=True)
class DetectorSummary:
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
        Manacher loop passes, and at most 2n automaton states once n > 0."""
        n = self.n
        problems = []
        if self.manacher_loop_total > self.manacher_loop_bound:
            problems.append(f"manacher loop total {self.manacher_loop_total} "
                            f"> 4n = {self.manacher_loop_bound}")
        if n and self.tree.nodes > 2 * n:
            problems.append(f"{self.tree.nodes} automaton states > 2n = {2 * n}")
        return problems


class PalindromeDetector:
    """Streams symbols through the palindrome trackers and the suffix automaton.

    Symbols may be any hashable objects that each equal themselves (so not
    ``float("nan")``); ordered child-storage mode additionally needs them
    totally ordered.  Symbols are not checked: outside this contract the
    answers are wrong, and differ between the modes.  The
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
        """An iterator pushing ``iter(symbols)`` (taken now) in order; after
        a failed push, every later item raises RuntimeError."""
        return map(self.push, symbols)

    def finish(self) -> DetectorSummary:
        """Pure snapshot of the totals; the detector stays usable."""
        return DetectorSummary(
            n=self._n,
            distinct_count=self._distinct,
            manacher_loop_odd=self._odd.loop_iterations,
            manacher_loop_even=self._even.loop_iterations,
            tree=self._tree.counters(),
        )
