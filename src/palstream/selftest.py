"""Built-in verification: a worked reference example with known-good output,
plus a bounded exhaustive comparison against the brute-force oracles."""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Sequence

from . import oracle
from .automaton import ChildStorageMode
from .detector import PalindromeDetector, StepReport

__all__ = ["REFERENCE_WORD", "golden_example_failures", "oracle_failures",
           "exhaustive_sweep", "run"]

# Hand-checked reference trace for one word; every row below was derived by
# stepping the definitions by hand and is frozen here verbatim.
REFERENCE_WORD = "abadaadcaa"
REFERENCE_MAX_PAL_ODD = (1, 1, 3, 1, 3, 1, 1, 1, 1, 1)
REFERENCE_MAX_PAL_EVEN = (0, 0, 0, 0, 0, 2, 4, 0, 0, 2)
REFERENCE_MAX_PAL = (1, 1, 3, 1, 3, 2, 4, 1, 1, 2)
REFERENCE_MIN_UNIQUE = (1, 1, 2, 1, 2, 2, 3, 1, 2, 3)
REFERENCE_SPANS = ((1, 1), (2, 2), (1, 3), (4, 4), (3, 5),
                   (5, 6), (4, 7), (8, 8), None, None)


def _check(w: Sequence, rows: Sequence[tuple], modes: Iterable) -> list[str]:
    """Push ``w`` through one detector per mode, compare each report with its
    expected row of ``StepReport`` fields and check the end-of-run counter
    bounds.  Returns one message per differing field or broken bound, and
    one for a push that raises, which ends that mode's run."""
    problems = []
    for mode in modes:
        det = PalindromeDetector(mode)
        name = det.mode.value
        for k, (c, want) in enumerate(zip(w, rows), 1):
            try:
                got = det.push(c)
            except Exception as exc:
                problems.append(f"{w!r} step {k} ({name}): push raised {exc!r}")
                break
            if got != want:
                problems.extend(
                    f"{w!r} step {k} ({name}): {field} = {g!r}, expected {e!r}"
                    for field, g, e in zip(StepReport._fields, got, want) if g != e)
        problems.extend(f"{w!r} ({name}): {p}"
                        for p in det.finish().bound_problems())
    return problems


def golden_example_failures(
    mode: ChildStorageMode | str = ChildStorageMode.ORDERED,
) -> list[str]:
    """Run the reference word and diff every row against the frozen trace,
    then check the end-of-run counter bounds.

    The closure length and the distinct count follow from the frozen rows:
    ``2k - max_pal`` after ``k`` symbols, and the number of spans so far.
    """
    rows = []
    count = 0
    for k, (odd, even, longest, unique, span) in enumerate(zip(
            REFERENCE_MAX_PAL_ODD, REFERENCE_MAX_PAL_EVEN, REFERENCE_MAX_PAL,
            REFERENCE_MIN_UNIQUE, REFERENCE_SPANS), 1):
        if span is not None:
            count += 1
        rows.append((k, odd, even, longest, unique, span, 2 * k - longest, count))
    return _check(REFERENCE_WORD, rows, (mode,))


def oracle_failures(w: Sequence) -> list[str]:
    """Compare every per-step field of one detector per storage mode against
    the brute-force oracles on one input, plus the end-of-run counter bounds.

    Returns human-readable mismatch descriptions; empty means ``w`` passed.
    """
    problems = []
    first_end: dict[int, tuple[int, int]] = {}
    for span in oracle.naive_distinct_subpalindromes(w).values():
        if span[1] in first_end:
            problems.append(f"{w!r}: two palindromes first ending at {span[1]}")
        first_end[span[1]] = span

    rows = []
    count = 0
    for k in range(1, len(w) + 1):
        prefix = w[:k]
        span = first_end.get(k)
        if span is not None:
            count += 1
        odd = oracle.naive_max_suffix_palindrome(prefix, 0)
        even = oracle.naive_max_suffix_palindrome(prefix, 1)
        rows.append((k, odd, even, max(odd, even),
                     oracle.naive_min_unique_suffix(prefix), span,
                     len(oracle.naive_palindromic_closure(prefix)), count))
    return problems + _check(w, rows, ChildStorageMode)


def exhaustive_sweep(alphabet: str = "ab",
                     max_len: int = 12) -> tuple[str, list[str]] | None:
    """Check every string over ``alphabet`` up to ``max_len`` symbols.

    Stops at the first failing string, returning it with its mismatch list;
    None means the whole sweep passed.
    """
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            w = "".join(letters)
            problems = oracle_failures(w)
            if problems:
                return w, problems
    return None


def run(echo: Callable[[str], None] = print) -> bool:
    """Full self-check: golden example (both storage modes), then the
    exhaustive two-letter sweep.  Prints one line per stage."""
    ok = True
    for mode in (ChildStorageMode.ORDERED, ChildStorageMode.UNORDERED):
        problems = golden_example_failures(mode)
        if problems:
            ok = False
            echo(f"FAIL reference example ({mode.value}): {problems[0]}")
        else:
            echo(f"ok   reference example ({mode.value})")
    failure = exhaustive_sweep("ab", 12)
    if failure is not None:
        ok = False
        w, problems = failure
        echo(f"FAIL oracle sweep: counterexample {w!r}")
        for p in problems[:5]:
            echo(f"     {p}")
    else:
        echo("ok   oracle sweep (every 2-letter string up to length 12)")
    return ok
