"""Kept mutants: each breaks the package on purpose, and the tests named with
it must then fail.

Usage: python tests/mutants.py [NAME ...]   (all mutants when none is named)

For each mutant, the runner copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory (pytest's ``pythonpath``
setting would otherwise import the checkout's ``src``), replaces a snippet
that occurs exactly once in one file under ``src/palstream/``, and runs the
mutant's tests there.  It exits 1, naming the mutant, when the snippet is
missing or occurs more than once, when the replacement is the snippet
itself, or when the tests pass on the mutant.  The file has no ``test_``
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/palstream/
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository


_FEED_WIDTHS = "tests/test_detector.py::TestRadiusWidths::test_feed_widens_on_unary"
_ONE_BYTE_RADII = ("tests/test_manacher.py::TestMemory",
                   "tests/test_detector.py::TestRadiusWidths::test_random_text_keeps_one_byte_radii")
_REFERENCE_AUTOMATON = "tests/test_automaton.py::TestReferenceAutomaton"
_WRONG_CLONE_SOURCE = (
    "tests/test_automaton.py::TestCorruptRedirect::test_wrong_clone_source_raises_and_stops")
_PINNED_THROUGH_PUSH = "tests/test_detector.py::TestPinnedCounters::test_exact_totals_through_push"
_FOUR_SLOTS = ("tests/test_automaton.py::TestListCapacity",
               "tests/test_automaton.py::TestMemory::test_random_text_costs_at_most_91_5_bytes")


def _in_each_walk(name: str, line: str, replacement: str,
                  tests: tuple[str, ...]) -> tuple[Mutant, Mutant]:
    """The mutant of ``line`` in add_letter's clone step, named ``name``, and
    in _add_batch's, named ``name`` + " in _add_batch".  ``line`` and
    ``replacement`` are as in add_letter, less the 16 spaces that indent the
    clone step there."""
    indent = "\n                "
    return (Mutant(name, "automaton.py", indent + line, indent + replacement, tests),
            Mutant(f"{name} in _add_batch", "automaton.py", indent + "    " + line,
                   indent + "    " + replacement, tests))


MUTANTS = (
    # The radius widths of manacher._add_spans (the batch path) and of a new
    # tracker.
    Mutant("odd radii widen in one step", "manacher.py",
           'odd._rad = orad = array("H" if o_r <= 0xFFFF else "i", orad)',
           'odd._rad = orad = array("i", orad)',
           (_FEED_WIDTHS,)),
    Mutant("odd radii never widen on the batch path", "manacher.py",
           "except OverflowError:\n                    odd._rad",
           "except ZeroDivisionError:\n                    odd._rad",
           (_FEED_WIDTHS,)),
    Mutant("widened odd radii kept only in a local", "manacher.py",
           "odd._rad = orad = array(", "orad = array(",
           (_FEED_WIDTHS,)),
    Mutant("widened even radii kept only in a local", "manacher.py",
           "even._rad = erad = array(", "erad = array(",
           (_FEED_WIDTHS,)),
    Mutant("radii start at four bytes", "manacher.py",
           'self._rad = array("B", (0, 0))', 'self._rad = array("i", (0, 0))',
           _ONE_BYTE_RADII),
    Mutant("radii start at two bytes", "manacher.py",
           'self._rad = array("B", (0, 0))', 'self._rad = array("H", (0, 0))',
           _ONE_BYTE_RADII),
    # A tracker's loop total counts one first test per symbol after the first
    # from its center, which a symbol that fails has not moved, not from its
    # text, which holds that symbol (and, on the batch path, the ones after).
    Mutant("loop total from the text length", "manacher.py",
           "max(0, self._i + self._r - 2)", "max(0, len(self._text) - 3)",
           ("tests/test_manacher.py::TestSpan",)),
    # The reports before a failing symbol are given, by feed and by run.
    Mutant("a failing batch's reports dropped", "detector.py",
           "            yield reports\n",
           "            if failure is None:\n                yield reports\n",
           ("tests/test_detector.py::TestFeedFailures::test_failure_at_every_comparison",)),
    Mutant("run writes nothing in its finally", "cli.py",
           "                finally:\n                    write(lines(reports))\n",
           "                finally:\n                    pass\n"
           "                write(lines(reports))\n",
           ("tests/test_cli.py::TestRun::test_full_text_keeps_its_records_and_is_one_error_line",)),
    # The reader of a finished command gets EOF before interpreter teardown,
    # and the reader of `run` before its detector is freed.
    Mutant("main leaves stdout open", "cli.py",
           "            _discard_stdout()\n        except OSError:",
           "            pass\n        except OSError:",
           ("tests/test_cli.py::TestRun::test_output_ends_before_teardown",)),
    Mutant("no null device fails the command", "cli.py",
           "except OSError:  # no null device", "except ZeroDivisionError:  # no null device",
           ("tests/test_cli.py::TestRun::test_no_null_device_keeps_the_success",)),
    Mutant("main frees the detector before EOF", "cli.py",
           "result = function(**options)", "function(**options)",
           ("tests/test_cli.py::TestRun::test_output_ends_before_the_detector_is_freed",)),
    # run pauses the cyclic collector for the stream and gives the caller's
    # setting back.
    Mutant("run streams with the collector on", "cli.py",
           "    gc.disable()\n", "    pass\n",
           ("tests/test_cli.py::TestCollector::test_run_streams_with_the_collector_paused",)),
    Mutant("run leaves the collector off", "cli.py",
           "        if gc_was_enabled:\n            gc.enable()\n", "",
           ("tests/test_cli.py::TestCollector::test_run_gives_the_collector_back",)),
    # The clone step in each walk: where its redirect stops, the chain edge it
    # copies, and a clone's None target read through _clone_src.  The step is
    # the same code in both, _add_batch's indented one level deeper, so a
    # snippet starts with its line's indentation.
    *_in_each_walk("the redirect stops one length early",
                   "while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound:",
                   "while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound + 1:",
                   (_REFERENCE_AUTOMATON,)),
    *_in_each_walk("the redirect stops one length late",
                   "while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound:",
                   "while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound - 1:",
                   (_REFERENCE_AUTOMATON,)),
    *_in_each_walk("the chain symbol appended unsorted",
                   "            i = bisect_left(edges, chain, 0, m)", "            i = m",
                   (_REFERENCE_AUTOMATON,)),
    *_in_each_walk("a clone of a clone given source 0",
                   "clone_src.append(q if q >= 0 else clone_src[~q])",
                   "clone_src.append(q if q >= 0 else 0)",
                   (_REFERENCE_AUTOMATON,)),
    *_in_each_walk("the redirect trusts None",
                   "    if (clone_src[~p] + 1 if t is None else t) != q:",
                   "    if (q if t is None else t) != q:",
                   (_WRONG_CLONE_SOURCE,)),
    Mutant("add_letter drops the + 1 of a None target", "automaton.py",
           "q = self._clone_src[~p] + 1", "q = self._clone_src[~p]",
           (_REFERENCE_AUTOMATON, _PINNED_THROUGH_PUSH)),
    Mutant("_add_batch drops the + 1 of a None target", "automaton.py",
           "q = clone_src[~p] + 1", "q = clone_src[~p]",
           (_REFERENCE_AUTOMATON, "tests/test_detector.py::TestPinnedCounters")),
    # The walks' table of probe counts, and _add_batch's position kept in a
    # local.
    Mutant("a probe-table entry off by one", "automaton.py",
           "tuple(m.bit_length() + 1 for m in range(64))",
           "tuple(m.bit_length() + 1 + (m == 40) for m in range(64))",
           ("tests/test_automaton.py::TestBoundsAndCounters::test_probe_table",)),
    Mutant("the batch position off by one", "automaton.py",
           "cur = len(text) - 2", "cur = len(text) - 1",
           ("tests/test_automaton.py::TestBatch",)),
    # A list that gains its second transition gets four slots, in each walk.
    Mutant("add_letter's four-slot literal disabled", "automaton.py",
           "if m == 1:\n                    # a literal",
           "if False:\n                    # a literal",
           _FOUR_SLOTS),
    Mutant("_add_batch's four-slot literal disabled", "automaton.py",
           "if m == 1:  # four slots exactly", "if False:  # four slots exactly",
           _FOUR_SLOTS),
)


def apply(mutant: Mutant, root: Path) -> str | None:
    """Make ``mutant`` in the package under ``root``; returns what is wrong
    with it instead, if anything."""
    path = root / "src" / "palstream" / mutant.file
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return f"its snippet occurs {found} times in src/palstream/{mutant.file}"
    if mutant.replacement == mutant.snippet:
        return "its replacement changes nothing"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def check(mutant: Mutant) -> str | None:
    """Run ``mutant``'s tests on a mutated copy of the repository; returns
    why the mutant is not killed, or None when its tests fail."""
    with tempfile.TemporaryDirectory(prefix="palstream-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".perfbench_out", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        problem = apply(mutant, copy)
        if problem is not None:
            return problem
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=copy, capture_output=True, text=True)
    if result.returncode == 0:
        return "its tests pass"
    if result.returncode != 1:  # not "some tests failed": an error or no tests
        return f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}"
    return None


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        problem = check(mutant)
        took = time.perf_counter() - start
        if problem is None:
            print(f"killed    {mutant.name} ({took:.1f} s)", flush=True)
        else:
            survived += 1
            print(f"NOT KILLED {mutant.name}: {problem}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
