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
    # After a symbol fails in the even step, the odd tracker's loop total
    # counts that symbol's first test.
    Mutant("odd loop total counted from the even answers", "manacher.py",
           "odd._loop_iters += oiters + len(odd_lengths)",
           "odd._loop_iters += oiters + len(even_lengths)",
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
