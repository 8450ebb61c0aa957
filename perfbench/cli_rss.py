"""Run a module as `python -m` does, then write this process's peak resident set.

Usage: python cli_rss.py RSS_FILE MODULE ARGS...

RSS_FILE receives the peak in KiB when the process exits.  `ru_maxrss` from
wait4 would not do: Linux carries the high-water mark of the pre-exec address
space across exec, so it also counts the memory of the benchmark process that
launched this one.  VmHWM in /proc/self/status covers this address space only.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def _write_peak(path: str) -> None:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(peak)


def main() -> None:
    rss_file, module = sys.argv[1], sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    atexit.register(_write_peak, rss_file)
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
