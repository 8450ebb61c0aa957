"""`palstream run` in this process, with spans around each layer it calls.

Usage: python traced_cli.py SPANS_FILE RUN_ARGS...

`palstream` must be importable (the benchmark sets PYTHONPATH to the
checkout's src).  The records go to stdout exactly as from `palstream run`;
the spans and the stdout write counts go to SPANS_FILE when the run ends.

Spans: `cli.run` around the whole command; under it `cli.read` around each
step of the symbol iterator that `run` feeds to the detector (reading,
decoding, token splitting), `detector.push` with its structures' spans,
and `cli.write` / `cli.flush` around the calls on stdout.  What `cli.run`
spends outside its children is record formatting and loop overhead.
"""

from __future__ import annotations

import functools
import io
import os
import sys

from tracing import Tracer, trace_detector


class _CountingRaw(io.RawIOBase):
    """File descriptor 1, counting the write calls that reach the OS."""

    def __init__(self) -> None:
        self.writes = 0
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        written = os.write(1, b)
        self.writes += 1
        self.bytes += written
        return written


class _TracedOut:
    def __init__(self, target, tracer: Tracer) -> None:
        self._target = target
        self.write = tracer.wrap("cli.write", target.write)
        self.flush = tracer.wrap("cli.flush", target.flush)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _traced_detector_class(real_class, tracer: Tracer):
    class TracedDetector:
        def __init__(self, *args) -> None:
            self._detector = real_class(*args)
            self.push = trace_detector(self._detector, tracer)

        def feed(self, symbols):
            read = tracer.wrap("cli.read", iter(symbols).__next__)
            push = self.push
            while True:
                try:
                    c = read()
                except StopIteration:
                    return
                yield push(c)

        def __getattr__(self, name):
            return getattr(self._detector, name)

    return TracedDetector


def main() -> int:
    spans_file, run_args = sys.argv[1], sys.argv[2:]
    from palstream import cli

    tracer = Tracer()
    raw = _CountingRaw()
    stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    sys.stdout = _TracedOut(stdout, tracer)
    cli.PalindromeDetector = _traced_detector_class(cli.PalindromeDetector, tracer)
    run = tracer.wrap("cli.run", functools.partial(cli.main, standalone_mode=False))
    try:
        run(["run", *run_args])
    finally:
        stdout.flush()
        sys.stdout = sys.__stdout__
        tracer.save(spans_file, {"os_writes": raw.writes, "bytes_out": raw.bytes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
