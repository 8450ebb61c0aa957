"""Helpers shared by several test modules, so that no test module imports
another."""

import io
import sys
from itertools import product
from typing import NamedTuple

import palstream.automaton
import palstream.cli
import palstream.manacher


def all_strings(alphabet, max_len):
    for length in range(1, max_len + 1):
        for letters in product(alphabet, repeat=length):
            yield "".join(letters)


def fibonacci_word(n):
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def limit_symbols(monkeypatch, limit):
    """Let a text hold at most ``limit`` symbols.  ``manacher.py`` and
    ``automaton.py`` each import ``_MAX_SYMBOLS`` from ``_buffer.py`` and
    read their own global on every symbol, so the name is set in both."""
    for module in (palstream.manacher, palstream.automaton):
        monkeypatch.setattr(module, "_MAX_SYMBOLS", limit)


def random_tokens(n, rng):
    vocab = [f"t{k:03d}" for k in range(256)]
    return rng.choices(vocab, k=n)


class FailsOnCall:
    """A symbol that equals nothing: its ``__eq__`` returns False ``k - 1``
    times, then raises ArithmeticError.  ``calls`` counts the comparisons."""

    def __init__(self, k):
        self.k = k
        self.calls = 0

    def __eq__(self, other):
        self.calls += 1
        if self.calls == self.k:
            raise ArithmeticError(f"comparison {self.k} fails")
        return False

    __hash__ = object.__hash__


class CliResult(NamedTuple):
    """What one `palstream` command wrote and how it ended.  ``output_bytes``
    is stdout and stderr together, in the order their bytes were written."""

    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes

    @property
    def stdout(self):
        return self.stdout_bytes.decode()

    @property
    def stderr(self):
        return self.stderr_bytes.decode()

    @property
    def output(self):
        return self.output_bytes.decode()


class _Tee(io.BytesIO):
    """A byte stream that also appends each write to ``shared``."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, b):
        self.shared += b
        return super().write(b)


def invoke(args, input=b""):
    """Run `palstream ARGS` in this process, as its console script does, with
    ``input`` (bytes or a binary stream) on stdin.  A ``SystemExit`` becomes
    the result's ``exit_code``; any other exception propagates."""
    shared = bytearray()
    out, err = _Tee(shared), _Tee(shared)
    stdin = io.BytesIO(input) if isinstance(input, bytes) else input
    # kept in locals: a wrapper that is collected closes its byte stream
    streams = (io.TextIOWrapper(stdin, encoding="utf-8"),
               io.TextIOWrapper(out, encoding="utf-8", write_through=True),
               io.TextIOWrapper(err, encoding="utf-8", write_through=True))
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        palstream.cli.main(args)
        exit_code = 0
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        for stream in streams[1:]:
            stream.flush()
    return CliResult(exit_code, out.getvalue(), err.getvalue(), bytes(shared))
