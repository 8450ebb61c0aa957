"""Helpers shared by several test modules, so that no test module imports
another."""

from itertools import product

import palstream.automaton
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
