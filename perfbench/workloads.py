"""Benchmark inputs, generated here from a seed so that no change to the
package under test can shift a workload.

Every workload yields one symbol sequence of N symbols.  The library passes
consume it directly; the CLI passes read it from a file in the form
`palstream run` expects (raw bytes, or whitespace-separated tokens).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "N"]

#: Symbols in every pass, library or CLI, timed, traced or memory.
N = 30_000


@dataclass(frozen=True)
class Workload:
    """One input family; perfbench/README.md says why each is here."""

    name: str
    #: Child-storage mode of the library detector.
    mode: str
    #: Extra arguments for `palstream run` besides `--format jsonl FILE`.
    cli_args: tuple[str, ...]

    def symbols(self, seed: int):
        """The input, as the library consumes it."""
        return _GENERATORS[self.name](random.Random(seed), N)

    def cli_bytes(self, symbols) -> bytes:
        """File content from which `palstream run` reads exactly ``symbols``."""
        if "--tokens" not in self.cli_args:
            return bytes(symbols)
        lines = (" ".join(symbols[i:i + 16]) for i in range(0, len(symbols), 16))
        return ("\n".join(lines) + "\n").encode()


def _random26(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choices(range(ord("a"), ord("z") + 1), k=n))


def _uniform_a(rng: random.Random, n: int) -> bytes:
    # The densest input there is; the seed has nothing to vary.
    return b"a" * n


def _tokens256(rng: random.Random, n: int) -> list[str]:
    vocab: dict[str, None] = {}
    while len(vocab) < 256:
        vocab["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8)))] = None
    return rng.choices(list(vocab), k=n)


_GENERATORS = {
    "random26": _random26,
    "uniform_a": _uniform_a,
    "tokens256": _tokens256,
}

WORKLOADS = {w.name: w for w in (
    Workload("random26", "ordered", ()),
    Workload("uniform_a", "ordered", ()),
    # The library runs the paper's O(sigma) regime; `run --tokens` always
    # builds an ordered detector.
    Workload("tokens256", "unordered", ("--tokens",)),
)}
