"""Instrumented end-to-end runs over generated inputs.

Wall times and structural counters from these runs are what the benchmark
CLI and the directional complexity checks consume: loop totals against the
linear bound, child probes against alphabet size, wall time against input
length.
"""

from __future__ import annotations

import gc
import random
import time
from typing import NamedTuple

from .automaton import ChildStorageMode
from .detector import PalindromeDetector

__all__ = ["GENERATORS", "BenchMeasurement", "make_input", "run_config"]

GENERATORS = ("random", "abx", "uniform_a", "paper_example")


class BenchMeasurement(NamedTuple):
    """Aggregated result for one (generator, size, mode) configuration.

    The fields are the keys of the benchmark's JSON record, in its order.
    """

    gen: str
    sigma: int
    n: int
    mode: str
    reps: int
    seed: int
    wall_best: float
    wall_mean: float
    symbols_per_sec: float
    manacher_loop_iters: int
    manacher_loop_bound: int
    nodes: int
    transitions: int
    child_probes: int
    suffix_link_hops: int
    distinct_count: int


def make_input(generator: str, sigma: int, n: int, seed: int):
    """Deterministic input for one run; identical arguments give identical
    symbol sequences.  Token generators emit ints so any alphabet size works."""
    if generator == "uniform_a":
        return "a" * n
    if generator == "paper_example":
        from .selftest import REFERENCE_WORD
        return REFERENCE_WORD
    rng = random.Random(seed)
    if generator == "random":
        return [rng.randrange(sigma) for _ in range(n)]
    if generator == "abx":
        from .oracle import gen_abx
        xs = [rng.randrange(2, sigma) for _ in range((n + 2) // 3)]
        return gen_abx(0, 1, xs)[:n]
    raise ValueError(f"unknown generator {generator!r}")


def run_config(generator: str, *, sigma: int = 2,
               sizes: tuple[int, ...] = (1000,),
               mode: ChildStorageMode | str = ChildStorageMode.ORDERED,
               repetitions: int = 1, seed: int = 0) -> list[BenchMeasurement]:
    """Run ``generator`` once per size at ``mode``, aggregating repetitions.

    Each repetition derives its own input seed and times one full pass of
    ``push`` with GC paused.  The totals of every repetition are checked on
    the spot against the bounds of :meth:`DetectorSummary.bound_problems`
    (4n loop passes, 2n - 1 states, 3n - 4 transitions); a violation is an
    engine bug, not a measurement artifact, and raises.  paper_example
    always runs its one word, whatever the sizes.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; "
                         f"choose from {', '.join(GENERATORS)}")
    if generator == "paper_example":
        from .selftest import REFERENCE_WORD
        sizes = (len(REFERENCE_WORD),)
    if not sizes:
        raise ValueError("at least one size is required")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    if any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if generator == "random" and sigma < 1:
        raise ValueError("random generator needs sigma >= 1")
    if generator == "abx" and sigma < 3:
        raise ValueError("abx generator needs sigma >= 3")
    mode = ChildStorageMode(mode)
    results = []
    for n in sizes:
        times = []
        for rep in range(repetitions):
            symbols = make_input(generator, sigma, n, seed * 1_000_003 + rep)
            detector = PalindromeDetector(mode)
            push = detector.push
            gc_was_enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                for c in symbols:
                    push(c)
                times.append(time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
            summary = detector.finish()
            problems = summary.bound_problems()
            if problems:
                raise RuntimeError(f"bound violated: {problems[0]} "
                                   f"(gen={generator}, n={n}, rep={rep})")
            if rep == 0:
                first_summary = summary  # repetitions >= 1 guarantees a rep 0
        best = min(times)
        counters = first_summary.tree
        results.append(BenchMeasurement(
            gen=generator,
            sigma=sigma,
            n=n,
            mode=mode.value,
            reps=repetitions,
            seed=seed,
            wall_best=best,
            wall_mean=sum(times) / len(times),
            symbols_per_sec=n / best if best > 0 else float("inf"),
            manacher_loop_iters=first_summary.manacher_loop_total,
            manacher_loop_bound=first_summary.manacher_loop_bound,
            nodes=counters.nodes,
            transitions=counters.transitions,
            child_probes=counters.child_probes,
            suffix_link_hops=counters.suffix_link_hops,
            distinct_count=first_summary.distinct_count,
        ))
    return results
