"""Acceptance suite: one test per release criterion, each printing a PASS
line when it holds.  Run with ``pytest -v -s tests/test_acceptance.py`` to
see the lines as they appear.

The heavier criteria use a streamlined per-step oracle (direct enumeration
of palindromic suffixes plus first-occurrence search); it shares no logic
with the engine under test.
"""

import math
import random
import statistics
import time
from itertools import product

from palstream import ChildStorageMode, PalindromeDetector
from palstream import oracle
from palstream.bench import run_config
from palstream.selftest import exhaustive_sweep, oracle_failures

LETTERS = "abcdefghijklmnopqrstuvwxyz"

REFERENCE_WORD = "abadaadcaa"
EXPECTED_ODD = [1, 1, 3, 1, 3, 1, 1, 1, 1, 1]
EXPECTED_EVEN = [0, 0, 0, 0, 0, 2, 4, 0, 0, 2]
EXPECTED_MAX_PAL = [1, 1, 3, 1, 3, 2, 4, 1, 1, 2]
EXPECTED_MIN_UNIQUE = [1, 1, 2, 1, 2, 2, 3, 1, 2, 3]
EXPECTED_SPANS = [(1, 1), (2, 2), (1, 3), (4, 4), (3, 5),
                  (5, 6), (4, 7), (8, 8), None, None]


def expected_steps(w):
    """Per-step oracle fields for every prefix of w, by direct enumeration.

    For each step: scan all suffixes for palindromicity (collecting them in
    a seen-set so newness is a plain membership test) and find the shortest
    suffix whose earliest occurrence is the suffix itself.  Returns tuples
    (max_odd, max_even, max_pal, min_unique, span_or_None, closure, count).
    """
    seen = set()
    out = []
    count = 0
    find = w.find
    for k in range(1, len(w) + 1):
        last = w[k - 1]
        max_odd = 0
        max_even = 0
        pal_suffixes = []
        for ln in range(1, k + 1):
            if w[k - ln] != last:
                continue
            suf = w[k - ln:k]
            if suf == suf[::-1]:
                pal_suffixes.append(suf)
                if ln & 1:
                    max_odd = ln
                else:
                    max_even = ln
        longest = max_odd if max_odd >= max_even else max_even
        top = w[k - longest:k]
        is_new = top not in seen
        seen.update(pal_suffixes)
        if is_new:
            count += 1
        min_unique = None
        for ln in range(1, k + 1):
            if find(w[k - ln:k], 0, k) == k - ln:
                min_unique = ln
                break
        span = (k - longest + 1, k) if is_new else None
        out.append((max_odd, max_even, longest, min_unique, span,
                    2 * k - longest, count))
    return out


def check_stream(w, mode, expected=None):
    """Run the detector over w and diff every field against the oracle; also
    enforce the counter bounds at the end.  Returns the first problem or None."""
    if expected is None:
        expected = expected_steps(w)
    det = PalindromeDetector(mode)
    for k, c in enumerate(w, 1):
        r = det.push(c)
        want = expected[k - 1]
        got = (r.max_pal_odd, r.max_pal_even, r.max_pal, r.min_unique_suff,
               r.new_palindrome, r.closure_len, r.distinct_count)
        if got != want:
            return f"{w!r} step {k}: {got} != oracle {want}"
        if r.distinct_count > k:
            return f"{w!r} step {k}: distinct_count above prefix length"
    summary = det.finish()
    n = len(w)
    if summary.manacher_loop_total > 4 * n:
        return f"{w!r}: loop total {summary.manacher_loop_total} > {4 * n}"
    if n >= 2 and summary.tree.nodes > 2 * n - 1:
        return f"{w!r}: {summary.tree.nodes} states > {2 * n - 1}"
    if n >= 3 and summary.tree.transitions > 3 * n - 4:
        return f"{w!r}: {summary.tree.transitions} transitions > {3 * n - 4}"
    return None


def test_c1_reference_trace():
    """Criterion 1: the worked reference word reproduces every row exactly,
    in under a second."""
    started = time.perf_counter()
    det = PalindromeDetector()
    reports = list(det.feed(REFERENCE_WORD))
    assert [r.max_pal_odd for r in reports] == EXPECTED_ODD
    assert [r.max_pal_even for r in reports] == EXPECTED_EVEN
    assert [r.max_pal for r in reports] == EXPECTED_MAX_PAL
    assert [r.min_unique_suff for r in reports] == EXPECTED_MIN_UNIQUE
    assert [r.new_palindrome for r in reports] == EXPECTED_SPANS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS 1: reference trace exact ({elapsed * 1000:.1f} ms)")


def test_c2_exhaustive_equivalence():
    """Criterion 2: every string up to length 12 over two letters and up to
    length 8 over three letters matches the naive oracles field by field."""
    failure = exhaustive_sweep("ab", 12)
    assert failure is None, failure
    failure = exhaustive_sweep("abc", 8)
    assert failure is None, failure
    checked = sum(2 ** k for k in range(1, 13)) + sum(3 ** k for k in range(1, 9))
    print(f"\nACCEPTANCE PASS 2: exhaustive equivalence on {checked} strings")


def test_c3_randomized_equivalence():
    """Criterion 3: 10^4 random strings (lengths to 300, alphabets of size
    1, 2, 3 and 26) match the oracles field by field."""
    total = 0
    uniform_expected = expected_steps("a" * 300)
    for sigma in (1, 2, 3, 26):
        rng = random.Random(20260809 + sigma)
        alphabet = LETTERS[:sigma]
        for index in range(2500):
            length = rng.randint(1, 300)
            w = "".join(rng.choice(alphabet) for _ in range(length))
            mode = (ChildStorageMode.ORDERED if index % 2 == 0
                    else ChildStorageMode.UNORDERED)
            expected = uniform_expected[:length] if sigma == 1 else None
            problem = check_stream(w, mode, expected)
            assert problem is None, problem
            total += 1
    print(f"\nACCEPTANCE PASS 3: randomized equivalence on {total} strings")


def test_c4_counting_bound_tight_case():
    """Criterion 4: distinct_count never exceeds the prefix length anywhere
    (enforced inside every equivalence check) and reaches it on a uniform
    stream of 10^5 identical symbols."""
    det = PalindromeDetector()
    for r in det.feed("a" * 100_000):
        assert r.distinct_count == r.n
    assert det.distinct_count == 100_000
    print("\nACCEPTANCE PASS 4: counting bound tight on uniform 1e5 stream")


def test_c5_amortization_counters():
    """Criterion 5: combined inner-loop passes stay within 4n, automaton
    states within Blumer et al.'s 2n - 1 and transitions within their
    3n - 4 on a mixed corpus (the equivalence harnesses assert the same
    bounds on every string they sweep)."""
    rng = random.Random(99)
    corpus = [REFERENCE_WORD, "a" * 20_000,
              "".join(rng.choice("ab") for _ in range(30_000)),
              "".join(rng.choice(LETTERS) for _ in range(30_000)),
              oracle.gen_abx("a", "b", [rng.choice(LETTERS[2:]) for _ in range(5000)]),
              [rng.randrange(4096) for _ in range(20_000)]]
    for w in corpus:
        for mode in (ChildStorageMode.ORDERED, ChildStorageMode.UNORDERED):
            det = PalindromeDetector(mode)
            for c in w:
                det.push(c)
            summary = det.finish()
            n = len(w)
            assert summary.manacher_loop_total <= 4 * n, (n, mode)
            assert summary.tree.nodes <= 2 * n - 1, (n, mode)
            assert summary.tree.transitions <= 3 * n - 4, (n, mode)
    print("\nACCEPTANCE PASS 5: 4n loop, 2n - 1 state and 3n - 4 transition "
          "bounds on the corpus")


def test_c6_adversarial_block_strings():
    """Criterion 6: on 10^3 generated block strings (a b x1 a b x2 ...) every
    reported palindrome is a single symbol."""
    rng = random.Random(4242)
    for _ in range(1000):
        sigma = rng.randint(3, 26)
        alphabet = LETTERS[:sigma]
        blocks = rng.randint(1, 333)
        xs = [rng.choice(alphabet[2:]) for _ in range(blocks)]
        w = oracle.gen_abx(alphabet[0], alphabet[1], xs)
        assert len(w) <= 1000
        det = PalindromeDetector()
        for r in det.feed(w):
            if r.new_palindrome is not None:
                start, end = r.new_palindrome
                assert end == start, (w[:40], r)
        assert det.distinct_count == len(set(w))
    print("\nACCEPTANCE PASS 6: block strings yield single-letter palindromes only")


def test_c7_directional_complexity():
    """Criterion 7: doubling the input length roughly doubles wall time, and
    child probes grow at least linearly with alphabet size when unordered but
    only logarithm-like when ordered.  Counter checks are machine independent;
    the wall-clock check is a ratio, not an absolute time.  On a shared host
    the speed drifts over seconds, so the two lengths run back to back in
    pairs, in alternating order, and the median of the per-pair ratios is
    gated."""
    started = time.perf_counter()

    def wall(n):
        return run_config("uniform_a", sizes=(n,), seed=1)[0].wall_best

    ratios = []
    for pair in range(7):
        if pair % 2 == 0:
            short = wall(100_000)
            long = wall(200_000)
        else:
            long = wall(200_000)
            short = wall(100_000)
        ratios.append(long / short)
    ratio = statistics.median(ratios)
    assert 1.5 <= ratio <= 2.8, \
        f"wall-time doubling ratio {ratio:.2f} (pairs: {', '.join(f'{r:.2f}' for r in ratios)})"

    probes = {}
    sigmas = (16, 256, 4096)
    for mode in (ChildStorageMode.UNORDERED, ChildStorageMode.ORDERED):
        for sigma in sigmas:
            result = run_config("random", sigma=sigma, sizes=(100_000,),
                                mode=mode, seed=5)
            probes[mode, sigma] = result[0].child_probes

    for small, large in zip(sigmas, sigmas[1:]):
        unordered_growth = (probes[ChildStorageMode.UNORDERED, large]
                            / probes[ChildStorageMode.UNORDERED, small])
        assert unordered_growth >= 0.5 * (large / small), \
            f"unordered probes grew only {unordered_growth:.1f}x from " \
            f"sigma {small} to {large}"
        ordered_growth = (probes[ChildStorageMode.ORDERED, large]
                          / probes[ChildStorageMode.ORDERED, small])
        log_ratio = math.log2(large) / math.log2(small)
        assert ordered_growth <= log_ratio ** 2, \
            f"ordered probes grew {ordered_growth:.1f}x from " \
            f"sigma {small} to {large} (limit {log_ratio ** 2:.1f}x)"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\nACCEPTANCE PASS 7: wall ratio {ratio:.2f} in [1.5, 2.8]; "
          f"probe growth unordered/ordered as expected ({elapsed:.0f} s)")


def test_c2_companion_spot_checks():
    """A handful of strings near the exhaustive boundary, through the slower
    fully-naive checker, to tie the two oracle paths together."""
    rng = random.Random(7)
    for _ in range(25):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(9, 14)))
        assert oracle_failures(w) == []
        assert check_stream(w, ChildStorageMode.ORDERED) is None
    for length in range(1, 9):
        for letters in product("ab", repeat=length):
            w = "".join(letters)
            fast = expected_steps(w)
            slow_problems = oracle_failures(w)
            assert slow_problems == []
            assert check_stream(w, ChildStorageMode.UNORDERED, fast) is None
