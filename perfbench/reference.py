"""Independent references for every field of a step report.

An eertree (Rubinchik and Shur, arXiv:1506.04862) gives the longest
palindromic suffix of each parity, whether a palindrome is new, and the
distinct count.  A suffix automaton (Blumer et al., TCS 1985) gives the
shortest unique suffix: the suffix link of the newest state spells the
longest suffix that occurs at least twice.  Neither shares logic with
Manacher's algorithm or the suffix tree, and both run in linear time, so the
benchmark checks its whole input.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["expected_reports"]


class _Eertree:
    """Palindromic tree: one node per distinct palindrome, plus two roots."""

    def __init__(self) -> None:
        self.text: list = []
        self.length = [-1, 0]  # node 0: imaginary root of length -1; node 1: empty string
        self.link = [0, 0]
        self.edges: list[dict] = [{}, {}]
        self.last = 1  # node of the longest palindromic suffix

    def _extendable(self, node: int, i: int, c) -> int:
        # Walk suffix links until text[i - 1 - len] == c, i.e. c + node + c
        # is a suffix of the text.
        length, link, text = self.length, self.link, self.text
        while True:
            j = i - 1 - length[node]
            if j >= 0 and text[j] == c:
                return node
            node = link[node]

    def add(self, c) -> bool:
        """Append ``c``; true when its longest palindromic suffix is new."""
        self.text.append(c)
        i = len(self.text) - 1
        cur = self._extendable(self.last, i, c)
        node = self.edges[cur].get(c)
        if node is not None:
            self.last = node
            return False
        node = len(self.length)
        self.length.append(self.length[cur] + 2)
        if self.length[node] == 1:
            self.link.append(1)
        else:
            self.link.append(self.edges[self._extendable(self.link[cur], i, c)][c])
        self.edges.append({})
        self.edges[cur][c] = node
        self.last = node
        return True

    def parity_suffixes(self) -> tuple[int, int]:
        """Longest odd and longest even palindromic suffix (even may be 0)."""
        first = self.length[self.last]
        node = self.last
        while self.length[node] % 2 == first % 2 and self.length[node] > 0:
            node = self.link[node]
        other = max(self.length[node], 0)
        return (first, other) if first % 2 else (other, first)

    @property
    def distinct(self) -> int:
        return len(self.length) - 2


class _SuffixAutomaton:
    """Minimal automaton of all substrings, grown one symbol at a time."""

    def __init__(self) -> None:
        self.length = [0]
        self.link = [-1]
        self.next: list[dict] = [{}]
        self.last = 0

    def add(self, c) -> int:
        """Append ``c`` and return the length of the shortest unique suffix."""
        length, link, nxt = self.length, self.link, self.next
        cur = len(length)
        length.append(length[self.last] + 1)
        link.append(0)
        nxt.append({})
        p = self.last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p != -1:
            q = nxt[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                nxt.append(dict(nxt[q]))
                while p != -1 and nxt[p].get(c) == q:
                    nxt[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur
        return length[link[cur]] + 1


def expected_reports(symbols: Iterable) -> Iterator[tuple]:
    """Yield, per symbol, the tuple (n, max_pal_odd, max_pal_even, max_pal,
    min_unique_suff, new_palindrome, closure_len, distinct_count) in the order
    of the detector's step-report fields."""
    pal = _Eertree()
    suffixes = _SuffixAutomaton()
    for n, c in enumerate(symbols, 1):
        is_new = pal.add(c)
        unique = suffixes.add(c)
        odd, even = pal.parity_suffixes()
        longest = max(odd, even)
        yield (n, odd, even, longest, unique,
               (n - longest + 1, n) if is_new else None,
               2 * n - longest, pal.distinct)
