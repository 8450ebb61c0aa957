"""Incremental maximal suffix-palindrome tracking (online Manacher).

One instance tracks a single palindrome parity; two instances together give
the maximal palindromic suffix of a growing symbol sequence after every
appended symbol, in amortized constant time per symbol.
"""

from __future__ import annotations

__all__ = ["OnlineManacher"]


def _new_text() -> list:
    """An empty symbol buffer: ``[None, boundary]``, then one slot per symbol.

    Slot 0 is padding, so that positions are 1-based.  Slot 1 is the
    boundary, a fresh object no caller can hold, so it equals no input
    symbol and every palindrome stops there.
    """
    return [None, object()]


class OnlineManacher:
    """Maintains the maximal odd or even palindromic suffix of a growing text.

    ``delta`` selects the parity: 0 tracks odd-length palindromes, 1 tracks
    even-length ones.  Symbols may be any objects supporting equality.

    The text is ``[None, boundary, s1, s2, ...]`` (see :func:`_new_text`):
    positions are 1-based and no palindrome reaches past the boundary at
    position 1.  An odd palindrome centered at position ``j`` with radius
    ``r`` spans ``text[j-r .. j+r]`` and an even one spans
    ``text[j-r+1 .. j+r]``.  ``rad`` is indexed by position too; for every
    center left of the current center it holds the final maximal radius of
    that parity.

    The current center ``i`` is that of the maximal suffix-palindrome.  Once
    a symbol has been added, every :meth:`add_letter` starts with
    ``i + rad[i] == n``, ``n`` being the position of the last symbol before
    the new one: that palindrome ends at the old text's end.  So the loop's
    first pass would mirror ``rad[i]`` onto itself, and :meth:`add_letter`
    only tests whether the new symbol extends it.

    A tracker built by the constructor owns its text and appends each
    symbol to it; once :meth:`add_letter` has raised (say, in a symbol's
    ``__eq__``) every later call raises :class:`RuntimeError`.

    Single-writer: one mutator at a time; queries must not overlap a mutation.
    """

    __slots__ = ("delta", "_text", "_owns_text", "_rad", "_i", "_loop_iters", "_failure")

    def __init__(self, delta: int) -> None:
        if not isinstance(delta, int) or delta not in (0, 1):
            raise ValueError(f"parity must be 0 (odd) or 1 (even), got {delta!r}")
        self.delta = delta
        self._text = _new_text()
        self._owns_text = True
        self._rad = [0, 0, 0]  # zero-filled; kept addressable through n + 1
        self._i = 2  # makes the first add_letter skip the loop cleanly
        self._loop_iters = 0
        self._failure: BaseException | None = None

    @classmethod
    def _over(cls, text: list, delta: int) -> OnlineManacher:
        """A tracker reading ``text``, a buffer in the internal layout above
        whose owner appends each symbol before calling :meth:`add_letter`.
        The owner also stops after a failure."""
        manacher = cls(delta)
        manacher._text = text
        manacher._owns_text = False
        return manacher

    def add_letter(self, c: object) -> int:
        """Append one symbol, re-establish the suffix-palindrome center and
        return the new :meth:`max_pal`.

        The candidate center only moves rightward; each inner-loop pass either
        finishes the update or advances it, which is what keeps the total loop
        work over any n symbols bounded by a small multiple of n.
        """
        text, rad, delta = self._text, self._rad, self.delta
        if self._owns_text:
            if self._failure is not None:
                raise RuntimeError("tracker unusable: an earlier add_letter failed "
                                   f"with {self._failure!r}") from self._failure
            text.append(c)
        n, i = len(text) - 2, self._i  # n: the last position before c, text[n + 1]
        r = rad[i]
        s = i - r + delta  # start of the maximal suffix-palindrome so far
        rad.append(0)  # keeps index n + 2 valid for the next call
        iters = 0
        try:
            if i <= n:  # not the first symbol, so i + r == n: the loop's first pass
                iters = 1
                if text[s - 1] == c:
                    rad[i] = r + 1  # the suffix-palindrome extends over c
                    self._loop_iters += 1
                    return 2 * r + 3 - delta
                i += 1
            while i + rad[i] <= n:
                iters += 1
                r = rad[s + n - i - delta]  # mirrored center inside the suffix-palindrome
                if r > n - i:
                    r = n - i
                rad[i] = r
                if i + r == n and text[i - r - 1 + delta] == c:
                    rad[i] = r + 1  # the suffix-palindrome extends over c
                    break
                i += 1
        except BaseException as exc:
            self._failure = exc
            raise
        self._i = i
        self._loop_iters += iters
        return 2 * rad[i] + 1 - delta

    def max_pal(self) -> int:
        """Length of the maximal tracked-parity palindromic suffix.

        Only meaningful once at least one symbol has been added; querying the
        pristine structure is a misuse and raises.
        """
        if len(self._text) < 3:
            raise RuntimeError("max_pal() queried before any symbol was added")
        return 2 * self._rad[self._i] + 1 - self.delta

    @property
    def loop_iterations(self) -> int:
        """Total inner-loop passes since construction (monotone)."""
        return self._loop_iters
