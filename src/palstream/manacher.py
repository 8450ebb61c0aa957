"""Incremental maximal suffix-palindrome tracking (online Manacher).

One instance tracks a single palindrome parity; two instances together give
the maximal palindromic suffix of a growing symbol sequence after every
appended symbol, in amortized constant time per symbol.
"""

from __future__ import annotations

from array import array

from ._buffer import _MAX_SYMBOLS, _new_text

__all__ = ["OnlineManacher"]


class OnlineManacher:
    """Maintains the maximal odd or even palindromic suffix of a growing text.

    ``delta`` selects the parity: 0 tracks odd-length palindromes, 1 tracks
    even-length ones.  Symbols may be any objects that each equal
    themselves, so not ``float("nan")``; only ``==`` is used.

    The text is a symbol buffer laid out as :mod:`palstream._buffer`
    describes, so no palindrome reaches past its boundary.  An odd
    palindrome centered at position ``j`` with radius ``r`` spans
    ``text[j-r .. j+r]`` and an even one spans ``text[j-r+1 .. j+r]``.

    The current center ``_i`` is that of the maximal suffix-palindrome, and
    ``_r`` is its radius.  ``_rad`` is indexed by position and holds one
    final maximal radius for every position left of ``_i``, so
    ``len(_rad) == _i``: a center's radius is appended once, when the center
    is left behind.  ``_rad`` is an array in the narrowest typecode that
    holds every radius so far: 'B' (1 byte a radius) until a radius passes
    255, 'H' (2 bytes) until one passes 65,535, then 'i' (4 bytes), which
    holds any radius in a text of ``_MAX_SYMBOLS`` symbols.  Once a symbol
    has been added, every :meth:`add_letter` starts with ``_i + _r == n``,
    ``n`` being the position of the last symbol before the new one, so it
    first tests whether the new symbol extends that palindrome, which
    touches no storage.

    A tracker built by the constructor owns its text and appends each
    symbol to it; once :meth:`add_letter` has raised (say, in a symbol's
    ``__eq__``) every later call raises :class:`RuntimeError`.  It holds at
    most ``_MAX_SYMBOLS`` (2**31 - 1) symbols: one more raises
    :class:`OverflowError` ("symbol limit reached: at most 2147483647
    symbols") and leaves the tracker as it was.

    Single-writer: one mutator at a time; queries must not overlap a mutation.
    """

    __slots__ = ("delta", "_text", "_owns_text", "_rad", "_i", "_r", "_loop_iters",
                 "_failure")

    def __init__(self, delta: int) -> None:
        if not isinstance(delta, int) or delta not in (0, 1):
            raise ValueError(f"parity must be 0 (odd) or 1 (even), got {delta!r}")
        self.delta = delta
        self._text = _new_text()
        self._owns_text = True
        self._rad = array("B", (0, 0))  # padding and boundary; grown only by append
        self._i = 2  # the first symbol's center, one past the boundary
        self._r = 0
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
        text, delta = self._text, self.delta
        if self._owns_text:
            if self._failure is not None:
                raise RuntimeError("tracker unusable: an earlier add_letter failed "
                                   f"with {self._failure!r}") from self._failure
            if len(text) - 1 > _MAX_SYMBOLS:
                raise OverflowError("symbol limit reached: "
                                    f"at most {_MAX_SYMBOLS} symbols")
            text.append(c)
        n = len(text) - 2  # the last position before c, text[n + 1]
        i, r = self._i, self._r
        if i > n:  # the first symbol: nothing before it to compare with
            return 1 - delta
        try:
            if text[i - r - 1 + delta] == c:
                self._r = r + 1  # the suffix-palindrome extends over c
                self._loop_iters += 1
                return 2 * r + 3 - delta
            rad = self._rad
            try:
                rad.append(r)  # the old center's radius is final
            except OverflowError:
                # The only append that can outgrow rad: the search below
                # appends stored radii clamped down, which already fit.
                self._rad = rad = array("H" if r <= 0xFFFF else "i", rad)
                rad.append(r)
            iters = 1
            mirror = 2 * i  # i + r == n: position k reflects onto mirror - k
            i += 1
            while i <= n:
                iters += 1
                r = rad[mirror - i]
                if r > n - i:
                    r = n - i
                if i + r == n and text[i - r - 1 + delta] == c:
                    r += 1  # the suffix-palindrome extends over c
                    break
                rad.append(r)
                i += 1
            else:
                r = 0  # centered at c: c alone (odd) or empty (even)
        except BaseException as exc:
            self._failure = exc
            raise
        self._i, self._r = i, r
        self._loop_iters += iters
        return 2 * r + 1 - delta

    def _add_span(self, start: int, stop: int, lengths: list) -> None:
        """:meth:`add_letter` for the symbols at positions ``start`` up to
        ``stop - 1`` of a tracker built by :meth:`_over`, which its owner
        has already appended; each new :meth:`max_pal` is appended to
        ``lengths``.

        One loop with its state in locals, which go back to the slots once
        it ends.  An exception propagates with ``lengths`` holding the
        answers for the symbols before the one that raised, and the slots
        and loop total as :meth:`add_letter` leaves them after that symbol.
        """
        text, delta, rad = self._text, self.delta, self._rad
        append = lengths.append
        i, r, iters = self._i, self._r, 0
        if start == 2 < stop:  # the first symbol: nothing before it to compare with
            append(1 - delta)
            start = 3
        try:
            for n in range(start - 1, stop - 1):  # c is at n + 1, and i + r == n
                c = text[n + 1]
                if text[i - r - 1 + delta] == c:
                    r += 1
                    iters += 1
                    append(2 * r + 1 - delta)
                    continue
                try:
                    rad.append(r)  # as in add_letter, the only one that can overflow
                except OverflowError:
                    self._rad = rad = array("H" if r <= 0xFFFF else "i", rad)
                    rad.append(r)
                passes = 1
                mirror = 2 * i
                j = i + 1
                while j <= n:
                    passes += 1
                    s = rad[mirror - j]
                    if s > n - j:
                        s = n - j
                    if j + s == n and text[j - s - 1 + delta] == c:
                        s += 1
                        break
                    rad.append(s)
                    j += 1
                else:
                    s = 0
                i, r = j, s
                iters += passes
                append(2 * r + 1 - delta)
        finally:
            self._i, self._r = i, r
            self._loop_iters += iters

    def max_pal(self) -> int:
        """Length of the maximal tracked-parity palindromic suffix.

        Only meaningful once at least one symbol has been added; querying the
        pristine structure is a misuse and raises.
        """
        if len(self._text) < 3:
            raise RuntimeError("max_pal() queried before any symbol was added")
        return 2 * self._r + 1 - self.delta

    @property
    def loop_iterations(self) -> int:
        """Total inner-loop passes since construction (monotone)."""
        return self._loop_iters
