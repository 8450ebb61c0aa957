"""Incremental maximal suffix-palindrome tracking (online Manacher).

One instance tracks a single palindrome parity; two instances together give
the maximal palindromic suffix of a growing symbol sequence after every
appended symbol, in amortized constant time per symbol.

On the batch path, :func:`_add_spans` takes an odd and an even tracker over
a run of symbols in one loop, each symbol through both parities.  A symbol
that fails in the even step has already passed the odd one, so the odd
tracker's answers, center and loop total count it.
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
    touches no storage.  So ``_i + _r - 2`` counts the symbols after the
    first, each of which makes that first test, and ``_loop_iters`` holds
    only the center searches' further passes: a hit writes no counter.

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
                return 2 * r + 3 - delta
            rad = self._rad
            try:
                rad.append(r)  # the old center's radius is final
            except OverflowError:
                # The only append that can outgrow rad: the search below
                # appends stored radii clamped down, which already fit.
                self._rad = rad = array("H" if r <= 0xFFFF else "i", rad)
                rad.append(r)
            passes = 0
            mirror = 2 * i  # i + r == n: position k reflects onto mirror - k
            i += 1
            while i <= n:
                passes += 1
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
        self._loop_iters += passes
        return 2 * r + 1 - delta

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
        """Total inner-loop passes since construction (monotone): a first
        test per symbol after the first, and the center searches' passes."""
        return self._loop_iters + max(0, self._i + self._r - 2)


def _add_spans(odd: OnlineManacher, even: OnlineManacher, start: int, stop: int,
               odd_lengths: list, even_lengths: list) -> None:
    """:meth:`OnlineManacher.add_letter` of ``odd`` (parity 0) and then of
    ``even`` (parity 1), two trackers built by :meth:`~OnlineManacher._over`
    on the same text, for each symbol at positions ``start`` up to
    ``stop - 1``, which their owner has already appended; each new
    :meth:`~OnlineManacher.max_pal` goes to ``odd_lengths`` or
    ``even_lengths``.

    One loop over the positions, which takes each symbol through both
    parities' steps, with the trackers' state in locals that go back to the
    slots once it ends.  An exception propagates with each tracker's answers,
    slots and loop total as :meth:`~OnlineManacher.add_letter` leaves them:
    a symbol that fails in the even step has already been absorbed by the
    odd tracker, whose answers and center, and so its loop total, then count
    it.
    """
    text, orad, erad = odd._text, odd._rad, even._rad
    odd_append, even_append = odd_lengths.append, even_lengths.append
    oi, o_r, ei, er = odd._i, odd._r, even._i, even._r
    if start == 2 < stop:  # the first symbol: nothing before it to compare with
        odd_append(1)
        even_append(0)
        start = 3
    # the center searches' passes; the first tests are counted from the centers
    oiters = eiters = 0
    try:
        for n in range(start - 1, stop - 1):  # c is at n + 1; oi + o_r == ei + er == n
            c = text[n + 1]
            if text[oi - o_r - 1] == c:
                o_r += 1
            else:
                try:
                    orad.append(o_r)  # as in add_letter, the only one that can overflow
                except OverflowError:
                    odd._rad = orad = array("H" if o_r <= 0xFFFF else "i", orad)
                    orad.append(o_r)
                passes = 0
                mirror = 2 * oi
                j = oi + 1
                while j <= n:
                    passes += 1
                    s = orad[mirror - j]
                    if s > n - j:
                        s = n - j
                    if j + s == n and text[j - s - 1] == c:
                        s += 1
                        break
                    orad.append(s)
                    j += 1
                else:
                    s = 0
                oi, o_r = j, s
                oiters += passes
            odd_append(2 * o_r + 1)
            if text[ei - er] == c:
                er += 1
            else:
                try:
                    erad.append(er)
                except OverflowError:
                    even._rad = erad = array("H" if er <= 0xFFFF else "i", erad)
                    erad.append(er)
                passes = 0
                mirror = 2 * ei
                j = ei + 1
                while j <= n:
                    passes += 1
                    s = erad[mirror - j]
                    if s > n - j:
                        s = n - j
                    if j + s == n and text[j - s] == c:
                        s += 1
                        break
                    erad.append(s)
                    j += 1
                else:
                    s = 0
                ei, er = j, s
                eiters += passes
            even_append(2 * er)
    finally:
        odd._i, odd._r = oi, o_r
        odd._loop_iters += oiters
        even._i, even._r = ei, er
        even._loop_iters += eiters
