"""The symbol buffer that the suffix automaton and the Manacher trackers share.

A text is the list :func:`_new_text` starts, ``[None, boundary, s1, s2,
...]``, so symbol ``k`` is ``text[k + 1]`` and no palindrome reaches past
the boundary.  It holds at most :data:`_MAX_SYMBOLS` symbols, so every int
the automaton stores fits an array from :func:`_new_ints`, 4 bytes an item.
"""

from __future__ import annotations

from array import array

#: The most symbols one text holds.  Every int the trackers and the suffix
#: automaton store (a radius, a state, a clone's length) is then below
#: 2**31 in magnitude, so it fits the 4 bytes of a :func:`_new_ints` item.
_MAX_SYMBOLS = 2**31 - 1


def _new_ints(*values: int) -> array:
    """A growable array of ``values``, 4 bytes an item.

    CPython caches the ints up to 256 only, so a list would box every larger
    value in an object of its own.  Storing a value outside the 4-byte range
    raises :class:`OverflowError`; it is never truncated.
    """
    return array("i", values)


def _new_text() -> list:
    """An empty symbol buffer: ``[None, boundary]``, then one slot per symbol.

    Slot 0 is padding, so that positions are 1-based.  Slot 1 is the
    boundary, a fresh object no caller can hold, so it equals no input
    symbol and every palindrome stops there.
    """
    return [None, object()]
