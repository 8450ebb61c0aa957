"""Online suffix automaton with implicit chain edges.

The automaton grows one symbol at a time (Blumer et al., *The smallest
automaton recognizing the subwords of a text*, 1985) and, after every
symbol, reports the length of the shortest suffix that occurs exactly once
in the text so far.  The suffix link of the state for the whole text leads
to the state of the longest suffix that also occurs earlier, so one symbol
more than that state's length is the shortest unique suffix.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import NamedTuple

from ._buffer import _MAX_SYMBOLS, _new_ints, _new_text

__all__ = ["ChildStorageMode", "PerfCounters", "OnlineSuffixAutomaton"]

#: ``m.bit_length() + 1``, an ordered search's probes among ``m`` symbols, for ``m < 64``
_PROBES = tuple(m.bit_length() + 1 for m in range(64))


class ChildStorageMode(str, Enum):
    """How the outgoing transitions of a state are stored and searched.

    In both modes every symbol must equal itself: ``float("nan")`` does not,
    and the modes give different answers for it.  Symbols are not checked.
    """

    #: Sorted list + binary search; symbols need a total order (and equality
    #: that agrees with it).
    ORDERED = "ordered"
    #: Flat list + linear scan; symbols only need an equality under which
    #: each equals itself.  The symbol sought stands in the list's first
    #: target slot during the scan, so a missing one is found there by
    #: identity: no comparison, no exception.
    UNORDERED = "unordered"


class PerfCounters(NamedTuple):
    """Monotone structural totals, used to check the linear-size bounds."""

    nodes: int  # automaton states, root included
    suffix_link_hops: int
    #: Symbol comparisons spent locating transitions, chain edges included.
    #: Exact in unordered mode; in ordered mode an upper bound of
    #: ``m.bit_length() + 1`` per search among ``m`` symbols.
    child_probes: int
    #: Chain edges plus stored transitions, counted by :meth:`counters`.
    transitions: int


class OnlineSuffixAutomaton:
    """Suffix automaton of a growing symbol sequence.

    Layout, chosen so that a state costs a few machine words:

    - States are ints.  The state created for the prefix of length ``i`` is
      ``i`` (the root is 0) and its length is ``i``.  Clone ``k`` (k >= 1)
      is ``~k``; its length lives in ``_clone_len[k]``.  -1 is no state.
    - Suffix links live in ``_link[i]`` and ``_clone_link[k]``; the root's
      is -1.  These two arrays and ``_clone_len`` are built by
      :func:`~palstream._buffer._new_ints`, 4 bytes a value.
    - State ``i``'s transition on the text's symbol ``i + 1`` leads to
      ``i + 1``.  This chain edge is read from the text and never stored; it
      is solid (``len(i) + 1 == len(i + 1)``), so it is never redirected.
    - Every other transition of ``i`` (or clone ``k``) is in ``_out[i]``
      (``_clone_out[k]``): one list of ``m`` symbols, then their ``m`` targets.
      A list that gains its second transition is rebuilt as a four-item
      literal, so it holds exactly four slots where two inserts would leave
      it six or eight; about half the clones on random a-z text, and four
      in five on token text, never gain a third.
      Ordered mode keeps the symbols sorted and bisects; unordered mode
      appends and scans, with the symbol sought standing in for the first
      target, ``edges[m]``, until the scan ends: ``list.index`` tries
      identity before ``==``, so it stops there on a miss without calling
      ``__eq__``.  ``_out`` is a dict holding only the prefix states
      that have a list.  That is a few states on most texts (at most 22 on
      random a-z, token and Fibonacci texts of 10**5 symbols), but not a
      bound: after ``a**n b`` each of the ``n`` states for ``a**0`` to
      ``a**(n-1)`` has a list of its own.  Every clone has a list, so
      ``_clone_out`` is a list.
    - A clone descends, directly or through clones, from one prefix state
      ``_clone_src[k]`` (a :func:`~palstream._buffer._new_ints` array) and
      stores that state's chain edge with ``None`` for its target: ``None``
      means ``_clone_src[k] + 1``, until a redirect overwrites it.

    The clone step, inline in both walks so that a clone makes no call: when
    the walk's first transition on ``c``, from ``p`` into ``q``, is not
    solid, a clone of length ``len(p) + 1`` with ``q``'s transitions takes
    it over, and those on ``c`` into ``q`` of the states on ``p``'s suffix
    path.  ``q``'s strings are the suffixes of its longest one that are
    longer than its suffix link, so such a state leads to ``q`` on ``c``
    exactly while its length is at least that of ``q``'s old link (Blumer
    et al., 1985).  The redirect stops on that length, and every search it
    makes is a hit in a stored list: from a state shorter than ``p``, ``q``
    is not solid, so it is never a chain edge.  A state there with no
    transition on ``c`` to ``q``, ``None`` read through its ``_clone_src``,
    raises :class:`RuntimeError`: the structure is corrupt.

    The automaton owns its text, a symbol buffer laid out as
    :mod:`palstream._buffer` describes, so symbol ``i + 1`` is
    ``text[i + 2]``.  :meth:`add_letter` appends each symbol before
    anything else, and the detector's two trackers read the same list.
    Once it has raised (say, on symbols that do not compare), every later
    call raises :class:`RuntimeError` chained to that failure.  The text
    holds at most ``_MAX_SYMBOLS`` (2**31 - 1) symbols, so that every
    state fits in 4 bytes: one more raises :class:`OverflowError` ("symbol
    limit reached: at most 2147483647 symbols") before anything changes.

    Single-writer: one mutator at a time; queries must not overlap a mutation.
    """

    __slots__ = ("mode", "_ordered", "_text", "_link", "_out", "_clone_len",
                 "_clone_link", "_clone_out", "_clone_src", "_hops", "_probes", "_failure")

    def __init__(self, mode: ChildStorageMode | str = ChildStorageMode.ORDERED) -> None:
        self.mode = ChildStorageMode(mode)
        self._ordered = self.mode is ChildStorageMode.ORDERED
        self._text = _new_text()
        self._link = _new_ints(-1)
        self._out: dict[int, list] = {}
        # slot 0 is unused, so that no clone is ~0 == -1
        self._clone_len = _new_ints(0)
        self._clone_link = _new_ints(0)
        self._clone_out: list = [None]
        self._clone_src = _new_ints(-1)
        self._hops = 0
        self._probes = 0
        self._failure: BaseException | None = None

    # -- construction ----------------------------------------------------------

    def add_letter(self, c) -> int:
        """Extend the text by one symbol and return the new
        :meth:`min_unique_suff`.

        Walks the suffix links from the previous whole-text state, giving
        each state without a transition on ``c`` one to the new state.  The
        first state that has one decides the new state's suffix link, after
        the clone step when that transition is not solid.
        """
        if self._failure is not None:
            raise RuntimeError("automaton unusable: an earlier add_letter failed "
                               f"with {self._failure!r}") from self._failure
        text = self._text
        cur = len(text) - 1  # the new state, and its length
        if cur > _MAX_SYMBOLS:
            raise OverflowError(f"symbol limit reached: at most {_MAX_SYMBOLS} symbols")
        text.append(c)
        probes = hops = 0  # added to the totals once the walk ends
        try:
            link, out, ordered = self._link, self._out, self._ordered
            p = link[cur - 1]  # cur - 1 reaches cur by its chain edge
            while p != -1:
                if p >= 0:
                    probes += 1
                    if text[p + 2] == c:
                        q = p + 1
                        break
                    edges = out.get(p)
                    if edges is None:
                        out[p] = [c, cur]
                        hops += 1
                        p = link[p]
                        continue
                else:
                    edges = self._clone_out[~p]
                m = len(edges) >> 1
                if ordered:
                    probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                    i = bisect_left(edges, c, 0, m)
                    if i < m and edges[i] == c:
                        q = edges[m + i]
                        break
                else:
                    # c stands in the first target slot, so a miss ends the
                    # scan there (i == m) without a comparison or an exception
                    target = edges[m]
                    edges[m] = c
                    try:
                        i = edges.index(c, 0, m + 1)
                    finally:
                        edges[m] = target
                    if i < m:
                        probes += i + 1
                        q = edges[m + i]
                        break
                    probes += m
                if m == 1:
                    # a literal holds exactly four slots, where two inserts
                    # would grow the list to six or eight
                    s, t = edges
                    edges = [c, s, cur, t] if i == 0 else [s, c, t, cur]
                    if p >= 0:
                        out[p] = edges
                    else:
                        self._clone_out[~p] = edges
                else:
                    edges.insert(m + i, cur)
                    edges.insert(i, c)
                hops += 1
                p = link[p] if p >= 0 else self._clone_link[~p]
            if p == -1:  # c is new: only the empty suffix occurs earlier
                link.append(0)
                return 1
            if q is None:  # a clone's copied chain edge
                q = self._clone_src[~p] + 1
            clone_len = self._clone_len
            len_p = p if p >= 0 else clone_len[~p]
            # the new state's link has length len_p + 1: q, or q's clone
            if len_p + 1 != (q if q >= 0 else clone_len[~q]):  # the clone step
                clone_link, clone_out = self._clone_link, self._clone_out
                clone_src = self._clone_src
                k = len(clone_len)
                if k >= cur - 1:  # Blumer et al.: at most 2n - 1 states once n >= 2
                    raise RuntimeError(f"state bound violated: {cur + 1 + k} states "
                                       f"> 2n - 1 = {2 * cur - 1}")
                clone = ~k
                edges[m + i] = clone  # p's transition, where the walk found it
                clone_len.append(len_p + 1)
                clone_src.append(q if q >= 0 else clone_src[~q])
                # q stores none on its chain symbol: the copy adds it without a lookup
                if q >= 0:
                    chain = text[q + 2]
                    edges = out.get(q)
                    if edges is None:
                        edges = [chain, None]
                    else:
                        edges = edges.copy()
                        i = m = len(edges) >> 1
                        if ordered:
                            probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                            i = bisect_left(edges, chain, 0, m)
                        edges.insert(m + i, None)
                        edges.insert(i, chain)
                    clone_out.append(edges)
                    old_link = link[q]
                    link[q] = clone
                else:
                    clone_out.append(clone_out[~q].copy())
                    old_link = clone_link[~q]
                    clone_link[~q] = clone
                clone_link.append(old_link)
                bound = old_link if old_link >= 0 else clone_len[~old_link]
                hops += 1
                p = link[p] if p >= 0 else clone_link[~p]
                while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound:
                    edges = out.get(p, ()) if p >= 0 else clone_out[~p]
                    m = len(edges) >> 1
                    if ordered:
                        probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                        i = bisect_left(edges, c, 0, m)
                    else:  # c stands in past the symbols, so a miss is i == m
                        i = [*edges[:m], c].index(c)
                        probes += i + 1
                    t = edges[m + i] if i < m else -1
                    if (clone_src[~p] + 1 if t is None else t) != q:
                        raise RuntimeError(f"automaton corrupt: state {p} has no "
                                           f"transition on {c!r} to state {q}")
                    edges[m + i] = clone
                    hops += 1
                    p = link[p] if p >= 0 else clone_link[~p]
                q = clone
            link.append(q)
            return len_p + 2
        except BaseException as exc:
            self._failure = exc
            raise
        finally:
            self._probes += probes
            self._hops += hops

    def _add_batch(self, symbols: list, answers: list) -> None:
        """:meth:`add_letter` for each of ``symbols`` in turn, appending each
        answer to ``answers``.

        The same walk and clone step in one loop, with the structure's fields
        and the text's length in locals and the probe and hop counts added to
        the totals once the loop ends.  An exception propagates with
        ``answers`` holding the answers for the symbols before the one that
        raised, as :meth:`add_letter` would: past the symbol limit an
        :class:`OverflowError` after the symbols that fit, any other
        exception after stopping the automaton.
        """
        if self._failure is not None:
            raise RuntimeError("automaton unusable: an earlier add_letter failed "
                               f"with {self._failure!r}") from self._failure
        text = self._text
        cur = len(text) - 2
        if len(symbols) > _MAX_SYMBOLS - cur:
            self._add_batch(symbols[:_MAX_SYMBOLS - cur], answers)
            raise OverflowError(f"symbol limit reached: at most {_MAX_SYMBOLS} symbols")
        append_symbol, answer = text.append, answers.append
        link, out, ordered = self._link, self._out, self._ordered
        clone_out, clone_link, clone_len = self._clone_out, self._clone_link, self._clone_len
        clone_src = self._clone_src
        probes = hops = 0
        try:
            for c in symbols:
                append_symbol(c)
                cur += 1
                p = link[cur - 1]
                while p != -1:
                    if p >= 0:
                        probes += 1
                        if text[p + 2] == c:
                            q = p + 1
                            break
                        edges = out.get(p)
                        if edges is None:
                            out[p] = [c, cur]
                            hops += 1
                            p = link[p]
                            continue
                    else:
                        edges = clone_out[~p]
                    m = len(edges) >> 1
                    if ordered:
                        probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                        i = bisect_left(edges, c, 0, m)
                        if i < m and edges[i] == c:
                            q = edges[m + i]
                            break
                    else:
                        target = edges[m]
                        edges[m] = c
                        try:
                            i = edges.index(c, 0, m + 1)
                        finally:
                            edges[m] = target
                        if i < m:
                            probes += i + 1
                            q = edges[m + i]
                            break
                        probes += m
                    if m == 1:  # four slots exactly, as in add_letter
                        s, t = edges
                        edges = [c, s, cur, t] if i == 0 else [s, c, t, cur]
                        if p >= 0:
                            out[p] = edges
                        else:
                            clone_out[~p] = edges
                    else:
                        edges.insert(m + i, cur)
                        edges.insert(i, c)
                    hops += 1
                    p = link[p] if p >= 0 else clone_link[~p]
                if p == -1:
                    link.append(0)
                    answer(1)
                    continue
                if q is None:
                    q = clone_src[~p] + 1
                len_p = p if p >= 0 else clone_len[~p]
                if len_p + 1 != (q if q >= 0 else clone_len[~q]):  # as in add_letter
                    k = len(clone_len)
                    if k >= cur - 1:
                        raise RuntimeError(f"state bound violated: {cur + 1 + k} states "
                                           f"> 2n - 1 = {2 * cur - 1}")
                    clone = ~k
                    edges[m + i] = clone
                    clone_len.append(len_p + 1)
                    clone_src.append(q if q >= 0 else clone_src[~q])
                    if q >= 0:
                        chain = text[q + 2]
                        edges = out.get(q)
                        if edges is None:
                            edges = [chain, None]
                        else:
                            edges = edges.copy()
                            i = m = len(edges) >> 1
                            if ordered:
                                probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                                i = bisect_left(edges, chain, 0, m)
                            edges.insert(m + i, None)
                            edges.insert(i, chain)
                        clone_out.append(edges)
                        old_link = link[q]
                        link[q] = clone
                    else:
                        clone_out.append(clone_out[~q].copy())
                        old_link = clone_link[~q]
                        clone_link[~q] = clone
                    clone_link.append(old_link)
                    bound = old_link if old_link >= 0 else clone_len[~old_link]
                    hops += 1
                    p = link[p] if p >= 0 else clone_link[~p]
                    while p != -1 and (p if p >= 0 else clone_len[~p]) >= bound:
                        edges = out.get(p, ()) if p >= 0 else clone_out[~p]
                        m = len(edges) >> 1
                        if ordered:
                            probes += _PROBES[m] if m < 64 else m.bit_length() + 1
                            i = bisect_left(edges, c, 0, m)
                        else:
                            i = [*edges[:m], c].index(c)
                            probes += i + 1
                        t = edges[m + i] if i < m else -1
                        if (clone_src[~p] + 1 if t is None else t) != q:
                            raise RuntimeError(f"automaton corrupt: state {p} has no "
                                               f"transition on {c!r} to state {q}")
                        edges[m + i] = clone
                        hops += 1
                        p = link[p] if p >= 0 else clone_link[~p]
                    q = clone
                link.append(q)
                answer(len_p + 2)
        except BaseException as exc:
            self._failure = exc
            raise
        finally:
            self._probes += probes
            self._hops += hops

    # -- queries ---------------------------------------------------------------

    def min_unique_suff(self) -> int:
        """Length of the shortest suffix occurring exactly once in the text.

        One more symbol than the length of the whole-text state's suffix
        link.  Raises on an empty text.
        """
        n = len(self._text) - 2
        if n == 0:
            raise RuntimeError("min_unique_suff() queried on an empty text")
        s = self._link[n]
        return (s if s >= 0 else self._clone_len[~s]) + 1

    def counters(self) -> PerfCounters:
        """The totals.  ``transitions`` is summed here, so that
        :meth:`add_letter` pays nothing for it: a chain edge into every
        prefix state but the root, and every stored transition."""
        stored = sum(map(len, self._out.values())) + sum(map(len, self._clone_out[1:]))
        return PerfCounters(nodes=len(self._link) + len(self._clone_len) - 1,
                            suffix_link_hops=self._hops,
                            child_probes=self._probes,
                            transitions=len(self._link) - 1 + (stored >> 1))
