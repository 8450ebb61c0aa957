"""Online suffix automaton with implicit chain edges.

The automaton grows one symbol at a time (Blumer et al., *The smallest
automaton recognizing the subwords of a text*, 1985) and, after every
symbol, reports the length of the shortest suffix that occurs exactly once
in the text so far.  The suffix link of the state for the whole text leads
to the state of the longest suffix that also occurs earlier, so one symbol
more than that state's length is the shortest unique suffix.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .manacher import _new_text

__all__ = ["ChildStorageMode", "PerfCounters", "OnlineSuffixAutomaton"]


class ChildStorageMode(str, Enum):
    """How the outgoing transitions of a state are stored and searched."""

    #: Sorted list + binary search; symbols need a total order.
    ORDERED = "ordered"
    #: Flat list + linear scan; symbols only need equality.
    UNORDERED = "unordered"


@dataclass(frozen=True, slots=True)
class PerfCounters:
    """Monotone structural totals, used to check the linear-size bounds."""

    nodes: int  # automaton states, root included
    suffix_link_hops: int
    child_probes: int  # symbol comparisons spent locating transitions


class OnlineSuffixAutomaton:
    """Suffix automaton of a growing symbol sequence.

    Layout, chosen so that a state costs a few machine words:

    - States are ints.  The state created for the prefix of length ``i`` is
      ``i`` (the root is 0) and its length is ``i``.  Clone ``k`` (k >= 1)
      is ``~k``; its length lives in ``_clone_len[k]``.  -1 is no state.
    - Suffix links live in ``_link[i]`` and ``_clone_link[k]``; the root's
      is -1.
    - State ``i``'s transition on the text's symbol ``i + 1`` leads to
      ``i + 1``.  This chain edge is read from the text and never stored; it
      is solid (``len(i) + 1 == len(i + 1)``), so it is never redirected.
    - Every other transition of ``i`` (or clone ``k``) is in ``_out[i]``
      (``_clone_out[k]``): ``None``, or one list of ``m`` symbols followed by
      their ``m`` targets.  Ordered mode keeps the symbols sorted and finds
      them by bisection; unordered mode appends and scans.  ``_out`` ends at
      the last state that has such a list, so a text whose every transition
      is a chain edge (``aaaa...``) stores none.

    The automaton owns its text, ``[None, boundary, s1, s2, ...]`` as
    :class:`~palstream.manacher.OnlineManacher` lays it out, so symbol
    ``i + 1`` is ``text[i + 2]``.  :meth:`add_letter` appends each symbol
    before anything else, and the detector's two trackers read the same
    list.  Once it has raised (say, on symbols that do not compare), every
    later call raises :class:`RuntimeError` chained to that failure.

    Single-writer: one mutator at a time; queries must not overlap a mutation.
    """

    __slots__ = ("mode", "_ordered", "_text", "_link", "_out", "_clone_len",
                 "_clone_link", "_clone_out", "_hops", "_probes", "_failure")

    def __init__(self, mode: ChildStorageMode | str = ChildStorageMode.ORDERED) -> None:
        self.mode = ChildStorageMode(mode)
        self._ordered = self.mode is ChildStorageMode.ORDERED
        self._text = _new_text()
        self._link = array("q", [-1])
        self._out: list = [None]
        # slot 0 is unused, so that no clone is ~0 == -1
        self._clone_len = array("q", [0])
        self._clone_link = array("q", [0])
        self._clone_out: list = [None]
        self._hops = 0
        self._probes = 0
        self._failure: BaseException | None = None

    # -- transitions ---------------------------------------------------------

    def _slot(self, edges: list, c) -> int:
        """Index of ``c`` among the symbols of ``edges``, or where it goes.

        Probe counting mirrors the comparison cost of the storage mode: the
        steps of a binary search plus a final equality test when ordered, one
        per element touched by the linear scan when unordered.  Both searches
        run in C, so the count is arithmetic.
        """
        m = len(edges) >> 1
        if self._ordered:
            self._probes += m.bit_length() + 1
            return bisect_left(edges, c, 0, m)
        try:
            i = edges.index(c, 0, m)
        except ValueError:
            self._probes += m
            return m
        self._probes += i + 1
        return i

    def _copy_out(self, q: int) -> list:
        """All transitions of the non-clone state ``q`` as one explicit list."""
        edges = self._out[q] if q < len(self._out) else None
        chain = self._text[q + 2]
        if edges is None:
            return [chain, q + 1]
        edges = edges.copy()
        i = self._slot(edges, chain)
        edges.insert((len(edges) >> 1) + i, q + 1)
        edges.insert(i, chain)
        return edges

    # -- construction ----------------------------------------------------------

    def add_letter(self, c) -> int:
        """Extend the text by one symbol and return the new
        :meth:`min_unique_suff`.

        Walks the suffix links from the previous whole-text state, giving
        each state without a transition on ``c`` one to the new state.  The
        first state that has one decides the new state's suffix link, after
        cloning its target when that transition is not solid.
        """
        if self._failure is not None:
            raise RuntimeError("automaton unusable: an earlier add_letter failed "
                               f"with {self._failure!r}") from self._failure
        text = self._text
        text.append(c)
        try:
            cur = len(text) - 2  # the new state, and its length
            link, out = self._link, self._out
            probes = hops = 0
            p = link[cur - 1]  # cur - 1 reaches cur by its chain edge
            while p != -1:
                if p >= 0:
                    probes += 1
                    if text[p + 2] == c:
                        q = p + 1
                        break
                    try:
                        edges = out[p]
                    except IndexError:  # _out grows only as far as it is used
                        out.extend([None] * (p + 1 - len(out)))
                        edges = None
                    if edges is None:
                        out[p] = [c, cur]
                        hops += 1
                        p = link[p]
                        continue
                else:
                    edges = self._clone_out[~p]
                i = self._slot(edges, c)
                m = len(edges) >> 1
                if i < m and edges[i] == c:
                    q = edges[m + i]
                    break
                edges.insert(m + i, cur)
                edges.insert(i, c)
                hops += 1
                p = link[p] if p >= 0 else self._clone_link[~p]
            self._probes += probes
            self._hops += hops
            if p == -1:  # c is new: only the empty suffix occurs earlier
                link.append(0)
                return 1
            clone_len = self._clone_len
            len_p = p if p >= 0 else clone_len[~p]
            # the new state's link has length len_p + 1, whether q or a clone
            if len_p + 1 == (q if q >= 0 else clone_len[~q]):
                link.append(q)
            else:
                link.append(self._clone(p, q, c, len_p + 1))
            return len_p + 2
        except BaseException as exc:
            self._failure = exc
            raise

    def _clone(self, p: int, q: int, c, length: int) -> int:
        """Split ``q`` for the new symbol ``c``: a clone of length ``length``
        takes over the transitions on ``c`` into ``q`` from ``p`` and the
        states on ``p``'s suffix path.  Returns the clone."""
        text, link, out = self._text, self._link, self._out
        clone_len, clone_link, clone_out = self._clone_len, self._clone_link, self._clone_out
        k = len(clone_len)
        n = len(text) - 2
        if k >= n:
            raise RuntimeError(f"state bound violated: {n + 1 + k} states > 2n = {2 * n}")
        clone = ~k
        clone_len.append(length)
        if q >= 0:
            clone_out.append(self._copy_out(q))
            clone_link.append(link[q])
            link[q] = clone
        else:
            clone_out.append(clone_out[~q].copy())
            clone_link.append(clone_link[~q])
            clone_link[~q] = clone
        while p != -1:
            if p >= 0:
                self._probes += 1
                if text[p + 2] == c:  # a chain edge is solid, so never to q
                    break
                edges = out[p]
            else:
                edges = clone_out[~p]
            i = self._slot(edges, c) + (len(edges) >> 1)
            if edges[i] != q:
                break
            edges[i] = clone
            self._hops += 1
            p = link[p] if p >= 0 else clone_link[~p]
        return clone

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
        return PerfCounters(nodes=len(self._link) + len(self._clone_len) - 1,
                            suffix_link_hops=self._hops,
                            child_probes=self._probes)
