"""Spans recorded around the calls into each layer, for the traced run.

The proxies are installed from outside: the detector's three structures are
swapped for objects whose public methods record a span and then call the
real method, so the package under test is unchanged and the untraced passes
pay nothing.  Spans are kept in memory as parallel arrays.
"""

from __future__ import annotations

import json
import time
from array import array

__all__ = ["Tracer", "trace_detector", "LAYER_SPANS"]

#: Detector attribute, layer name and traced methods of each structure.
LAYER_SPANS = (
    ("_odd", "manacher.odd", ("add_letter", "max_pal")),
    ("_even", "manacher.even", ("add_letter", "max_pal")),
    ("_tree", "ukkonen", ("add_letter", "min_unique_suff")),
)


class Tracer:
    """Records spans: a name, a start and an end (perf_counter ns), and the
    span that was open when it began (-1 for none)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args):
            idx = len(ends)
            names.append(nid)
            parents.append(open_spans[-1])
            ends.append(0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args)
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def absorb(self, other: "Tracer") -> tuple[int, int]:
        """Append ``other``'s spans; returns their index range here."""
        lo = len(self)
        ids = [self.name_id(name) for name in other.names]
        self.name.extend(array("i", (ids[i] for i in other.name)))
        self.parent.extend(array("i", (p + lo if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        return lo, len(self)

    def totals(self) -> dict[str, list[int]]:
        """Per span name: [count, total ns, self ns].

        Self time is a span's duration minus that of its child spans; calls
        are sequential within a span, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def save(self, path, meta: dict | None = None) -> None:
        """One JSON header line, then the name, parent, start and end arrays
        in native byte order, each ``count`` items long."""
        header = {"names": self.names, "count": len(self),
                  "arrays": ["name:i", "parent:i", "start:q", "end:q"],
                  "meta": meta or {}}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(f)

    @classmethod
    def load(cls, path) -> tuple["Tracer", dict]:
        tracer = cls()
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            tracer.names = header["names"]
            for column in (tracer.name, tracer.parent, tracer.start, tracer.end):
                column.fromfile(f, header["count"])
        return tracer, header["meta"]


class _Proxy:
    """Stands in for one structure: traced methods, everything else delegated."""

    def __init__(self, target, layer: str, methods, tracer: Tracer) -> None:
        self._target = target
        for method in methods:
            setattr(self, method, tracer.wrap(f"{layer}.{method}", getattr(target, method)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def trace_detector(detector, tracer: Tracer):
    """Put proxies around ``detector``'s structures; returns a traced push."""
    for attr, layer, methods in LAYER_SPANS:
        setattr(detector, attr, _Proxy(getattr(detector, attr), layer, methods, tracer))
    return tracer.wrap("detector.push", detector.push)
