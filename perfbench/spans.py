"""In-memory span recording and the arithmetic that turns spans into layer times.

A span is one call at a layer boundary: its layer name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (-1 at the
top) and a request id, here the (check, fixture) pair being run.  The
recorder is single-threaded: the traced run executes its selection serially
in one process, so spans nest strictly.

Two derived quantities:

* self time of a span: its duration minus the part of its interval that its
  child spans cover;
* total time of a layer: the union of the intervals of its outermost spans,
  i.e. spans with no ancestor of the same layer, so a recursive or
  re-entrant layer is not counted twice.
"""

from __future__ import annotations

import gzip
from time import perf_counter


class Tracer:
    """Columnar span store; ``open`` and ``close`` bracket one call."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.request = None
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            request=None) -> int:
        """Record a finished span directly (used by tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.requests.append(request)
        return len(self.names) - 1

    def write(self, path) -> None:
        """Write all spans as gzip'd tab-separated text, one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trequest\n")
            for i, name in enumerate(self.names):
                req = self.requests[i]
                req_s = "/".join(req) if req else "-"
                fh.write(f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                         f"{self.parents[i]}\t{req_s}\n")


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(tr: Tracer) -> list[float]:
    """Per-span duration minus the union of its children, clipped to it."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(tr.parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(tr)):
        s, e = tr.starts[i], tr.ends[i]
        kids = children.get(i)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(tr.starts[k], s), min(tr.ends[k], e))
                for k in kids if tr.ends[k] > s and tr.starts[k] < e
            )
        out.append(e - s - covered)
    return out


def outermost(tr: Tracer) -> list[bool]:
    """True for spans that have no ancestor of the same layer.

    Parents are recorded before their children, so one forward pass carries
    the set of ancestor layers down the tree as a bit mask.
    """
    bit: dict[str, int] = {}
    masks: list[int] = []
    out: list[bool] = []
    for i, name in enumerate(tr.names):
        b = bit.setdefault(name, 1 << len(bit))
        p = tr.parents[i]
        above = (masks[p] | bit[tr.names[p]]) if p >= 0 else 0
        masks.append(above)
        out.append(not (above & b))
    return out


def layer_table(tr: Tracer) -> dict[str, dict]:
    """Per layer: span count, summed self time and total (outermost union)."""
    selfs = self_times(tr)
    outer = outermost(tr)
    table: dict[str, dict] = {}
    intervals: dict[str, list] = {}
    for i, name in enumerate(tr.names):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if outer[i]:
            intervals.setdefault(name, []).append((tr.starts[i], tr.ends[i]))
    for name, ivs in intervals.items():
        table[name]["total_s"] = union_length(ivs)
    return table
