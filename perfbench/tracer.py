"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the program by replacing module (or
class, or dict) attributes with timing wrappers; nothing in the program
itself is changed. Each span keeps its name, start, end and the index of
the span that was open when it began, in flat arrays so that hundreds of
thousands of spans stay small in memory. Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from dataclasses import dataclass


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def traced(self, func, name: str):
        """``func`` wrapped so that every call records one span called ``name``."""
        nid = self._intern(name)
        ids, starts, ends, parents, open_, clock = (
            self.name_id, self.start, self.end, self.parent, self._open, self.clock
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until :meth:`restore`."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.patch(owner, attr, self.traced(current, name))

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.name_id)

    def count(self, name: str, lo: int = 0, hi: int | None = None) -> int:
        """Spans called ``name`` among spans ``lo:hi``."""
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name_id[lo:hi].count(nid)

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, LayerTotals]:
        """Calls, total and self seconds per span name over spans ``lo:hi``.

        The range must hold whole trees: a child never lies outside the range
        of its parent, which holds for the spans of consecutive whole runs.
        """
        hi = len(self) if hi is None else hi
        child_s = [0.0] * (hi - lo)
        for idx in range(lo, hi):
            p = self.parent[idx]
            if p >= lo:
                child_s[p - lo] += self.end[idx] - self.start[idx]
        out: dict[str, LayerTotals] = {}
        for idx in range(lo, hi):
            name = self.names[self.name_id[idx]]
            dur = self.end[idx] - self.start[idx]
            t = out.setdefault(name, LayerTotals())
            t.calls += 1
            t.total_s += dur
            t.self_s += dur - child_s[idx - lo]
        return out

    def root_seconds(self, lo: int = 0, hi: int | None = None) -> float:
        """Summed duration of the spans in ``lo:hi`` that have no parent."""
        hi = len(self) if hi is None else hi
        return sum(
            self.end[i] - self.start[i] for i in range(lo, hi) if self.parent[i] < 0
        )

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated ``index name start end parent`` lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for idx in range(len(self)):
                fh.write(
                    f"{idx}\t{names[self.name_id[idx]]}\t{self.start[idx]:.9f}"
                    f"\t{self.end[idx]:.9f}\t{self.parent[idx]}\n"
                )
