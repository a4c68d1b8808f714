"""Span recording from outside the program.

A Tracer swaps chosen functions and methods for wrappers that record one span
per call: name, start, end and the span that was open when the call began
(its parent). The program itself is not edited; the wrappers are installed on
the names the calling module looks up (``handover_sim.harness.chain_frames``,
not ``handover_sim.kinematics.chain_frames``), so they see exactly the calls
that module makes, and are removed again when tracing ends.

Spans are kept in flat typed arrays while the run goes and reduced at the end:
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records a span called name."""
        nid = self.name_id(name)
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap (owner, attribute, span name) targets for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Reduced view of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.name = np.frombuffer(tracer.name, dtype=np.int64).copy()
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        self.self_time = self.duration - child_time

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name starts with any of the prefixes."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefixes)]
        return np.isin(self.name, ids)

    def count(self, *prefixes: str) -> int:
        return int(np.count_nonzero(self.mask(*prefixes)))

    def self_total(self, *prefixes: str) -> float:
        return float(np.sum(self.self_time[self.mask(*prefixes)]))

    def durations(self, *prefixes: str) -> np.ndarray:
        return self.duration[self.mask(*prefixes)]
