"""In-memory spans recorded around the benchmark's own calls into the package.

A span is ``[id, parent, root, name, start, end]`` with times from
``time.perf_counter``.  ``root`` is the id of the outermost span, so every
span of one request shares it.  Nothing is written until the workload
process ends; nothing in the package is patched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent[0] if parent else None,
               parent[2] if parent else len(self.spans), name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()


def durations(spans) -> dict[str, list[float]]:
    """Span name -> list of durations in seconds."""
    out: dict[str, list[float]] = {}
    for _, _, _, name, start, end in spans:
        out.setdefault(name, []).append(end - start)
    return out


def self_times(spans) -> dict[str, float]:
    """Span name -> total self time: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for sid, _, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child[sid]
    return out


def root_total(spans) -> float:
    """Summed duration of the outermost spans."""
    return sum(end - start for _, parent, _, _, start, end in spans if parent is None)
