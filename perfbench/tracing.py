"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent).  Names are ``<layer>.<operation>`` with
the package module as the layer (``data``, ``model``, ``training``,
``evaluation``) or ``bench`` for the benchmark's own grouping spans, so a
later rename of a function inside the package does not rename a span.
Spans live in a list until the run ends and are then written out once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span called ``name``, in start order."""
        return [end - start for n, start, end, _ in self.spans if n == name and end is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def write(self, path, meta: dict) -> None:
        """Write every span, relative to the first one's start, plus ``meta``."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": n, "start_s": s - t0, "end_s": (e - t0) if e is not None else None, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "self_time_s": self.self_times(), "spans": spans}, f)
