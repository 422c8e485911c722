"""In-memory spans for the traced run, recorded from the benchmark's code.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``None`` at the root) and ``op`` the id of the
operation it belongs to.  Spans stay in memory until the run ends; a
layer's self time is its spans' durations minus the parts their child
spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator

__all__ = ["Span", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    op: "str | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Handle:
    """Lets the code inside a span rename it once it knows more."""

    def __init__(self, name: str) -> None:
        self.name = name


class Tracer:
    """Collects spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: "str | None" = None

    @contextmanager
    def span(self, name: str, op: "str | None" = None) -> Iterator[_Handle]:
        """Time the enclosed block as span ``name``.

        ``op`` starts a new operation id; nested spans inherit it.  The
        yielded handle's ``name`` may be changed inside the block.
        """
        handle = _Handle(name)
        parent = self._stack[-1] if self._stack else None
        prev_op = self._op
        if op is not None:
            self._op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield handle
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(handle.name, start, end, parent, self._op)
            self._op = prev_op

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[str, float]:
        """Span name -> total self time in seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s is not None and s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(spans):
            if s is not None:
                out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[i]
        return out

    def write(self, path: Path) -> None:
        """Dump the spans as Chrome trace-event JSON (µs since the first span)."""
        spans = self.finished()
        t0 = min((s.start for s in spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {"id": i, "parent": s.parent, "op": s.op},
            }
            for i, s in enumerate(self.spans) if s is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class NullTracer:
    """Tracing off: spans and counters cost one call and record nothing."""

    @contextmanager
    def span(self, name: str, op: "str | None" = None) -> Iterator[_Handle]:
        yield _Handle(name)

    def count(self, name: str, value: float = 1) -> None:
        pass
