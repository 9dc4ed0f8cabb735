"""In-memory spans around the public calls the benchmark makes.

A traced run wraps each public function the benchmark calls, so every
call records a span: name, start, end, parent span, op id, whether it
raised, and any counts taken from its arguments or result.  Spans stay in
memory and are written out once, when the run ends.  An untraced run uses
the raw functions, so it pays nothing for this module.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: Optional[int]
    op: Optional[int]
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; the open spans form a stack, so parents are implicit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: Optional[int] = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Optional[Callable] = None,
        suffix: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``counter(result, args, kwargs)`` returns counts to record on the
        span; ``suffix(args, kwargs)`` extends the span name, e.g. with a
        discrimination mode.
        """

        def traced(*args, **kwargs):
            span = self.open(name if suffix is None else f"{name}.{suffix(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span)
            if counter is not None:
                span.counts = counter(result, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        rows = [
            {
                "id": s.span_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "failed": s.failed,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
            handle.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (a single thread), so the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def op_descendants(spans: list[Span], root_name: str) -> list[bool]:
    """Mark the spans that sit under a span named ``root_name``."""
    inside = [False] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            inside[span.span_id] = inside[parent.span_id] or parent.name == root_name
    return inside
