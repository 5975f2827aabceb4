"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the
library's public functions; nothing inside the library is instrumented.
A span holds its name, start and end (perf_counter seconds), the index of
the span that was open when it started, and the instance it belongs to.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["Span", "Tracer", "call", "count", "self_times", "summarize"]


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    instance: int | None
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Records one span per call made through `call`, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.instance: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, self.instance)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def call(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call `fn` inside a span named `name`, or plainly when not tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def count(tracer: Tracer | None, name: str, amount: int) -> None:
    if tracer is not None:
        tracer.counters[name] += int(amount)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self time (ms), median self time per call (us)."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name].append(own)
    return {
        name: {
            "calls": len(values),
            "self_ms": float(np.sum(values)) * 1e3,
            "us_p50": float(np.median(values)) * 1e6,
        }
        for name, values in by_name.items()
    }
