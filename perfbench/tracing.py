"""In-memory spans, self time, and the tail-percentile rule.

Spans are recorded by benchmark code only, around calls into each
layer's public functions; nothing under ``src/`` is instrumented. A
disabled tracer records nothing, so the untraced and traced runs share
one code path.
"""
from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class Tracer:
    """Records nested spans (single-threaded) while ``enabled``."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter(), math.nan, parent, self.request)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and total self time (s)."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += selfs[s.id]
    return out


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]


def tail_percentile(
    values: list[float], beyond: int = 10
) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic that still has
    at least ``beyond`` samples above it, or None when that statistic is
    not above the median (fewer than ``2 * beyond + 1`` samples), where it
    would not describe a tail.

    The k-th smallest of n samples is reported as percentile 100 * k / n.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - beyond  # ordered[k - 1] has exactly n - k samples after it
    if 2 * k <= n:
        return None
    return 100.0 * k / n, ordered[k - 1]
