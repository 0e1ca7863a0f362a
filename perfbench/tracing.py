"""In-memory spans and the summary statistics of the benchmark harness.

A :class:`Tracer` records one span per timed call: its name, start and
end (``time.perf_counter`` seconds), the span that encloses it on the
same thread, and the request id it belongs to.  Spans stay in memory
until the run ends.  :data:`NULL_TRACER` has the same interface and
records nothing; the untraced run passes it, so both runs execute the
same harness code.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    request: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_ids = itertools.count(1)

    def new_request(self) -> int:
        """A fresh id shared by the spans of one request."""
        return next(self._request_ids)

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, request))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent, request)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name``."""
        return sum(span.seconds for span in self.named(name))

    def self_seconds(self, name: str) -> List[float]:
        """Per span called ``name``: its seconds minus its children's.

        This is the part of an operation no layer span accounts for.
        """
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        return [
            span.seconds - children.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span.name == name
        ]


class _NullTracer:
    enabled = False
    _null = nullcontext()

    def new_request(self) -> None:
        return None

    def span(self, name: str, request: Optional[int] = None):
        return self._null


NULL_TRACER = _NullTracer()


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples.

    Uses the inclusive method, so with few samples the result stays
    inside the observed range.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
