"""Span recording for the traced run, and the reducer that reads the spans.

The traced run wraps public functions of the serving stack from outside
(see ``server.py``): each wrapped call records one span ``(span_id,
parent_id, request_id, name, start, end)`` in memory; the spans are
written out once, at shutdown, as JSON lines.  A span's parent is the
innermost wrapped call still open on the same thread; a span with no
parent starts a new request, whose id every descendant inherits.

The reducer turns spans into per-layer numbers.  A span's *self time*
is its duration minus the part of its interval that its child spans
cover, so the self times of one request's spans sum to the duration of
its root span (see ``test_spans.py``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from pathlib import Path

#: The span every translate request starts with (see ``server.py``).
ROOT_SPAN = "gateway.translate"


class SpanRecorder:
    """Collects spans, call counters and noted values from wrapped functions.

    Shared state changes only by ``list.append`` and ``next()`` on an
    ``itertools.count``, which the interpreter lock makes atomic, and
    counters are kept per thread, so request threads record without
    taking a lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._counter_names: list[str] = []
        self._thread_counts: list[dict] = []
        self._noted: dict[str, list] = {}
        self._mark: dict = {"time": 0.0, "counters": {}}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func, on_result=None):
        """``func`` wrapped so every call records a span named ``name``.

        ``on_result(recorder, request_id, result)`` runs after a
        successful call, to note facts about what the layer returned.
        """
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            if stack:
                parent_id, request_id = stack[-1]
            else:
                parent_id, request_id = 0, span_id
            stack.append((span_id, request_id))
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(
                    (span_id, parent_id, request_id, name, start, end)
                )
            if on_result is not None:
                on_result(self, request_id, result)
            return result

        return wrapper

    def count(self, name: str, func):
        """``func`` wrapped so every call adds one to counter ``name``."""
        self._counter_names.append(name)
        local = self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = getattr(local, "counts", None)
            if counts is None:
                counts = local.counts = {}
                self._thread_counts.append(counts)
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    def note(self, name: str, request_id: int, value) -> None:
        """Keep ``(request_id, value)`` under ``name``."""
        self._noted.setdefault(name, []).append((request_id, value))

    def counters(self) -> dict[str, int]:
        """Every counter summed over threads (read while requests are idle)."""
        return {
            name: sum(counts.get(name, 0) for counts in self._thread_counts)
            for name in self._counter_names
        }

    def mark(self) -> None:
        """Remember now and the counters, as the start of the measured phase."""
        self._mark = {"time": time.perf_counter(), "counters": self.counters()}

    def write(self, path: str | Path) -> None:
        """Spans as JSON lines, then one line with the mark, counters, notes."""
        extras = {
            "mark": self._mark,
            "counters": self.counters(),
            "noted": self._noted,
        }
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")
            out.write(json.dumps(extras))
            out.write("\n")


def read_spans(path: str | Path) -> tuple[list[tuple], dict]:
    """Inverse of :meth:`SpanRecorder.write`: ``(spans, extras)``."""
    spans: list[tuple] = []
    extras: dict = {}
    with open(path, encoding="utf-8") as source:
        for line in source:
            record = json.loads(line)
            if isinstance(record, dict):
                extras = record
            else:
                spans.append(tuple(record))
    return spans, extras


def _covered(interval: tuple[float, float], children: list) -> float:
    """Length of ``interval`` covered by the union of child intervals."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end))
        for start, end in children
        if end > low and start < high
    )
    covered = 0.0
    cursor = low
    for start, end in clipped:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def self_times(spans: list[tuple]) -> list[tuple[tuple, float]]:
    """``(span, self_seconds)`` for every span."""
    children: dict[int, list] = {}
    for span_id, parent_id, _, _, start, end in spans:
        if parent_id:
            children.setdefault(parent_id, []).append((start, end))
    return [
        (span, (span[5] - span[4]) - _covered(
            (span[4], span[5]), children.get(span[0], ())
        ))
        for span in spans
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q)))
    return ordered[rank - 1]


def layer_summary(spans: list[tuple], root: str) -> dict:
    """Per-name call counts and self-time statistics, in milliseconds.

    Also reports, over the requests rooted at a ``root`` span, how far
    the sum of their spans' self times strays from their root durations
    (``sum_error_ms_max``): the accounting identity the per-layer table
    rests on.
    """
    by_name: dict[str, list[float]] = {}
    by_request: dict[int, float] = {}
    root_duration: dict[int, float] = {}
    for span, own in self_times(spans):
        span_id, parent_id, request_id, name, start, end = span
        by_name.setdefault(name, []).append(own * 1000.0)
        by_request[request_id] = by_request.get(request_id, 0.0) + own
        if not parent_id and name == root:
            root_duration[request_id] = end - start
    layers = {
        name: {
            "calls": len(values),
            "self_ms_p50": percentile(values, 0.50),
            "self_ms_p99": percentile(values, 0.99),
            "self_ms_total": sum(values),
        }
        for name, values in sorted(by_name.items())
    }
    errors = [
        abs(by_request[request_id] - duration) * 1000.0
        for request_id, duration in root_duration.items()
    ]
    return {
        "layers": layers,
        "requests": len(root_duration),
        "sum_error_ms_max": max(errors, default=0.0),
    }
