"""Measurement helpers of the mediator benchmark.

Four pieces, each kept free of the mediator so it can be tested alone:

* percentiles — :func:`percentile` and :func:`tail_percentile`, which picks
  the highest percentile of a ladder that still has at least ten samples
  beyond it and reports the sample count beside it;
* spans — :class:`Tracer` records one span per call into a layer (name,
  start, end, parent, query id) in memory, and :func:`self_times` gives each
  span's duration minus the part of it that its children cover, counting
  overlapping children (two source calls in flight at width 2) once;
* host speed — :class:`SpeedProbe` times a fixed pure-Python kernel
  between measurements, so a CPU-bound timing can be rescaled to the
  fastest host speed seen in the run;
* the latency model — :class:`LatencyModel` and :class:`BenchSource`, a
  source wrapper that really sleeps for a deterministic round trip plus a
  per-row transfer cost after each call.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

#: Percentiles :func:`tail_percentile` may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile of *samples*, linearly interpolated."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, pct: float) -> int:
    """How many of *n* samples lie beyond the *pct*-th percentile."""
    return math.floor(n * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(samples: Sequence[float]) -> "tuple[float, float, int] | None":
    """``(pct, value, n)`` for the highest percentile of
    :data:`PERCENTILE_LADDER` that has at least :data:`MIN_BEYOND` of the
    *n* samples beyond it; ``None`` when even the lowest rung has too few."""
    n = len(samples)
    eligible = [pct for pct in PERCENTILE_LADDER if samples_beyond(n, pct) >= MIN_BEYOND]
    if not eligible:
        return None
    pct = max(eligible)
    return pct, percentile(samples, pct), n


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


@dataclass
class Span:
    """One call into a layer, as the benchmark's wrappers saw it."""

    id: int
    name: str
    query: int
    parent: "int | None"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (children may overlap each other)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if min(end, span.end) > max(start, span.start)
        ]
        result[span.id] = span.duration - covered(clipped)
    return result


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    With one client, every call made while query *i* runs belongs to query
    *i*.  A span's parent is the innermost open span on its own thread or,
    on an executor thread with nothing open, the running query's root span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: "int | None" = None
        self._query = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Record one span; the yielded dict becomes its attributes."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            self._query,
            stack[-1] if stack else self._root,
            time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span_id)
        try:
            yield span.attrs
        finally:
            stack.pop()
            span.end = time.perf_counter()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def root(self, name: str, query: int, **attrs: Any) -> Iterator[dict]:
        """The root span of query *query*; calls on any thread nest under it."""
        self._query = query
        with self.span(name, **attrs) as span_attrs:
            self._root = self._stack()[-1]
            try:
                yield span_attrs
            finally:
                self._root = None

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """*function* with every call recorded as a span called *name*."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def dump(self, path: Any) -> None:
        """Write the spans as JSON lines, once, when the run ends."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                record = {
                    "id": span.id,
                    "name": span.name,
                    "query": span.query,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    **span.attrs,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def speed_kernel(iterations: int = 16000) -> int:
    """Fixed pure-Python work of the mediator's kind: tuples, strings, a dict."""
    table: dict = {}
    total = 0
    for i in range(iterations):
        key = (i % 101, str(i % 37))
        table[key] = table.get(key, 0) + 1
        total += len(key[1])
    return total + len(table)


class SpeedProbe:
    """The host's speed over a run, sampled with :func:`speed_kernel`.

    On a shared host the same Python code runs up to twice as slowly in
    some stretches of a minute as in others.  :meth:`probe` times the
    kernel; :meth:`factor` is the kernel's fastest time in the run divided
    by its mean time in the probes just before and just after a
    measurement.  A CPU-bound time multiplied by it is that time at the
    run's best host speed.
    """

    def __init__(
        self,
        kernel: Callable[[], Any] = speed_kernel,
        repeats: int = 3,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._kernel = kernel
        self._repeats = repeats
        self._clock = clock
        self._at: list[float] = []
        self._seconds: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        """Time the kernel now."""
        started = self._clock()
        for __ in range(self._repeats):
            self._kernel()
        self.last = self._clock()
        self._at.append((started + self.last) / 2)
        self._seconds.append(self.last - started)

    def factor(self, start: float, end: float) -> float:
        """Scale for a measurement that ran from *start* to *end*."""
        if not self._seconds:
            raise ValueError("no speed probes were taken")
        before = bisect.bisect_left(self._at, start) - 1
        after = bisect.bisect_right(self._at, end)
        around = [self._seconds[i] for i in (before, after) if 0 <= i < len(self._seconds)]
        return min(self._seconds) / (sum(around) / len(around))


@dataclass(frozen=True)
class LatencyModel:
    """A remote source's delay: a fixed round trip plus a per-row cost."""

    round_trip_s: float
    per_row_s: float

    def delay(self, rows: int) -> float:
        return self.round_trip_s + self.per_row_s * rows


class BenchSource:
    """A source as the benchmark exposes it to the mediator.

    Forwards everything to *inner*.  With a *latency* model each call
    sleeps after the source answers, for a delay that depends only on the
    rows it shipped, so identical calls wait identically.  With a *tracer*
    the in-process execution and the injected wait become separate spans.
    """

    def __init__(
        self,
        inner: Any,
        latency: "LatencyModel | None" = None,
        tracer: "Tracer | None" = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._inner = inner
        self._latency = latency
        self._tracer = tracer
        self._sleep = sleep

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def execute(self, query: Any) -> Any:
        tracer = self._tracer
        if tracer is None:
            result = self._inner.execute(query)
        else:
            with tracer.span("sources.execute") as attrs:
                result = self._inner.execute(query)
                attrs["rows"] = len(result)
        if self._latency is not None:
            delay = self._latency.delay(len(result))
            if tracer is None:
                self._sleep(delay)
            else:
                with tracer.span("sources.wait", delay=delay):
                    self._sleep(delay)
        return result
