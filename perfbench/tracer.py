"""In-memory span tracer for the benchmark's traced run.

The traced run measures each layer from outside the program: it wraps
calls into a layer's public functions in spans (name, start, end, parent,
run id) and keeps per-event work as accumulated time plus call counts, so
a million predictor calls cost two counters rather than a million spans.
Spans stay in memory and are written out once, when the run ends.

A span's *layer* is its name up to the first dot (``store.write`` belongs
to ``store``).  A layer's self time is the duration of its spans minus
the part of each span covered by its child spans and by accumulated time
recorded while it was open.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One finished span; ``parent`` is the enclosing span's id."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    tag: str = ""

    @property
    def layer(self) -> str:
        return layer_of(self.name)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Accumulated:
    """Time summed over many calls at one per-event boundary."""

    name: str
    seconds: float
    calls: int
    parent: int | None
    run_id: str
    tag: str = ""


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    reach = lo
    for start, end in clipped:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time_by_layer(spans, accumulated=()) -> dict[str, float]:
    """Seconds each layer spent in itself, net of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    charged: dict[int, float] = {}
    totals: dict[str, float] = {}
    for item in accumulated:
        totals[layer_of(item.name)] = totals.get(layer_of(item.name), 0.0) + item.seconds
        if item.parent is not None:
            charged[item.parent] = charged.get(item.parent, 0.0) + item.seconds
    for span in spans:
        covered = covered_length(children.get(span.span_id, ()), span.start, span.end)
        own = max(0.0, span.duration - covered - charged.get(span.span_id, 0.0))
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


class Tracer:
    """Collects spans and accumulated per-call time for one run.

    Thread-safe: each thread keeps its own stack of open spans (so a
    span's parent is the span open on the same thread), and finished
    records are appended under a lock.
    """

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.accumulated: list[Accumulated] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """Record the enclosed block as one span; ``tag`` defaults to the
        parent's, so a request's spans share the tag of its root."""
        stack = self._stack()
        parent, parent_tag = stack[-1] if stack else (None, "")
        tag = parent_tag if tag is None else tag
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, tag))
        start = self._clock()
        try:
            yield span_id
        finally:
            end = self._clock()
            stack.pop()
            record = Span(span_id, name, start, end, parent, self.run_id, tag)
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, seconds: float, calls: int) -> None:
        """Charge ``seconds`` over ``calls`` calls to the open span."""
        stack = self._stack()
        parent, tag = stack[-1] if stack else (None, "")
        record = Accumulated(name, seconds, calls, parent, self.run_id, tag)
        with self._lock:
            self.accumulated.append(record)

    # ------------------------------------------------------ instrumentation

    def instrument(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that opens span ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstrument(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def instrumented(self, targets):
        """Wrap each ``(owner, attr, span name)`` for the enclosed block."""
        try:
            for owner, attr, name in targets:
                self.instrument(owner, attr, name)
            yield self
        finally:
            self.uninstrument()

    # ------------------------------------------------------------- queries

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Durations of finished spans called ``name`` (with ``tag``)."""
        with self._lock:
            spans = list(self.spans)
        return [
            span.duration
            for span in spans
            if span.name == name and (tag is None or span.tag == tag)
        ]

    def total(self, name: str, tag: str | None = None) -> tuple[float, int]:
        """Accumulated seconds and calls recorded under ``name``."""
        with self._lock:
            items = list(self.accumulated)
        matching = [
            item for item in items if item.name == name and (tag is None or item.tag == tag)
        ]
        return sum(item.seconds for item in matching), sum(item.calls for item in matching)

    def self_times(self) -> dict[str, float]:
        with self._lock:
            return self_time_by_layer(list(self.spans), list(self.accumulated))

    def dump(self, path: Path) -> None:
        """Write every span and accumulator as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            records = [{"kind": "span", **asdict(span)} for span in self.spans]
            records += [{"kind": "accumulated", **asdict(item)} for item in self.accumulated]
        with path.open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")


def maybe_span(tracer: Tracer | None, name: str, tag: str | None = None):
    """``tracer.span(...)`` in the traced run, a no-op context otherwise."""
    return tracer.span(name, tag) if tracer is not None else nullcontext()


def maybe_instrumented(tracer: Tracer | None, targets):
    """``tracer.instrumented(targets)`` in the traced run, a no-op otherwise."""
    return tracer.instrumented(targets) if tracer is not None else nullcontext()
