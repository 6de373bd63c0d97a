"""Tracing from outside the program: timed wrappers plus span capture.

The traced run wraps public entry points of each layer (class
attributes, restored on exit) and captures the spans the
program already emits through an extra tracer sink.  Nothing inside
``src/`` changes.  Every interval lands on one ``time.monotonic``
timeline; :func:`rollup` nests them by containment (everything traced
runs on the calling thread) and reports self time per layer plus the
unattributed remainder of the run's wall time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import get_tracer

#: program spans the benchmark reads, and the layer each belongs to
PROGRAM_SPANS = {
    "evaluate": "bench",
    "train": "bench",
    "test": "bench",
    "featurize": "core",
    "stream_chunk": "core",
    "serve": "serve",
    "ingest": "serve",
    "score_chunk": "serve",
}

LAYERS = ("traffic", "net", "analysis", "core", "ml", "bench", "serve")

#: name prefix of the benchmark's own output checks
CHECK_PREFIX = "check."


@dataclass
class Interval:
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.seconds - self.children_s)

    @property
    def layer(self) -> str:
        return PROGRAM_SPANS.get(self.name) or self.name.split(".", 1)[0]


class SpanSink:
    """A tracer sink keeping the named spans, stamped when they end."""

    def __init__(self, names, out: list[Interval], on_span=None) -> None:
        self.names = frozenset(names)
        self.out = out
        self.on_span = on_span

    def emit(self, event: dict) -> None:
        if event.get("kind") == "span" and event["name"] in self.names:
            end = time.monotonic()
            interval = Interval(
                event["name"], end - event["duration_seconds"], end,
                event["attrs"],
            )
            self.out.append(interval)
            if self.on_span is not None:
                self.on_span(interval)


@contextmanager
def capture_spans(names, out: list[Interval], on_span=None):
    """Collect the program's ``names`` spans into ``out`` while open,
    calling ``on_span`` with each as it ends."""
    tracer = get_tracer()
    sink = SpanSink(names, out, on_span)
    tracer.add_sink(sink)
    try:
        yield out
    finally:
        tracer.remove_sink(sink)


class Probe:
    """Timed wrappers around program entry points, and what they saw."""

    def __init__(self) -> None:
        self.intervals: list[Interval] = []
        self.calls: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def timed(self, name: str, fn, on_call=None):
        """``fn`` wrapped to record one interval per call."""
        intervals, calls = self.intervals, self.calls

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            calls[name] += 1
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append(Interval(name, start, time.monotonic()))

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block of the benchmark's own calls."""
        self.calls[name] += 1
        start = time.monotonic()
        try:
            yield
        finally:
            self.intervals.append(
                Interval(name, start, time.monotonic(), attrs)
            )

    def patch(self, owner: type, attr: str, name: str, on_call=None) -> None:
        """Time every call of ``owner.attr`` (a method or classmethod)."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self.replace(
                owner, attr, classmethod(self.timed(name, raw.__func__, on_call))
            )
        else:
            self.replace(owner, attr, self.timed(name, raw, on_call))

    def replace(self, owner: type, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        """Capture program spans for the duration; undo every patch after."""
        try:
            with capture_spans(PROGRAM_SPANS, self.intervals):
                yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(i.seconds for i in self.intervals if i.name == name)

    def named(self, name: str) -> list[Interval]:
        return [i for i in self.intervals if i.name == name]


def rollup(intervals: list[Interval], wall_s: float) -> dict[str, float]:
    """Self time per layer and the unattributed remainder of ``wall_s``.

    Intervals nest by containment: sorted by start (longest first on
    ties), each one's parent is the innermost open interval that has
    not ended before it starts.  A parent's self time is its duration
    minus its direct children's.  Intervals named ``CHECK_PREFIX*`` are
    the benchmark's own output checks: they, everything under them and
    their wall time are left out.
    """
    ordered = sorted(intervals, key=lambda i: (i.start, -i.end))
    for interval in ordered:
        interval.children_s = 0.0
    stack: list[tuple[Interval, bool]] = []
    counted: list[Interval] = []
    excluded_s = 0.0
    for interval in ordered:
        while stack and interval.start >= stack[-1][0].end:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        if stack:
            stack[-1][0].children_s += interval.seconds
        skip = inside or interval.name.startswith(CHECK_PREFIX)
        if skip and not inside:
            excluded_s += interval.seconds
        if not skip:
            counted.append(interval)
        stack.append((interval, skip))
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for interval in counted:
        key = f"{interval.layer}.self_s"
        if key in out:
            out[key] += interval.self_s
    out["unattributed_s"] = max(
        0.0, wall_s - excluded_s - sum(out.values())
    )
    return out
