"""Span-based tracer: nested monotonic-clock spans with labels.

A *span* is one timed region of the pipeline (``compress``, ``predict``,
``huffman``...).  Spans nest: entering a span while another is open records
the parent/depth relationship, so an exported trace reconstructs the call
tree exactly — which stage ran inside which operation, in what order.

Design constraints (see docs/observability.md):

* **Monotonic clock.**  All timestamps come from ``time.perf_counter`` and
  are stored relative to the tracer's epoch, so traces are immune to wall
  clock adjustments and offsets are meaningful within one trace.
* **Cheap when on, free when off.**  ``Tracer.span`` allocates one slotted
  handle and reads the clock twice; the *module-level* guard that makes the
  hot path free when tracing is disabled lives in :mod:`repro.obs` (one
  global read, one ``is None`` test, shared no-op handle).
* **Fork-pool survival.**  A worker process records into its own tracer,
  serializes it with :meth:`Tracer.to_payload`, and the parent merges the
  buffer with :meth:`Tracer.merge_payload` — spans keep their internal
  ordering and nesting, gain a ``worker`` tag, and hang under whatever span
  was open in the parent at merge time.  Merging in job-submission order
  makes the combined trace deterministic regardless of pool scheduling.
"""
from __future__ import annotations

import functools
import time
from typing import Any, Callable

__all__ = ["Span", "TraceEvent", "Tracer"]


class Span:
    """One completed (or still-open) timed region.

    Doubles as its own context-manager handle (``with tracer.span(...)``)
    so the hot path allocates exactly one object per span.
    """

    __slots__ = (
        "name",
        "index",
        "parent",
        "depth",
        "start",
        "end",
        "labels",
        "worker",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        index: int,
        parent: int,
        depth: int,
        start: float,
        end: float | None = None,
        labels: dict[str, Any] | None = None,
        worker: str | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.index = index
        self.parent = parent  # index of the enclosing span, -1 for roots
        self.depth = depth
        self.start = start  # seconds since the tracer epoch
        self.end = end
        self.labels = labels
        self.worker = worker
        self._tracer = tracer

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._close(self)
        return False

    def label(self, **labels: Any) -> "Span":
        """Attach labels after entry (e.g. an output size known at the end)."""
        if self.labels is None:
            self.labels = labels
        else:
            self.labels.update(labels)
        return self

    @property
    def seconds(self) -> float:
        """Duration; 0.0 while the span is still open."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "t0": self.start,
            "seconds": self.seconds,
        }
        if self.labels:
            d["labels"] = dict(self.labels)
        if self.worker is not None:
            d["worker"] = self.worker
        return d


class TraceEvent:
    """A point-in-time occurrence (retry fired, slice quarantined, ...)."""

    __slots__ = ("name", "time", "parent", "labels", "worker")

    def __init__(
        self,
        name: str,
        time_s: float,
        parent: int,
        labels: dict[str, Any] | None = None,
        worker: str | None = None,
    ) -> None:
        self.name = name
        self.time = time_s
        self.parent = parent
        self.labels = labels
        self.worker = worker

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "t": self.time, "parent": self.parent}
        if self.labels:
            d["labels"] = dict(self.labels)
        if self.worker is not None:
            d["worker"] = self.worker
        return d


class Tracer:
    """Collects spans and events for one observed operation."""

    __slots__ = ("spans", "events", "epoch", "_stack", "_on_close")

    def __init__(self, on_close: "Callable[[Span], None] | None" = None) -> None:
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self.epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._on_close = on_close

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **labels: Any) -> Span:
        """Open a nested span; use as ``with tracer.span("huffman"): ...``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        s = Span(
            name,
            index=len(self.spans),
            parent=-1 if parent is None else parent.index,
            depth=len(stack),
            start=time.perf_counter() - self.epoch,
            labels=labels or None,
            tracer=self,
        )
        self.spans.append(s)
        stack.append(s)
        return s

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self.epoch
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            # tolerate mis-nested exits (an inner span leaked by an exception
            # path): pop back to the closing span instead of corrupting the
            # stack
            while stack:
                if stack.pop() is span:
                    break
        if self._on_close is not None:
            self._on_close(span)

    def event(self, name: str, **labels: Any) -> None:
        """Record a point event under the currently open span."""
        parent = self._stack[-1].index if self._stack else -1
        self.events.append(
            TraceEvent(
                name,
                time.perf_counter() - self.epoch,
                parent,
                labels or None,
            )
        )

    def trace(self, name: str | None = None, **labels: Any):
        """Decorator form: time every call of the wrapped function."""

        def deco(fn):
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name, **labels):
                    return fn(*args, **kwargs)

            return wrapper

        return deco

    # -- aggregation --------------------------------------------------------

    def stage_seconds(self) -> dict[str, float]:
        """Total seconds per span name (the flat per-stage view the bench
        harness reports)."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if s.end is not None:
                totals[s.name] = totals.get(s.name, 0.0) + s.seconds
        return totals

    def self_seconds(self) -> dict[str, float]:
        """Seconds per span name net of its children: each span's time
        minus that of the spans opened directly inside it on the same
        worker (a merged worker's spans ran beside the span they hang
        under, not inside its time).  Nested stages are counted once — a
        tuner's trial ``predict``/``quantize`` spans under ``autotune``,
        ``tune``, ``scheme`` or ``select`` leave those spans' own time as
        the tuning loop's overhead — and ``compress``'s self time is the
        part of a compress no stage names."""
        spans = self.spans
        inner: dict[int, float] = {}
        for s in spans:
            if s.end is not None and s.parent >= 0:
                if spans[s.parent].worker == s.worker:
                    inner[s.parent] = inner.get(s.parent, 0.0) + s.seconds
        totals: dict[str, float] = {}
        for s in spans:
            if s.end is not None:
                own = s.seconds - inner.get(s.index, 0.0)
                totals[s.name] = totals.get(s.name, 0.0) + own
        return totals

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.name] = counts.get(s.name, 0) + 1
        return counts

    def root_seconds(self) -> float:
        """Total time covered by depth-0 spans (non-overlapping by
        construction in a single-threaded trace)."""
        return sum(s.seconds for s in self.spans if s.depth == 0 and s.end is not None)

    # -- fork-pool buffers --------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Serialize finished spans/events for transport out of a worker.

        Only plain lists/dicts/floats — safe through pickle or JSON.  Times
        stay relative to this tracer's epoch; the receiving side keeps them
        as worker-local offsets (cross-process clock bases are not assumed
        comparable).
        """
        return {
            "spans": [s.to_dict() for s in self.spans if s.end is not None],
            "events": [e.to_dict() for e in self.events],
        }

    def merge_payload(self, payload: dict[str, Any], worker: str) -> None:
        """Graft a worker's span buffer into this trace under the currently
        open span, tagging every record with ``worker``.

        Call once per worker buffer, in job-submission order, so the merged
        trace is deterministic regardless of pool scheduling.
        """
        stack = self._stack
        anchor = stack[-1] if stack else None
        anchor_index = -1 if anchor is None else anchor.index
        anchor_depth = 0 if anchor is None else anchor.depth + 1
        # worker-local span indices may be sparse (open spans are dropped by
        # to_payload), so parents are remapped through an explicit table
        remap: dict[int, int] = {}
        for d in payload.get("spans", ()):
            parent = d.get("parent", -1)
            s = Span(
                d["name"],
                index=len(self.spans),
                parent=remap.get(parent, anchor_index),
                depth=anchor_depth + d.get("depth", 0),
                start=d.get("t0", 0.0),
                end=d.get("t0", 0.0) + d.get("seconds", 0.0),
                labels=dict(d["labels"]) if d.get("labels") else None,
                worker=worker,
            )
            remap[d.get("index", -1)] = s.index
            self.spans.append(s)
            if self._on_close is not None:
                self._on_close(s)
        for d in payload.get("events", ()):
            parent = d.get("parent", -1)
            self.events.append(
                TraceEvent(
                    d["name"],
                    d.get("t", 0.0),
                    remap.get(parent, anchor_index),
                    labels=dict(d["labels"]) if d.get("labels") else None,
                    worker=worker,
                )
            )
