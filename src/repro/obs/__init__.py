"""Structured observability: traces + metrics for the compression pipeline.

One :class:`Observation` bundles a span :class:`~repro.obs.tracer.Tracer`
and a :class:`~repro.obs.metrics.MetricsRegistry` for a single observed
operation (a compress call, a bench run, a transfer).  Activate it with
:func:`observe`; every instrumentation hook in the hot path then records
into it:

>>> from repro import obs
>>> ob = obs.Observation()
>>> with obs.observe(ob):
...     compressor.compress(data)
>>> ob.tracer.stage_seconds()["huffman"]      # doctest: +SKIP

Hot-path contract
-----------------
Instrumentation points are ``with obs.span("huffman"): ...`` (or
``obs.add_bytes``/``obs.event``/``obs.metric_*``).  When no observation is
active every hook is a no-op costing one module-global read and an
``is None`` test — :func:`span` returns a shared do-nothing handle, so
production paths pay nothing for being observable.  Activating an
observation never changes any compressed bytes; hooks only watch timings
and sizes (enforced by the golden byte-identity tests).

Fork-pool survival
------------------
Worker processes cannot write into the parent's buffers.  A worker instead
activates its own Observation, runs the job, and ships
:meth:`Observation.to_payload` back with the result; the parent calls
:meth:`Observation.merge_payload` in job-submission order, so the combined
trace is deterministic (see ``repro.parallel``).

The tracer is the stack's single timing source of truth.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from .metrics import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .timing import Stopwatch, throughput_mbs
from .tracer import Span, TraceEvent, Tracer

__all__ = [
    "Stopwatch",
    "throughput_mbs",
    "Observation",
    "observe",
    "current",
    "span",
    "event",
    "add_bytes",
    "metric_count",
    "metric_seconds",
    "traced",
    "Tracer",
    "Span",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SECONDS_BUCKETS",
    "BYTES_BUCKETS",
]

#: histogram of every span's duration, labelled by span name, recorded
#: automatically as spans close
SPAN_HISTOGRAM = "span.seconds"
#: counter family for byte flow through a named stage
BYTES_COUNTER = "stage.bytes"


class Observation:
    """A tracer + metrics registry observing one operation."""

    __slots__ = ("tracer", "metrics", "_span_hists")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        span_histograms: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._span_hists: dict[str, Histogram] = {}
        on_close = self._observe_span if span_histograms else None
        self.tracer = tracer if tracer is not None else Tracer(on_close=on_close)

    def _observe_span(self, span: Span) -> None:
        # runs on every span close — cache the per-name histogram instrument
        # so the hot path skips the registry's sorted-label key construction
        h = self._span_hists.get(span.name)
        if h is None:
            h = self.metrics.histogram(
                SPAN_HISTOGRAM, SECONDS_BUCKETS, span=span.name
            )
            self._span_hists[span.name] = h
        h.observe(span.seconds)

    # -- convenience recording ----------------------------------------------

    def add_bytes(self, stage: str, nbytes: int) -> None:
        self.metrics.counter(BYTES_COUNTER, stage=stage).inc(int(nbytes))

    def bytes_seen(self) -> dict[str, int]:
        """``stage -> total bytes`` view over the byte-flow counters."""
        out: dict[str, int] = {}
        for (name, labels), inst in self.metrics._instruments.items():
            if name == BYTES_COUNTER and len(labels) == 1 and labels[0][0] == "stage":
                out[labels[0][1]] = int(inst.value)
        return out

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Full deterministic-structure dump (spans, events, metrics)."""
        return {
            "spans": [s.to_dict() for s in self.tracer.spans],
            "events": [e.to_dict() for e in self.tracer.events],
            "metrics": self.metrics.snapshot(),
        }

    def stage_report(self, nbytes: int | None = None) -> dict[str, Any]:
        """Flat per-stage seconds/bytes/throughput (the bench/perf schema)."""
        totals = self.tracer.stage_seconds()
        seen = self.bytes_seen()
        stages: dict[str, Any] = {}
        for name in sorted(set(totals) | set(seen)):
            seconds = totals.get(name, 0.0)
            entry: dict[str, Any] = {"seconds": seconds}
            if name in seen:
                entry["bytes"] = seen[name]
            if nbytes is not None and seconds > 0:
                entry["mb_per_s"] = throughput_mbs(nbytes, seconds)
            stages[name] = entry
        return {
            "stages": stages,
            "total_s": sum(totals.values()),
            "span_count": len(self.tracer.spans),
        }

    # -- fork-pool buffers --------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """Serialize this observation for transport out of a worker."""
        payload = self.tracer.to_payload()
        payload["metrics"] = self.metrics.to_payload()
        return payload

    def merge_payload(self, payload: dict[str, Any] | None, worker: str) -> None:
        """Fold a worker's buffers into this observation (see module docs)."""
        if not payload:
            return
        self.tracer.merge_payload(payload, worker)
        self.metrics.merge_payload(payload.get("metrics", ()))


class _NullHandle:
    """Shared no-op span handle for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False

    def label(self, **labels: Any) -> "_NullHandle":
        return self


_NULL = _NullHandle()

#: the active observation (None = observability off, every hook is a no-op).
#: A :class:`~contextvars.ContextVar` rather than a module global so the
#: streaming thread pipeline can give each slab worker its own Observation
#: without racing the main thread's tracer ``_stack`` (new threads start
#: with a fresh context, i.e. observability off until the worker activates
#: its per-slab observation — see ``repro.streaming``).
_ACTIVE: ContextVar[Observation | None] = ContextVar("repro_obs_active", default=None)


def current() -> Observation | None:
    return _ACTIVE.get()


@contextmanager
def observe(observation: Observation | None = None) -> Iterator[Observation]:
    """Activate ``observation`` (or a fresh one) for the duration of the
    block.  Re-entrant: the previous observation is restored on exit."""
    ob = observation if observation is not None else Observation()
    token = _ACTIVE.set(ob)
    try:
        yield ob
    finally:
        _ACTIVE.reset(token)


def span(name: str, **labels: Any):
    """Hot-path hook: time the enclosed block as a nested span.

    Free when no observation is active (one context-var read, shared
    no-op)."""
    ob = _ACTIVE.get()
    if ob is None:
        return _NULL
    return ob.tracer.span(name, **labels)


def event(name: str, **labels: Any) -> None:
    """Record a point event (retry fired, slice quarantined, ...)."""
    ob = _ACTIVE.get()
    if ob is not None:
        ob.tracer.event(name, **labels)


def add_bytes(stage: str, nbytes: int) -> None:
    """Record ``nbytes`` flowing through ``stage`` (no-op when off)."""
    ob = _ACTIVE.get()
    if ob is not None:
        ob.add_bytes(stage, nbytes)


def metric_count(name: str, n: int = 1, **labels: Any) -> None:
    """Bump a labelled counter by ``n`` (no-op when off)."""
    ob = _ACTIVE.get()
    if ob is not None:
        ob.metrics.counter(name, **labels).inc(n)


def metric_seconds(name: str, seconds: float, **labels: Any) -> None:
    """Record a duration into a labelled seconds-histogram (no-op when off)."""
    ob = _ACTIVE.get()
    if ob is not None:
        ob.metrics.histogram(name, SECONDS_BUCKETS, **labels).observe(seconds)


def traced(name: str | None = None, **labels: Any):
    """Decorator: wrap a function in a span named after it (or ``name``)."""

    def deco(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ob = _ACTIVE.get()
            if ob is None:
                return fn(*args, **kwargs)
            with ob.tracer.span(span_name, **labels):
                return fn(*args, **kwargs)

        return wrapper

    return deco
