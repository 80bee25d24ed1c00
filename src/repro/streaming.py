"""Streaming out-of-core execution: slab-parallel compression with bounded
memory.

The in-memory path materializes the full volume, its full quantization
index stream, and the full entropy payload before a byte is written, so
peak RSS is a multiple of the input.  This module walks the volume along
the leading axis in bounded slabs, and each slab is one job on a small
pool of worker threads: the job pages the slab into a recycled
:class:`BufferPool` scratch array and runs ``compressor.compress`` on it,
so every segment is byte-identical to ``compress(slab)`` by construction.
The caller thread appends the finished segments in slab order to the sink
through an incremental :class:`~repro.io.container.ContainerWriter`.

Slabs encode concurrently (the C kernels and zlib release the GIL), and a
slab-sized working set stays inside the last-level cache where the
full-volume pass thrashes it (see docs/performance.md for measurements).
In-flight slabs are capped by a fixed window, so peak memory is
O(slab · window), never O(volume), and the caller's stall time against a
full window is surfaced as the ``stream.backpressure_wait`` metric
(buffer recycling as ``stream.buffer_reuse``).

Decoding runs the other way round over the same window: every segment is
a standalone blob, so each decodes as its own job on the worker threads,
while the caller thread alone reads the container, checks each decoded
slab against the declared geometry and copies it into the output in
segment order.
"""
from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any, BinaryIO

import numpy as np

from . import obs
from .errors import CorruptBlobError
from .io.container import ContainerReader, ContainerWriter

__all__ = [
    "DEFAULT_SLAB_BYTES",
    "BufferPool",
    "StreamResult",
    "plan_slabs",
    "slab_slices",
    "stream_compress",
    "stream_decompress",
]

#: default streaming slab budget.  Chosen so one slab plus the engine's
#: per-slab temporaries (two int64 index copies + interpolation scratch,
#: roughly 5-6x the slab) sits comfortably inside a ~100 MB last-level
#: cache; measured on the large synthetic fields, 8-16 MB slabs are the
#: throughput plateau and 2-3x larger slabs already fall off it.
DEFAULT_SLAB_BYTES = 12 << 20
#: slabs thinner than this interpolate too little context and bloat the
#: per-slab header overhead (same floor as the slab-parallel split)
MIN_SLAB_ROWS = 8


def slab_slices(total: int, n: int) -> list[slice]:
    """Split ``total`` leading-axis rows into ``n`` near-equal slices."""
    n = max(1, min(int(n), int(total)))
    edges = np.linspace(0, total, n + 1).astype(int)
    return [
        slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


def plan_slabs(
    shape: tuple[int, ...],
    dtype: Any,
    slab_bytes: int | None = None,
    min_rows: int = MIN_SLAB_ROWS,
) -> list[slice]:
    """Plan the leading-axis slab walk for a volume of ``shape``/``dtype``.

    Targets ``slab_bytes`` of input per slab (default
    :data:`DEFAULT_SLAB_BYTES`), never thinner than ``min_rows`` rows, and
    evens the remainder out across slabs so no straggler slab is tiny.
    """
    if not shape:
        raise ValueError("cannot plan slabs for a 0-d array")
    rows_total = int(shape[0])
    row_bytes = int(np.dtype(dtype).itemsize) * int(np.prod(shape[1:], dtype=np.int64))
    target = int(slab_bytes) if slab_bytes else DEFAULT_SLAB_BYTES
    if target <= 0:
        raise ValueError(f"slab_bytes must be positive, got {slab_bytes!r}")
    rows = max(int(min_rows), target // max(1, row_bytes))
    n = max(1, -(-rows_total // max(1, rows)))  # ceil
    n = min(n, max(1, rows_total // max(1, int(min_rows))))
    return slab_slices(rows_total, n)


class BufferPool:
    """Reusable numpy scratch arrays keyed by ``(shape, dtype)``.

    ``acquire`` hands back a previously released array of the same
    geometry when one is free, eliminating the per-slab allocate/fault
    cycle (every recycled slab is a ``stream.buffer_reuse{result=hit}``
    metric).  Thread-safe; bounded at ``max_per_key`` retained arrays per
    geometry so odd-sized tail slabs cannot pin memory.
    """

    def __init__(self, max_per_key: int = 4) -> None:
        self._free: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._max_per_key = int(max_per_key)
        self.hits = 0
        self.misses = 0

    def acquire(self, shape: tuple[int, ...], dtype: Any) -> np.ndarray:
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        with self._lock:
            free = self._free.get(key)
            buf = free.pop() if free else None
            if buf is not None:
                self.hits += 1
            else:
                self.misses += 1
        if buf is not None:
            obs.metric_count("stream.buffer_reuse", result="hit")
            return buf
        obs.metric_count("stream.buffer_reuse", result="miss")
        return np.empty(key[0], dtype=np.dtype(dtype))

    def release(self, buf: np.ndarray) -> None:
        key = (tuple(buf.shape), buf.dtype.str)
        with self._lock:
            free = self._free.setdefault(key, [])
            if len(free) < self._max_per_key:
                free.append(buf)

    def stats(self) -> dict[str, int]:
        with self._lock:
            retained = sum(len(v) for v in self._free.values())
        return {"hits": self.hits, "misses": self.misses, "retained": retained}


@dataclass
class StreamResult:
    """Summary returned by :func:`stream_compress`."""

    compressor: str
    shape: tuple[int, ...]
    dtype: str
    axis: int
    segments: int
    payload_bytes: int
    total_bytes: int
    input_bytes: int
    backpressure_wait_s: float
    buffer_reuse: dict[str, int]

    @property
    def ratio(self) -> float:
        return self.input_bytes / max(1, self.total_bytes)


def _default_workers() -> int:
    """Worker threads of the streamed and slab-parallel paths: the CPUs
    this process may run on (affinity-aware), capped at 4; one on the
    numpy path, whose Python loops hold the GIL."""
    from . import kernels

    if kernels.native() is None:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


class _JobObservation:
    """The per-job observation hand-off of the worker-thread paths.

    Worker threads start with observability off.  When the caller has an
    observation active, each job records into a fresh one (:meth:`run`,
    on the worker) and ships its ``to_payload()`` back with the result;
    the caller merges the payloads in job order (:meth:`merge`), so the
    combined trace is deterministic however the threads were scheduled.
    """

    def __init__(self) -> None:
        self.parent = obs.current()

    def run(self, fn: Any, *args: Any) -> tuple[Any, dict | None]:
        if self.parent is None:
            return fn(*args), None
        ob = obs.Observation()
        with obs.observe(ob):
            result = fn(*args)
        return result, ob.to_payload()

    def merge(self, payload: dict | None, worker: str) -> None:
        if self.parent is not None:
            self.parent.merge_payload(payload, worker=worker)


def stream_compress(
    compressor: Any,
    data: np.ndarray,
    sink: BinaryIO,
    *,
    slab_bytes: int | None = None,
    checksum: bool = False,
) -> StreamResult:
    """Compress ``data`` (array or memmap) into ``sink`` slab by slab.

    Each slab is one job on a pool of ``_default_workers()``
    ``stream-encode`` threads: it copies the slab into a recycled buffer
    and runs ``compressor.compress(buf, checksum=checksum)``, so each
    written segment is byte-identical to ``compress(data[slab])`` and
    decodes independently through the normal blob path.  At most
    ``workers + 2`` slabs are in flight; the caller thread appends the
    segments in slab order.  An error re-raises from the lowest-index
    failing slab, after the rest are cancelled and the pool has shut down.
    """
    shape = tuple(int(s) for s in data.shape)
    if not shape or not all(shape):
        raise ValueError(f"cannot stream-compress shape {shape}")
    dtype = np.dtype(data.dtype)
    slabs = plan_slabs(shape, dtype, slab_bytes)
    n = len(slabs)
    nworkers = _default_workers()
    window = nworkers + 2
    buffers = BufferPool(max_per_key=window + 1)
    handoff = _JobObservation()

    def _encode_job(i: int, sl: slice) -> bytes:
        buf = buffers.acquire((sl.stop - sl.start,) + shape[1:], dtype)
        with obs.span("stream.encode", slab=i):
            np.copyto(buf, data[sl])  # the only source read (memmap page-in)
            blob = compressor.compress(buf, checksum=checksum)
        buffers.release(buf)
        return blob

    meta = {
        "compressor": compressor.name,
        "dtype": dtype.str,
        "shape": list(shape),
        "error_bound": compressor.error_bound,
    }
    backpressure = 0.0
    payload_bytes = 0
    with obs.span(
        "stream.compress", compressor=compressor.name, slabs=n
    ), ThreadPoolExecutor(
        max_workers=nworkers, thread_name_prefix="stream-encode"
    ) as pool:
        writer = ContainerWriter(sink, axis=0, meta=meta)
        in_flight: deque = deque()
        next_i = 0
        try:
            while next_i < n or in_flight:
                while next_i < n and len(in_flight) < window:
                    fut = pool.submit(
                        handoff.run, _encode_job, next_i, slabs[next_i]
                    )
                    in_flight.append((next_i, fut))
                    next_i += 1
                i, fut = in_flight.popleft()
                stalled = next_i < n and not fut.done()
                t0 = perf_counter()
                blob, payload = fut.result()
                if stalled:
                    # the submit window was full and the head slab was not
                    # ready: the producer genuinely waited on the workers
                    backpressure += perf_counter() - t0
                handoff.merge(payload, f"slab{i}.encode")
                sp = obs.span("stream.write", slab=i)
                with sp:
                    writer.append(blob)
                    sp.label(bytes_out=len(blob))
                obs.add_bytes("stream.write", len(blob))
                payload_bytes += len(blob)
        except BaseException:
            for _j, pending in in_flight:
                pending.cancel()
            raise
        summary = writer.finalize()
        obs.metric_seconds("stream.backpressure_wait", backpressure)
    return StreamResult(
        compressor=compressor.name,
        shape=shape,
        dtype=dtype.str,
        axis=0,
        segments=summary["segments"],
        payload_bytes=payload_bytes,
        total_bytes=summary["total_bytes"],
        input_bytes=int(np.prod(shape, dtype=np.int64)) * dtype.itemsize,
        backpressure_wait_s=backpressure,
        buffer_reuse=buffers.stats(),
    )


def stream_decompress(source: Any, *, compressor: Any = None) -> np.ndarray:
    """Decode a streamed container back into one array.

    ``source`` is anything :class:`~repro.io.container.ContainerReader`
    accepts (bytes, path, seekable file).  Each segment is a standalone
    blob, so each decodes as its own job on a pool of ``stream-decode``
    threads (``compressor.decompress``, or the registry's
    ``decompress_any`` on the segment's own header when ``compressor`` is
    None).  The caller thread alone reads the container — the reader is
    not thread-safe — and copies each result into the preallocated output
    in segment order; at most ``workers + 2`` segments are in flight, so
    decode memory stays O(slab).  The declared shape, dtype and axis are
    validated before the output is allocated, and each decoded slab must
    match them in rank, non-axis extents and dtype; any mismatch raises
    :class:`~repro.errors.CorruptBlobError`.  An error re-raises from the
    lowest-index failing segment, after the rest are cancelled and the
    pool has shut down.
    """
    from .compressors.base import _validated_geometry

    reader = source if isinstance(source, ContainerReader) else ContainerReader(source)
    n = len(reader)
    if n == 0:
        raise CorruptBlobError("streamed container holds no segments")
    if "shape" not in reader.meta or "dtype" not in reader.meta:
        raise CorruptBlobError("streamed container declares no shape and dtype")
    shape, dtype = _validated_geometry(reader.meta)
    axis = reader.axis
    if axis >= len(shape):
        raise CorruptBlobError(
            f"streamed container: axis {axis} outside its {len(shape)}-D shape"
        )
    cross = shape[:axis] + shape[axis + 1:]
    out = np.empty(shape, dtype=dtype)
    if compressor is not None:
        decode = compressor.decompress
    else:
        from .compressors.registry import decompress_any as decode
    nworkers = _default_workers()
    window = nworkers + 2
    handoff = _JobObservation()

    def _decode_job(i: int, blob: bytes) -> np.ndarray:
        with obs.span("stream.decode", slab=i):
            return decode(blob)

    def _submit(pool: ThreadPoolExecutor, i: int) -> Future:
        try:
            blob = reader.segment(i)
        except Exception as exc:  # noqa: BLE001 - raised in segment order
            failed: Future = Future()
            failed.set_exception(exc)
            return failed
        return pool.submit(handoff.run, _decode_job, i, blob)

    cursor = 0
    with obs.span("stream.decompress", segments=n), ThreadPoolExecutor(
        max_workers=nworkers, thread_name_prefix="stream-decode"
    ) as pool:
        in_flight: deque = deque()
        next_i = 0
        try:
            while next_i < n or in_flight:
                while next_i < n and len(in_flight) < window:
                    in_flight.append((next_i, _submit(pool, next_i)))
                    next_i += 1
                i, fut = in_flight.popleft()
                arr, payload = fut.result()
                handoff.merge(payload, f"slab{i}.decode")
                if (
                    arr.ndim != out.ndim
                    or arr.shape[:axis] + arr.shape[axis + 1:] != cross
                    or arr.dtype != dtype
                ):
                    raise CorruptBlobError(
                        f"streamed container: segment {i} decodes to "
                        f"{arr.dtype} {arr.shape}, which does not tile the "
                        f"declared {dtype} {shape} along axis {axis}"
                    )
                rows = arr.shape[axis]
                if cursor + rows > shape[axis]:
                    raise CorruptBlobError(
                        "streamed container: segments decode to more rows "
                        "than the declared shape"
                    )
                sel = [slice(None)] * out.ndim
                sel[axis] = slice(cursor, cursor + rows)
                out[tuple(sel)] = arr
                cursor += rows
        except BaseException:
            for _j, pending in in_flight:
                pending.cancel()
            raise
    if cursor != shape[axis]:
        raise CorruptBlobError(
            f"streamed container: segments decode to {cursor} rows, "
            f"header declares {shape[axis]}"
        )
    return out
