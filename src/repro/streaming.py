"""Streaming out-of-core execution: pipelined slab compression with
bounded memory.

The in-memory path materializes the full volume, its full quantization
index stream, and the full entropy payload before a byte is written, so
peak RSS is a multiple of the input.  This module walks the volume along
the leading axis in bounded slabs and runs a three-stage producer/consumer
pipeline over a small thread pool:

1. **front** (worker threads): page in one slab — through a recycled
   :class:`BufferPool` scratch array — and run predict + quantize + the
   QP/adaptive index transforms (``Compressor._stream_front``);
2. **entropy** (dedicated thread): Huffman (or range) + lossless coding of the
   finished index stream (``Compressor._stream_entropy``), framed as a
   standalone blob byte-identical to ``compress(slab)``;
3. **write** (caller thread): flush each segment to the sink through an
   incremental :class:`~repro.io.container.ContainerWriter` the moment it
   is sealed.

Entropy coding of slab *k* therefore overlaps prediction of slab *k+1*
(numpy and zlib release the GIL on the hot loops); on a single hardware
thread the win comes from cache blocking instead — a slab-sized working
set stays inside the last-level cache where the full-volume pass thrashes
it (see docs/performance.md for measurements).  In-flight slabs are capped
by a fixed window, so peak memory is O(slab · depth), never O(volume), and
the producer's stall time against a full window is surfaced as the
``stream.backpressure_wait`` metric (buffer recycling as
``stream.buffer_reuse``).
"""
from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


def stream_compress(
    compressor: Any,
    data: np.ndarray,
    sink: BinaryIO,
    *,
    slab_bytes: int | None = None,
    workers: int | None = None,
    depth: int | None = None,
    checksum: bool = False,
) -> StreamResult:
    """Compress ``data`` (array or memmap) into ``sink`` slab by slab.

    Each written segment is byte-identical to
    ``compressor.compress(data[slab], checksum=checksum)``, so any segment
    decodes independently through the normal blob path.  At most ``depth``
    slabs (default ``workers + 2``) are in flight at once.
    """
    shape = tuple(int(s) for s in data.shape)
    if not shape or not all(shape):
        raise ValueError(f"cannot stream-compress shape {shape}")
    dtype = np.dtype(data.dtype)
    slabs = plan_slabs(shape, dtype, slab_bytes)
    n = len(slabs)
    nworkers = int(workers) if workers else _default_workers()
    window = int(depth) if depth else nworkers + 2
    window = max(1, window)
    pool = BufferPool(max_per_key=window + 1)
    parent = obs.current()
    slab_shape_tail = shape[1:]

    def _front_job(i: int, sl: slice):
        # worker threads start with a fresh obs context (observability
        # off); activate a per-slab observation and ship it back as a
        # payload so the parent can merge deterministically in slab order
        ob = obs.Observation() if parent is not None else None
        with obs.observe(ob) if ob is not None else nullcontext():
            buf = pool.acquire((sl.stop - sl.start,) + slab_shape_tail, dtype)
            with obs.span("stream.front", slab=i):
                np.copyto(buf, data[sl])  # the only source read (memmap page-in)
                front = compressor._stream_front(buf)
        return front, buf, (ob.to_payload() if ob is not None else None)

    def _entropy_job(i: int, ffut):
        front, buf, front_payload = ffut.result()
        ob = obs.Observation() if parent is not None else None
        with obs.observe(ob) if ob is not None else nullcontext():
            with obs.span("stream.entropy", slab=i):
                blob = compressor._stream_entropy(front, checksum=checksum)
        # the engine front may hold views into the slab buffer (anchors),
        # so the buffer is only recyclable once the segment is sealed
        pool.release(buf)
        return blob, front_payload, (ob.to_payload() if ob is not None else None)

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
        max_workers=nworkers, thread_name_prefix="stream-front"
    ) as front_pool, ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="stream-entropy"
    ) as entropy_pool:
        writer = ContainerWriter(sink, axis=0, meta=meta)
        in_flight: deque = deque()
        next_i = 0
        try:
            while next_i < n or in_flight:
                while next_i < n and len(in_flight) < window:
                    ffut = front_pool.submit(_front_job, next_i, slabs[next_i])
                    efut = entropy_pool.submit(_entropy_job, next_i, ffut)
                    in_flight.append((next_i, efut))
                    next_i += 1
                i, efut = in_flight.popleft()
                stalled = next_i < n and not efut.done()
                t0 = perf_counter()
                blob, front_payload, entropy_payload = efut.result()
                if stalled:
                    # the submit window was full and the head slab was not
                    # ready: the producer genuinely waited on the pipeline
                    backpressure += perf_counter() - t0
                if parent is not None:
                    parent.merge_payload(front_payload, worker=f"slab{i}.front")
                    parent.merge_payload(entropy_payload, worker=f"slab{i}.entropy")
                sp = obs.span("stream.write", slab=i)
                with sp:
                    writer.append(blob)
                    sp.label(bytes_out=len(blob))
                obs.add_bytes("stream.write", len(blob))
                payload_bytes += len(blob)
        except BaseException:
            for _j, efut in in_flight:
                efut.cancel()
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
        buffer_reuse=pool.stats(),
    )


def stream_decompress(
    source: Any,
    *,
    compressor: Any = None,
    batch: int = 8,
) -> np.ndarray:
    """Decode a streamed container back into one array.

    ``source`` is anything :class:`~repro.io.container.ContainerReader`
    accepts (bytes, path, seekable file).  Segments are decoded in
    ``batch``-sized groups (joint entropy decode across the group) and
    written straight into the preallocated output, so decode memory also
    stays O(slab).  When ``compressor`` is None, each segment dispatches
    through the registry on its own header.
    """
    reader = source if isinstance(source, ContainerReader) else ContainerReader(source)
    n = len(reader)
    if n == 0:
        raise CorruptBlobError("streamed container holds no segments")
    batch = max(1, int(batch))
    meta = reader.meta
    out: np.ndarray | None = None
    if "shape" in meta and "dtype" in meta:
        out = np.empty(
            tuple(int(s) for s in meta["shape"]), dtype=np.dtype(meta["dtype"])
        )
    if compressor is not None:
        decode_many = compressor.decompress_many
    else:
        from .compressors.registry import decompress_many as decode_many
    parts: list[np.ndarray] = []
    cursor = 0
    with obs.span("stream.decompress", segments=n):
        for start in range(0, n, batch):
            blobs = [reader.segment(i) for i in range(start, min(start + batch, n))]
            for arr in decode_many(blobs):
                if out is None:
                    parts.append(arr)
                    continue
                rows = arr.shape[reader.axis]
                sel = [slice(None)] * out.ndim
                sel[reader.axis] = slice(cursor, cursor + rows)
                if cursor + rows > out.shape[reader.axis]:
                    raise CorruptBlobError(
                        "streamed container: segments decode to more rows "
                        "than the declared shape"
                    )
                out[tuple(sel)] = arr
                cursor += rows
    if out is not None:
        if cursor != out.shape[reader.axis]:
            raise CorruptBlobError(
                f"streamed container: segments decode to {cursor} rows, "
                f"header declares {out.shape[reader.axis]}"
            )
        return out
    return np.concatenate(parts, axis=reader.axis) if len(parts) > 1 else parts[0]
