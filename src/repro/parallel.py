"""Block-parallel compression over worker processes (real SZ3's ``-T``).

Splits the domain into slabs along the longest axis, compresses each in its
own process, and frames the results so decompression (also parallelizable)
reassembles the array.  Slab independence costs a little ratio (prediction
cannot cross slab boundaries) and buys near-linear wall-clock scaling — the
same trade real multithreaded compressors make.

Two performance properties distinguish this from a naive ``pool.map``:

* **Shared-memory transport.**  Slab payloads never travel through the
  pickle pipe.  On compress the full input is placed in a
  ``multiprocessing.shared_memory`` segment once and workers attach by name,
  reading only their slab slice; on decompress workers write their
  reconstructed slab directly into a preallocated shared output array, so
  the parent performs zero per-slab array copies through IPC.  When shared
  memory is unavailable (or allocation fails) everything falls back to the
  original pickled path transparently.
* **Persistent pool.**  The worker pool is created lazily on first use and
  reused across ``compress``/``decompress`` calls, amortizing process
  startup over a whole experiment sweep instead of paying it per call.
  ``close()`` (or garbage collection) shuts it down.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import struct
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

from . import obs
from .core.config import QPConfig
from .io.integrity import is_sealed, seal, unseal
from .streaming import slab_slices

__all__ = ["ParallelCompressor", "create_fork_pool"]

_MAGIC = b"RPAR"

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - stdlib module; guard for odd builds
    _shm = None


def _attach_shm(name: str):
    """Attach to an existing shared-memory segment without adopting ownership.

    Child processes that merely *attach* must not touch the resource tracker:
    forked workers share the parent's tracker process, so a register (or a
    compensating unregister) from a worker corrupts the parent's bookkeeping
    and the tracker logs spurious KeyErrors at unlink time (CPython's
    well-known over-registration issue).  Registration is suppressed for the
    duration of the attach instead.
    """
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register

    def _no_register(rname, rtype):
        if rtype != "shared_memory":
            orig_register(rname, rtype)

    resource_tracker.register = _no_register
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _compress_one(args) -> bytes:
    data, name, eb, qp_dict, kwargs, auto = args
    from .compressors import get_compressor

    kw = dict(kwargs)
    if qp_dict is not None:
        kw["qp"] = QPConfig.from_dict(qp_dict)
    return get_compressor(name, eb, **kw).compress(data, auto=auto)


def _compress_one_shm(args) -> bytes:
    shm_name, dtype_str, shape, axis, lo, hi, name, eb, qp_dict, kwargs, auto = args
    seg = _attach_shm(shm_name)
    try:
        full = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=seg.buf)
        idx = [slice(None)] * len(shape)
        idx[axis] = slice(lo, hi)
        # must be a genuine copy (ascontiguousarray could return a view into
        # the segment, which dies when the mapping closes below)
        slab = full[tuple(idx)].copy()
        del full
    finally:
        seg.close()
    return _compress_one((slab, name, eb, qp_dict, kwargs, auto))


def _decompress_one(blob: bytes) -> np.ndarray:
    from .compressors import decompress_any

    return decompress_any(blob)


def _decompress_one_shm(args) -> None:
    blob, shm_name, dtype_str, shape, axis, lo, hi = args
    part = _decompress_one(blob)
    seg = _attach_shm(shm_name)
    try:
        full = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=seg.buf)
        idx = [slice(None)] * len(shape)
        idx[axis] = slice(lo, hi)
        full[tuple(idx)] = part
        del full
    finally:
        seg.close()


#: worker-job dispatch table for the observed wrapper below; keys are stable
#: job kinds, values must be module-level functions (picklable by reference)
_JOB_FNS = {
    "compress": _compress_one,
    "compress_shm": _compress_one_shm,
    "decompress": _decompress_one,
    "decompress_shm": _decompress_one_shm,
}


def _observed_job(args) -> tuple:
    """Run one slab job under a worker-local observation.

    Worker processes cannot write into the parent's trace buffers, so the
    job records spans/metrics into a fresh :class:`repro.obs.Observation`
    and ships its serialized buffers back alongside the result; the parent
    merges them in job-submission order (see ``ParallelCompressor._run_jobs``).
    """
    kind, inner = args
    ob = obs.Observation()
    with obs.observe(ob):
        result = _JOB_FNS[kind](inner)
    return result, ob.to_payload()


def create_fork_pool(workers: int) -> ProcessPoolExecutor:
    """Build the persistent fork-based worker pool the stack shares.

    One construction point for every fork-pool user (the slab-parallel
    compressor and the service gateway); the fork start method is preferred
    for cheap startup + shared-memory attach (spawn is the automatic
    fallback where fork is unavailable).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ctx = None
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def _effective_cores() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _merge_consecutive_views(
    parts: "list[np.ndarray]", axis: int
) -> "np.ndarray | None":
    """Reassemble slabs without copying when they already tile one buffer.

    The batched decode path stacks equal-geometry slabs into a single
    contiguous array and hands back axis-0 views of it; for an axis-0 slab
    split those views, in order, ARE the concatenated volume.  Detect that
    case by address arithmetic (each part must start exactly where the
    previous one ended inside the shared C-contiguous base) and return the
    base reshaped — skipping a full-volume allocate-and-copy.  Returns None
    whenever anything does not line up.
    """
    if axis != 0 or len(parts) < 2:
        return None
    base = parts[0].base
    if base is None or not base.flags.c_contiguous:
        return None
    ptr = base.__array_interface__["data"][0]
    expect = ptr
    for p in parts:
        if (
            p.base is not base
            or p.dtype != base.dtype
            or not p.flags.c_contiguous
            or p.shape[1:] != parts[0].shape[1:]
            or p.__array_interface__["data"][0] != expect
        ):
            return None
        expect += p.nbytes
    if expect - ptr != base.nbytes:
        return None
    rows = sum(p.shape[0] for p in parts)
    return base.reshape((rows,) + parts[0].shape[1:])


def _peek_blob_header(blob: bytes) -> dict:
    """Read a slab blob's JSON header (shape/dtype) without decompressing."""
    if blob[:4] != b"RPRC":
        raise ValueError("not a repro compressed blob")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    return json.loads(blob[8:8 + hlen].decode())


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=False, cancel_futures=True)


#: Huffman block size for slab containers (vs the 4096 codec default).
#: Decode cost per container batch is ~``block_size`` lockstep steps, so
#: smaller blocks are the main lever for slab decode latency; 1024 cuts the
#: joint decode 2–3.5× on the bench slabs for <2% compressed-size growth.
SLAB_HUFFMAN_BLOCK = 1024


class ParallelCompressor:
    """Slab-parallel wrapper around any registered compressor.

    Satisfies the :class:`repro.compressors.Codec` protocol: ``compress``
    takes a keyword-only ``checksum`` that seals the whole slab container
    in the v1 integrity envelope, and ``decompress`` accepts both the
    canonical and the sealed framing.
    """

    @property
    def name(self) -> str:
        return f"parallel[{self.base}]"

    def __init__(
        self,
        base: str,
        error_bound: float,
        workers: int = 2,
        n_slabs: int | None = None,
        qp: QPConfig | None = None,
        **kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        from .compressors import constructor_accepts, supports_qp

        self.base = base
        self.error_bound = float(error_bound)
        self.workers = workers
        self.n_slabs = n_slabs
        self.qp = qp or QPConfig.disabled()
        if self.qp.enabled and not supports_qp(base):
            raise ValueError(
                f"compressor {base!r} does not support quantization index "
                "prediction; drop the qp argument or pick one of the "
                "prediction+quantization bases"
            )
        # only capable bases receive the config — others would reject (or
        # silently swallow) an unexpected keyword
        self._qp_dict = self.qp.to_dict() if supports_qp(base) else None
        # slab streams are short: block-synchronous Huffman decode costs
        # ``block_size`` Python-level steps regardless of lane count, so a
        # smaller block decodes slabs several times faster for ~8 bytes of
        # stored offset per extra block (<2% of a typical slab payload).
        # Only offered to bases whose constructor understands the knob;
        # explicit caller values (including None) win.
        if "huffman_block_size" not in kwargs and constructor_accepts(
            base, "huffman_block_size"
        ):
            kwargs["huffman_block_size"] = SLAB_HUFFMAN_BLOCK
        self.kwargs = kwargs
        self._pool: ProcessPoolExecutor | None = None
        self._pool_finalizer = None

    # -- worker pool --------------------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        """Lazily created pool, reused across compress/decompress calls."""
        if self._pool is None:
            self._pool = create_fork_pool(self.workers)
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
        self._pool = None

    # -- observed job execution --------------------------------------------

    def _run_jobs(self, kind: str, fn, jobs: list, parallel: bool) -> list:
        """Run slab jobs, threading observability buffers out of the pool.

        Serial jobs record straight into the active observation (same
        process).  Parallel jobs, when an observation is active, are wrapped
        in :func:`_observed_job` so each worker records into a local buffer
        shipped back with its result; the buffers are merged here in
        job-submission order, so the combined trace is deterministic no
        matter how the pool scheduled the work.
        """
        if not parallel:
            return [fn(j) for j in jobs]
        ob = obs.current()
        if ob is None:
            return list(self._get_pool().map(fn, jobs))
        tagged = [(kind, j) for j in jobs]
        out = []
        for i, (res, payload) in enumerate(self._get_pool().map(_observed_job, tagged)):
            ob.merge_payload(payload, worker=f"w{i}")
            out.append(res)
        return out

    # -- slab geometry ------------------------------------------------------

    def _slabs(self, shape: tuple[int, ...]) -> tuple[int, list[slice]]:
        n = self.n_slabs or self.workers
        # prefer the leading axis: C-order slabs are then contiguous views on
        # the compress side and consecutive in memory on the decompress side,
        # where reassembly can be a zero-copy reshape of the decoded stack;
        # fall back to the longest axis when axis 0 cannot host the slab count
        axis = int(np.argmax(shape))
        if shape[0] // 8 >= min(n, shape[axis] // 8 or 1):
            axis = 0
        n = max(1, min(n, shape[axis] // 8 or 1))
        return axis, slab_slices(shape[axis], n)

    # -- compression --------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive: Any = None,
    ) -> bytes:
        """Compress slab-parallel; the standard keyword knob set applies.

        ``auto`` runs the sampling tuner inside each slab job (each slab is
        tuned independently); ``adaptive`` forwards an
        :class:`~repro.core.config.AdaptiveConfig` (or its dict form) to
        every slab's base compressor and raises ``ValueError`` when the
        base does not take one.
        """
        data = np.asarray(data)
        kwargs = self._job_kwargs(adaptive)
        axis, slabs = self._slabs(data.shape)
        parallel = self.workers > 1 and len(slabs) > 1
        with obs.span(
            "parallel.compress", base=self.base, slabs=len(slabs), axis=axis
        ):
            blobs: list[bytes] | None = None
            if parallel and _shm is not None:
                blobs = self._compress_shm(data, axis, slabs, kwargs, auto)
            if blobs is None:
                jobs = []
                for sl in slabs:
                    idx = [slice(None)] * data.ndim
                    idx[axis] = sl
                    jobs.append((
                        np.ascontiguousarray(data[tuple(idx)]),
                        self.base, self.error_bound, self._qp_dict, kwargs,
                        auto,
                    ))
                blobs = self._run_jobs("compress", _compress_one, jobs, parallel)
            head = _MAGIC + struct.pack("<BI", axis, len(blobs))
            body = b"".join(struct.pack("<Q", len(b)) + b for b in blobs)
        out = head + body
        return seal(out) if checksum else out

    def _job_kwargs(self, adaptive: Any) -> dict:
        """Per-call constructor kwargs for the slab jobs (adaptive merge)."""
        if adaptive is None:
            return self.kwargs
        from .compressors import constructor_accepts

        if not constructor_accepts(self.base, "adaptive"):
            raise ValueError(
                f"compressor {self.base!r} does not support adaptive "
                "quantization; drop the adaptive argument"
            )
        if hasattr(adaptive, "to_dict"):
            adaptive = adaptive.to_dict()
        return dict(self.kwargs, adaptive=adaptive)

    def _compress_shm(
        self, data: np.ndarray, axis: int, slabs: list[slice],
        kwargs: dict, auto: bool,
    ) -> list[bytes] | None:
        """Compress via a shared input segment; None → caller falls back."""
        try:
            seg = _shm.SharedMemory(create=True, size=max(1, data.nbytes))
        except Exception:
            return None
        try:
            np.ndarray(data.shape, dtype=data.dtype, buffer=seg.buf)[...] = data
            jobs = [(
                seg.name, data.dtype.str, data.shape, axis, sl.start, sl.stop,
                self.base, self.error_bound, self._qp_dict, kwargs, auto,
            ) for sl in slabs]
            return self._run_jobs("compress_shm", _compress_one_shm, jobs, True)
        finally:
            seg.close()
            seg.unlink()

    # -- decompression ------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        if is_sealed(blob):
            blob = unseal(blob)
        if blob[:4] != _MAGIC:
            raise ValueError("not a parallel container")
        axis, n = struct.unpack_from("<BI", blob, 4)
        off = 9
        parts_raw = []
        for _ in range(n):
            (size,) = struct.unpack_from("<Q", blob, off)
            off += 8
            parts_raw.append(blob[off:off + size])
            off += size
        if off != len(blob):
            raise ValueError("parallel container corrupt")
        with obs.span("parallel.decompress", base=self.base, slabs=n, axis=axis):
            if n > 1 and (self.workers == 1 or _effective_cores() < 2):
                # No real CPU concurrency to exploit (or serial requested):
                # N time-sliced worker processes each pay a full Python decode
                # loop per slab, which is strictly slower than one in-process
                # batched decode (joint Huffman lockstep + stacked QP inverse
                # across all slabs).  Running in-process also keeps perf-stage
                # accounting visible to the caller's profiler.
                return self._decompress_batched(parts_raw, axis)
            parallel = self.workers > 1 and n > 1
            if parallel and _shm is not None:
                out = self._decompress_shm(parts_raw, axis)
                if out is not None:
                    return out
            parts = self._run_jobs("decompress", _decompress_one, parts_raw, parallel)
            return np.concatenate(parts, axis=axis)

    def _decompress_batched(self, parts_raw: list[bytes], axis: int) -> np.ndarray:
        """Decode every slab in one in-process batch and assemble in place.

        ``decompress_many`` groups the slab blobs by (compressor, error
        bound) — always one group here — so all index streams go through a
        single joint Huffman decode sharing one set of memoized tables, and
        equal-geometry slabs share one stacked QP wavefront inverse.  Slab
        arrays are written straight into the preallocated output; nothing
        round-trips through pickle or shared memory.
        """
        from .compressors.registry import decompress_many

        parts = decompress_many(parts_raw)
        merged = _merge_consecutive_views(parts, axis)
        if merged is not None:
            return merged
        out_shape = list(parts[0].shape)
        out_shape[axis] = sum(p.shape[axis] for p in parts)
        out = np.empty(tuple(out_shape), dtype=parts[0].dtype)
        idx = [slice(None)] * len(out_shape)
        lo = 0
        for p in parts:
            hi = lo + p.shape[axis]
            idx[axis] = slice(lo, hi)
            out[tuple(idx)] = p
            lo = hi
        return out

    def _decompress_shm(
        self, parts_raw: list[bytes], axis: int
    ) -> np.ndarray | None:
        """Decompress slabs straight into one shared output array.

        The output geometry comes from peeking each slab blob's header
        (shape + dtype), so the full array is preallocated once and every
        worker writes its slice in place — no per-slab pickling back and no
        final concatenate copy.  Returns None to signal fallback.
        """
        headers = [_peek_blob_header(b) for b in parts_raw]
        shapes = [tuple(h["shape"]) for h in headers]
        dtype = np.dtype(headers[0]["dtype"])
        out_shape = list(shapes[0])
        out_shape[axis] = sum(s[axis] for s in shapes)
        out_shape = tuple(out_shape)
        nbytes = int(np.prod(out_shape, dtype=np.int64)) * dtype.itemsize
        try:
            seg = _shm.SharedMemory(create=True, size=max(1, nbytes))
        except Exception:
            return None
        try:
            jobs = []
            lo = 0
            for raw, s in zip(parts_raw, shapes):
                hi = lo + s[axis]
                jobs.append((raw, seg.name, dtype.str, out_shape, axis, lo, hi))
                lo = hi
            self._run_jobs("decompress_shm", _decompress_one_shm, jobs, True)
            return np.ndarray(out_shape, dtype=dtype, buffer=seg.buf).copy()
        finally:
            seg.close()
            seg.unlink()
