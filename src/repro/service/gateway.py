"""The asyncio compression gateway: batching, backpressure, persistence.

One :class:`Gateway` owns the whole serving path:

1. :meth:`Gateway.submit` admits a typed request (per-tenant token
   bucket + inflight quota, then a bounded global queue — each rejection
   a distinct :class:`~repro.errors.AdmissionError` subclass and a
   ``service.rejected{reason=...}`` counter tick), then parks an
   ``asyncio.Future`` for the reply.
2. A dispatcher task drains the queue in micro-batches, groups jobs by
   ``(op, JobSpec.batch_key)``, and runs each group as *one* fork-pool
   job — the worker builds the compressor once and processes every array
   in the group, amortizing construction and schedule-cache warmup.
3. Oversized compress requests (``nbytes >= stream_threshold_bytes``)
   bypass the fork pool: they run ``stream_compress`` on a worker thread
   so one huge volume cannot occupy the pool while small slices queue.
4. ``archive_put`` / ``archive_get`` persist through the crash-safe
   :class:`~repro.io.container.Archive` (journaled appends), serialized
   by an asyncio lock so concurrent puts cannot interleave writes.
5. Fork-pool workers run under their own :class:`~repro.obs.Observation`
   and ship the payload back; the gateway merges it into its own
   observation in job order, so ``gateway.observation`` holds the full
   request-scoped span/counter picture across process boundaries.

:meth:`Gateway.stop` drains: new submits fail with
:class:`~repro.errors.ServiceClosedError` while queued and inflight work
runs to completion, then the dispatcher exits and the pool shuts down —
no torn archive entries, every parked future resolved.
"""
from __future__ import annotations

import asyncio
import io
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..errors import (
    QueueFullError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceRequestError,
    TenantAccessError,
)
from ..io.container import Archive, ContainerReader, is_streamed_container
from ..streaming import stream_compress, stream_decompress
from .admission import AdmissionController, TenantPolicy
from .messages import (
    ArchiveGetRequest,
    ArchivePutRequest,
    CompressRequest,
    DecompressRequest,
    JobSpec,
    RangeGetRequest,
    ServiceReply,
    _ERROR_TYPES,
    array_from_parts,
    decode_message,
    encode_message,
)

__all__ = ["GatewayConfig", "Gateway"]

_REQUEST_KINDS = (
    CompressRequest,
    DecompressRequest,
    ArchivePutRequest,
    ArchiveGetRequest,
    RangeGetRequest,
)


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway tuning knobs; defaults favor small deployments and tests."""

    workers: int = 2
    batch_window_ms: float = 2.0
    max_batch: int = 32
    stream_threshold_bytes: int = 32 << 20
    queue_depth: int = 256
    archive_path: str | None = None
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    policies: dict[str, TenantPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class _Job:
    request: Any
    future: asyncio.Future
    submitted: float


def _compressor_from_spec(spec_dict: dict) -> Any:
    """Build the compressor a :class:`JobSpec` dict describes.

    Runs in fork-pool workers (and the parent for streamed jobs), so it
    imports lazily.  The registry's :func:`base_compressor` applies the
    qp/adaptive policy every wrapper shares; a spec it refuses is the
    client's fault, a :class:`ServiceRequestError`."""
    from ..compressors import base_compressor
    from ..core.config import QPConfig

    spec = JobSpec.from_dict(spec_dict)
    try:
        return base_compressor(
            spec.compressor,
            spec.error_bound,
            qp=None if spec.qp is None else QPConfig.from_dict(spec.qp),
            adaptive=spec.adaptive,
        )
    except (KeyError, ValueError) as exc:
        raise ServiceRequestError(*exc.args) from exc


@dataclass(frozen=True)
class _ItemFailure:
    """One item's failure inside a batch, shipped back picklable.

    ``kind`` says whose fault it was: ``"service"`` carries a
    :class:`~repro.errors.ServiceError` reason tag, ``"repro"`` is a
    corrupt payload / bad spec (→ ``bad_request``), and ``"internal"``
    is an unexpected worker exception.  The parent maps it back to a
    typed error per job via :func:`_failure_to_error`, so one bad item
    never poisons the rest of its micro-batch.
    """

    kind: str
    reason: str
    message: str


def _capture_failure(exc: Exception) -> _ItemFailure:
    if isinstance(exc, ServiceError):
        return _ItemFailure("service", exc.reason, str(exc))
    if isinstance(exc, ReproError):
        return _ItemFailure("repro", ServiceRequestError.reason, str(exc))
    return _ItemFailure("internal", "internal", f"{type(exc).__name__}: {exc}")


def _failure_to_error(failure: _ItemFailure) -> Exception:
    if failure.kind == "service":
        return _ERROR_TYPES.get(failure.reason, ServiceError)(failure.message)
    if failure.kind == "repro":
        return ServiceRequestError(failure.message)
    return RuntimeError(failure.message)


def _pick_level(table: list, level: int | None, total: int) -> dict:
    """Resolve a requested level against a blob's progressive table.

    ``level=None`` means "everything": the finest recorded level, with
    the span running to the end of the blob."""
    if not table:
        raise ServiceRequestError("entry has no progressive levels")
    if level is None:
        last = table[-1]
        return {"level": last["level"], "eb": last["eb"], "end": total}
    for e in table:
        if e["level"] == level:
            return e
    raise ServiceRequestError(
        f"level {level} is not in the entry's progressive table "
        f"(levels {[e['level'] for e in table]})"
    )


def _canonical(blob: bytes) -> bytes:
    """Byte ranges address the canonical (v0) framing: a sealed blob's CRC
    envelope covers the whole payload, so prefixes of the *sealed* bytes
    can never verify — unwrap before slicing."""
    from ..io.integrity import is_sealed, unseal

    return unseal(blob) if is_sealed(blob) else bytes(blob)


def _pack_array(arr: np.ndarray) -> tuple:
    return (tuple(arr.shape), arr.dtype.str, np.ascontiguousarray(arr).tobytes())


def _run_batch(
    kind: str, spec_dict: dict | None, items: list
) -> tuple[list, dict | None]:
    """Fork-pool worker entry: process one same-spec batch.

    ``items`` is a list of job payloads — ``(shape, dtype, bytes)`` for
    compress, raw blobs for decompress.  The compressor is built once per
    batch; the worker's observation payload rides back for parent merge.
    Failures are isolated per item: each result slot is either the item's
    output or an :class:`_ItemFailure`, so a malformed request from one
    tenant cannot fail other tenants' batched requests.
    """
    ob = obs.Observation()
    with obs.observe(ob):
        with obs.span(f"service.batch.{kind}", jobs=len(items)):
            if kind == "compress":
                comp = _compressor_from_spec(spec_dict)
                spec = JobSpec.from_dict(spec_dict)
                results = []
                for shape, dtype, raw in items:
                    try:
                        arr = array_from_parts(shape, dtype, raw)
                        results.append(
                            comp.compress(
                                arr, checksum=spec.checksum, auto=spec.auto
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - per-item isolation
                        results.append(_capture_failure(exc))
            elif kind == "decompress":
                from ..compressors.registry import decompress_any, decompress_many

                blobs = list(items)
                try:
                    results = [_pack_array(a) for a in decompress_many(blobs)]
                except Exception:  # noqa: BLE001 - retry item-at-a-time
                    # the amortized batch path failed somewhere; redo the
                    # blobs one by one so only the offending items fail
                    results = []
                    for blob in blobs:
                        try:
                            results.append(_pack_array(decompress_any(blob)))
                        except Exception as exc:  # noqa: BLE001
                            results.append(_capture_failure(exc))
            else:  # pragma: no cover - dispatcher only sends the two kinds
                raise ValueError(f"unknown batch kind {kind!r}")
    return results, ob.to_payload()


def create_fork_pool(workers: int) -> ProcessPoolExecutor:
    """Build the gateway's persistent fork-based worker pool.

    The fork start method is preferred for cheap startup (spawn is the
    automatic fallback where fork is unavailable).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ctx = None
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


class Gateway:
    """Async multi-tenant front end over the compression stack.

    Construct, :meth:`start`, :meth:`submit` typed requests (or feed raw
    wire frames through :meth:`handle`), then :meth:`stop` to drain.
    Also usable as an async context manager.
    """

    def __init__(self, config: GatewayConfig | None = None) -> None:
        self.config = config or GatewayConfig()
        self.observation = obs.Observation()
        self.admission = AdmissionController(
            self.config.default_policy, self.config.policies
        )
        self._queue: asyncio.Queue[_Job] = asyncio.Queue(
            maxsize=self.config.queue_depth
        )
        self._pool = None
        self._dispatcher: asyncio.Task | None = None
        self._closed = False
        self._inflight: set[asyncio.Future] = set()
        self._archive: Archive | None = None
        self._archive_lock = asyncio.Lock()
        self._batches = 0
        self._jobs = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spin up the fork pool and the dispatcher task (idempotent)."""
        if self._closed:
            raise ServiceClosedError("gateway is stopped")
        if self._pool is None:
            self._pool = create_fork_pool(self.config.workers)
        if self._dispatcher is None or self._dispatcher.done():
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; optionally run queued+inflight jobs dry.

        With ``drain=True`` (the default) every already-admitted request
        completes and its future resolves before the pool shuts down;
        with ``drain=False`` queued jobs are failed fast with
        :class:`ServiceClosedError`.
        """
        self._closed = True
        if not drain or self._dispatcher is None:
            # without a dispatcher nothing will ever drain the queue
            while not self._queue.empty():
                job = self._queue.get_nowait()
                self._finish_job(
                    job, error=ServiceClosedError("gateway stopped before dispatch")
                )
        # wait for the queue to empty and inflight futures to settle
        while not self._queue.empty() or self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
            if not self._queue.empty():
                await asyncio.sleep(0)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "Gateway":
        self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    @property
    def archive(self) -> Archive:
        if self._archive is None:
            if self.config.archive_path is None:
                raise ServiceRequestError(
                    "gateway has no archive (set GatewayConfig.archive_path)"
                )
            from .. import open_archive

            self._archive = open_archive(self.config.archive_path, create=True)
        return self._archive

    # -- submission --------------------------------------------------------

    async def submit(self, request: Any) -> ServiceReply:
        """Admit, queue, and await one typed request; returns the reply.

        Admission failures raise the typed error (they are *not* folded
        into an error reply — :meth:`handle` does that translation for
        wire clients); execution failures come back as ``ok=False``
        replies via :meth:`ServiceReply.raise_for_status`.
        """
        if not isinstance(request, _REQUEST_KINDS):
            raise ServiceRequestError(
                f"cannot submit {type(request).__name__}; expected one of "
                + ", ".join(c.__name__ for c in _REQUEST_KINDS)
            )
        tenant = request.tenant
        with obs.observe(self.observation):
            obs.metric_count(
                "service.requests", op=request.kind, tenant=tenant
            )
            if isinstance(
                request, (ArchivePutRequest, ArchiveGetRequest, RangeGetRequest)
            ):
                try:
                    # fail namespace escapes before any work is queued
                    self._archive_key(tenant, request.name)
                except TenantAccessError:
                    obs.metric_count(
                        "service.rejected",
                        reason=TenantAccessError.reason, tenant=tenant,
                    )
                    raise
            if self._closed:
                obs.metric_count(
                    "service.rejected", reason=ServiceClosedError.reason,
                    tenant=tenant,
                )
                raise ServiceClosedError("gateway is draining; request refused")
            try:
                self.admission.admit(tenant)
            except ServiceError as exc:
                obs.metric_count(
                    "service.rejected", reason=exc.reason, tenant=tenant
                )
                raise
            loop = asyncio.get_running_loop()
            job = _Job(request, loop.create_future(), time.monotonic())
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.admission.finished(tenant)
                obs.metric_count(
                    "service.rejected", reason=QueueFullError.reason,
                    tenant=tenant,
                )
                raise QueueFullError(
                    f"gateway queue is full ({self.config.queue_depth} "
                    "pending); retry after a backoff"
                ) from None
        self._inflight.add(job.future)
        job.future.add_done_callback(self._inflight.discard)
        try:
            return await asyncio.shield(job.future)
        finally:
            # released exactly once per admitted job, even if the awaiting
            # client was cancelled (the shielded future still completes)
            if job.future.done():
                self.admission.finished(tenant)
            else:
                job.future.add_done_callback(
                    lambda _f, t=tenant: self.admission.finished(t)
                )

    async def handle(self, frame: bytes) -> bytes:
        """Wire entry point: decode one frame, serve it, encode the reply.

        Every failure — malformed frame, admission rejection, execution
        error — becomes an ``ok=False`` reply with the typed ``reason``
        code, so a wire client never sees a raw traceback or a hang.
        Unexpected exceptions get the ``internal`` code as a last resort.
        """
        request_id = ""
        op = ""
        try:
            request = decode_message(frame)
            if isinstance(request, ServiceReply):
                raise ServiceRequestError("a reply is not a servable request")
            request_id = request.request_id
            op = request.kind
            reply = await self.submit(request)
            return encode_message(reply)
        except ServiceError as exc:
            reply = ServiceReply(
                request_id=request_id, op=op, ok=False,
                error=exc.reason, message=str(exc),
            )
            return encode_message(reply)
        except ReproError as exc:
            with obs.observe(self.observation):
                obs.metric_count(
                    "service.rejected",
                    reason=ServiceRequestError.reason, tenant="?",
                )
            reply = ServiceReply(
                request_id=request_id, op=op, ok=False,
                error=ServiceRequestError.reason, message=str(exc),
            )
            return encode_message(reply)
        except Exception as exc:  # noqa: BLE001 - contract: never a raw traceback
            reply = ServiceReply(
                request_id=request_id, op=op, ok=False,
                error="internal",
                message=f"internal error: {type(exc).__name__}: {exc}",
            )
            return encode_message(reply)

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            batch = [job]
            deadline = time.monotonic() + self.config.batch_window_ms / 1000.0
            while len(batch) < self.config.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            try:
                self._launch_batches(batch)
            except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                # e.g. an in-process spec whose qp/adaptive dict is not
                # JSON-serializable makes batch_key raise; fail the drained
                # jobs typed and keep dispatching (launched groups finish
                # their own jobs first — _finish_job is idempotent)
                error = exc if isinstance(exc, ReproError) else ServiceRequestError(
                    f"request could not be dispatched: "
                    f"{type(exc).__name__}: {exc}"
                )
                for job in batch:
                    self._finish_job(job, error=error)

    def _launch_batches(self, jobs: list[_Job]) -> None:
        """Group a drained micro-batch and launch each group concurrently."""
        groups: dict[tuple, list[_Job]] = {}
        for job in jobs:
            req = job.request
            if isinstance(req, CompressRequest) and (
                len(req.data) >= self.config.stream_threshold_bytes
            ):
                key: tuple = ("stream", id(job))
            elif isinstance(req, (CompressRequest, ArchivePutRequest)):
                key = ("compress", req.spec.batch_key)
            elif isinstance(req, DecompressRequest):
                if is_streamed_container(req.blob[:8]):
                    key = ("destream", id(job))
                else:
                    key = ("decompress", "")
            elif isinstance(req, RangeGetRequest):
                key = ("range_get", id(job))
            else:
                key = ("archive_get", id(job))
            groups.setdefault(key, []).append(job)
        loop = asyncio.get_running_loop()
        for (kind, _), group in groups.items():
            task = loop.create_task(self._run_group(kind, group))
            # keep a handle so drain waits for execution, not just futures
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _run_group(self, kind: str, jobs: list[_Job]) -> None:
        try:
            if kind == "compress":
                await self._run_pool_compress(jobs)
            elif kind == "decompress":
                await self._run_pool_decompress(jobs)
            elif kind == "stream":
                await self._run_streamed(jobs[0])
            elif kind == "destream":
                await self._run_destream(jobs[0])
            elif kind == "range_get":
                await self._run_range_get(jobs[0])
            else:
                await self._run_archive_get(jobs[0])
        except Exception as exc:  # noqa: BLE001 - folded into typed replies
            for job in jobs:
                self._finish_job(job, error=exc)

    async def _run_pool_compress(self, jobs: list[_Job]) -> None:
        spec = jobs[0].request.spec
        items = [
            (job.request.shape, job.request.dtype, job.request.data)
            for job in jobs
        ]
        loop = asyncio.get_running_loop()
        self._batches += 1
        self._jobs += len(jobs)
        results, payload = await loop.run_in_executor(
            self._pool, _run_batch, "compress", spec.to_dict(), items
        )
        self.observation.merge_payload(payload, worker=f"batch{self._batches}")
        for job, blob in zip(jobs, results):
            req = job.request
            try:
                if isinstance(blob, _ItemFailure):
                    self._finish_job(job, error=_failure_to_error(blob))
                elif isinstance(req, ArchivePutRequest):
                    await self._archive_append(job, req.name, blob)
                else:
                    self._finish_job(
                        job,
                        reply=ServiceReply(
                            request_id=req.request_id, op=req.kind,
                            result=blob,
                            meta={
                                "compressed_bytes": len(blob),
                                "input_bytes": len(req.data),
                                "batched": len(jobs),
                            },
                        ),
                    )
            except Exception as exc:  # noqa: BLE001 - fail this job only
                # e.g. a duplicate archive name: the offending job gets the
                # typed error, the rest of the group still completes
                self._finish_job(job, error=exc)

    async def _run_pool_decompress(self, jobs: list[_Job]) -> None:
        items = [job.request.blob for job in jobs]
        loop = asyncio.get_running_loop()
        self._batches += 1
        self._jobs += len(jobs)
        results, payload = await loop.run_in_executor(
            self._pool, _run_batch, "decompress", None, items
        )
        self.observation.merge_payload(payload, worker=f"batch{self._batches}")
        for job, item in zip(jobs, results):
            req = job.request
            if isinstance(item, _ItemFailure):
                self._finish_job(job, error=_failure_to_error(item))
                continue
            shape, dtype, raw = item
            self._finish_job(
                job,
                reply=ServiceReply(
                    request_id=req.request_id, op=req.kind, result=raw,
                    meta={"shape": list(shape), "dtype": dtype},
                ),
            )

    async def _run_streamed(self, job: _Job) -> None:
        """Huge compress request: thread + ``stream_compress`` (RSTR)."""
        req = job.request
        spec = req.spec

        def _work() -> tuple[bytes, Any, dict | None]:
            ob = obs.Observation()
            with obs.observe(ob):
                comp = _compressor_from_spec(spec.to_dict())
                arr = req.array()
                if spec.auto:
                    # the streamed route honors the auto knob too: tune on
                    # the whole volume once, then compress slab by slab
                    comp = comp._tuned_for(arr)
                sink = io.BytesIO()
                result = stream_compress(
                    comp, arr, sink, checksum=spec.checksum
                )
            return sink.getvalue(), result, ob.to_payload()

        self._jobs += 1
        blob, result, payload = await asyncio.get_running_loop().run_in_executor(
            None, _work
        )
        self.observation.merge_payload(payload, worker="stream")
        self._finish_job(
            job,
            reply=ServiceReply(
                request_id=req.request_id, op=req.kind, result=blob,
                meta={
                    "compressed_bytes": len(blob),
                    "input_bytes": len(req.data),
                    "streamed": True,
                    "segments": result.segments,
                },
            ),
        )

    async def _run_destream(self, job: _Job) -> None:
        req = job.request

        def _work() -> tuple[np.ndarray, dict | None]:
            ob = obs.Observation()
            with obs.observe(ob):
                arr = stream_decompress(req.blob)
            return arr, ob.to_payload()

        self._jobs += 1
        arr, payload = await asyncio.get_running_loop().run_in_executor(None, _work)
        self.observation.merge_payload(payload, worker="destream")
        self._finish_job(
            job,
            reply=ServiceReply(
                request_id=req.request_id, op=req.kind,
                result=np.ascontiguousarray(arr).tobytes(),
                meta={
                    "shape": list(arr.shape), "dtype": arr.dtype.str,
                    "streamed": True,
                },
            ),
        )

    @staticmethod
    def _archive_key(tenant: str, name: str) -> str:
        """Tenant-namespaced archive key: ``{tenant}/{name}``.

        ``/`` is the namespace separator, so neither component may
        contain it — a name like ``"../bob/secret"`` or a tenant with an
        embedded slash would alias another tenant's entries.  Every
        archive touch goes through this helper; a gateway restarted on
        an archive written by the pre-namespace format simply sees no
        entries for any tenant (old keys have no ``/`` prefix).
        """
        if not tenant or "/" in tenant:
            raise TenantAccessError(
                f"tenant id {tenant!r} may not be empty or contain '/'"
            )
        if not name or "/" in name:
            raise TenantAccessError(
                f"archive name {name!r} may not be empty or contain '/' "
                "(archive entries are scoped per tenant)"
            )
        return f"{tenant}/{name}"

    async def _archive_append(self, job: _Job, name: str, blob: bytes) -> None:
        req = job.request
        key = self._archive_key(req.tenant, name)
        async with self._archive_lock:
            archive = self.archive
            if key in archive.names():
                raise ServiceRequestError(
                    f"archive entry {name!r} already exists"
                )
            await asyncio.get_running_loop().run_in_executor(
                None, archive.append, key, blob
            )
        self._finish_job(
            job,
            reply=ServiceReply(
                request_id=req.request_id, op=req.kind,
                meta={"name": name, "compressed_bytes": len(blob)},
            ),
        )

    async def _read_archived(self, tenant: str, name: str) -> bytes:
        key = self._archive_key(tenant, name)
        async with self._archive_lock:
            archive = self.archive
            if key not in archive.names():
                raise ServiceRequestError(
                    f"archive entry {name!r} does not exist"
                )
            return await asyncio.get_running_loop().run_in_executor(
                None, archive.read, key
            )

    async def _run_archive_get(self, job: _Job) -> None:
        req = job.request
        blob = await self._read_archived(req.tenant, req.name)
        self._jobs += 1
        self._finish_job(
            job,
            reply=ServiceReply(
                request_id=req.request_id, op=req.kind, result=blob,
                meta={"name": req.name, "compressed_bytes": len(blob)},
            ),
        )

    async def _run_range_get(self, job: _Job) -> None:
        """Serve a level-aligned byte range of an archived progressive blob.

        Plain entries return ``blob[start:offset[level]]`` plus the full
        level table; streamed (``RSTR``) entries return the concatenation
        of each segment's level prefix with a per-segment span map, so
        the footer index keeps working client-side.  Non-progressive
        entries fail typed as ``bad_request``.
        """
        req = job.request
        blob = await self._read_archived(req.tenant, req.name)
        self._jobs += 1
        from ..compressors.progressive import level_table

        if is_streamed_container(blob[:8]):
            if req.start:
                raise ServiceRequestError(
                    "range start applies to plain blob entries only; "
                    "refine streamed entries per segment"
                )
            reader = ContainerReader(blob)
            segments = []
            parts = []
            for i, (off, size) in enumerate(reader.offsets()):
                seg = _canonical(reader.segment(i))
                entry = _pick_level(level_table(seg), req.level, len(seg))
                parts.append(seg[:entry["end"]])
                segments.append(
                    {
                        "offset": off, "size": size,
                        "prefix_bytes": entry["end"],
                        "level": entry["level"], "eb": entry["eb"],
                    }
                )
            payload = b"".join(parts)
            meta = {
                "name": req.name, "streamed": True, "axis": reader.axis,
                "segments": segments, "total_bytes": len(blob),
                "prefix_bytes": len(payload),
            }
        else:
            blob = _canonical(blob)
            table = level_table(blob)
            entry = _pick_level(table, req.level, len(blob))
            stop = entry["end"]
            if req.start > stop:
                raise ServiceRequestError(
                    f"range start {req.start} is past the level "
                    f"{entry['level']} boundary at {stop}"
                )
            payload = blob[req.start:stop]
            meta = {
                "name": req.name, "level": entry["level"], "eb": entry["eb"],
                "start": req.start, "prefix_bytes": stop,
                "total_bytes": len(blob), "levels": table,
            }
        with obs.observe(self.observation):
            obs.add_bytes("service.range_prefix", len(payload))
            obs.add_bytes("service.range_full", len(blob))
            obs.metric_count("service.range", tenant=req.tenant)
        self._finish_job(
            job,
            reply=ServiceReply(
                request_id=req.request_id, op=req.kind, result=payload,
                meta=meta,
            ),
        )

    # -- plumbing ----------------------------------------------------------

    def _finish_job(
        self,
        job: _Job,
        reply: ServiceReply | None = None,
        error: Exception | None = None,
    ) -> None:
        if job.future.done():
            return
        latency = time.monotonic() - job.submitted
        req = job.request
        with obs.observe(self.observation):
            obs.metric_seconds(
                "service.latency", latency, op=req.kind, tenant=req.tenant
            )
        if error is None:
            with obs.observe(self.observation):
                obs.metric_count(
                    "service.completed", op=req.kind, tenant=req.tenant
                )
            job.future.set_result(reply)
            return
        with obs.observe(self.observation):
            obs.metric_count(
                "service.failed", op=req.kind, tenant=req.tenant
            )
        if isinstance(error, ReproError) and not isinstance(error, ServiceError):
            # corrupt payloads etc. are the client's fault: bad_request
            error = ServiceRequestError(str(error))
        if isinstance(error, ServiceError):
            job.future.set_result(
                ServiceReply(
                    request_id=req.request_id, op=req.kind, ok=False,
                    error=error.reason, message=str(error),
                )
            )
        else:
            job.future.set_exception(error)

    def stats(self) -> dict:
        """Lightweight operational snapshot (queue, batching, admission)."""
        return {
            "queued": self._queue.qsize(),
            "inflight": len(self._inflight),
            "batches": self._batches,
            "jobs": self._jobs,
            "closed": self._closed,
            "admission": self.admission.snapshot(),
        }
