"""Gateway integration tests: wire schema, admission, drain, loadgen.

Everything here carries the ``service`` marker (``pytest -m service``).
Admission tests drive the token bucket with an injected clock so the
rejections are deterministic; the drain test kills a gateway mid-request
and asserts the crash-safe archive recovers clean (no torn entries); the
loadgen smoke test replays the seeded mix in-process and feeds its v8
report through the bench comparator against the committed v6 baseline.
"""
from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.errors import (
    CorruptBlobError,
    QueueFullError,
    QuotaExceededError,
    RateLimitedError,
    ServiceClosedError,
    ServiceError,
    ServiceRequestError,
    TruncatedStreamError,
    VersionError,
)
from repro.io.container import Archive, is_streamed_container
from repro.service import (
    ArchiveGetRequest,
    ArchivePutRequest,
    CompressRequest,
    DecompressRequest,
    Gateway,
    GatewayConfig,
    JobSpec,
    ServiceClient,
    ServiceReply,
    TenantPolicy,
    decode_message,
    encode_message,
    start_server,
)
from repro.service.admission import AdmissionController, TokenBucket

pytestmark = pytest.mark.service


@pytest.fixture()
def field():
    rng = np.random.default_rng(3)
    return np.cumsum(rng.standard_normal((10, 18, 18)), axis=0).astype(np.float32)


def _run(coro):
    return asyncio.run(coro)


# -- wire schema ---------------------------------------------------------------


def test_message_roundtrip_all_kinds(field):
    spec = JobSpec(error_bound=1e-3, auto=True)
    msgs = [
        CompressRequest.from_array("t", field, spec),
        DecompressRequest(tenant="t", blob=b"\x00\x01"),
        ArchivePutRequest.from_array("t", "e0", field, spec),
        ArchiveGetRequest(tenant="t", name="e0"),
        ServiceReply(request_id="r", op="compress", result=b"abc", meta={"x": 1}),
    ]
    for msg in msgs:
        back = decode_message(encode_message(msg))
        assert type(back) is type(msg)
        assert encode_message(back) == encode_message(msg)


def test_wire_rejections_are_typed(field):
    frame = encode_message(CompressRequest.from_array("t", field))
    with pytest.raises(CorruptBlobError):
        decode_message(b"XXXX" + frame[4:])
    with pytest.raises(TruncatedStreamError):
        decode_message(frame[:-3])
    with pytest.raises(CorruptBlobError):
        decode_message(frame + b"!")
    # schema bump: typed VersionError, never a silent parse
    import struct

    (hlen,) = struct.unpack_from("<I", frame, 4)
    header = json.loads(frame[8:8 + hlen].decode())
    header["schema"] = 99
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(VersionError):
        decode_message(frame[:4] + struct.pack("<I", len(hb)) + hb + frame[8 + hlen:])


def test_jobspec_rejects_unknown_and_invalid_fields():
    with pytest.raises(CorruptBlobError):
        JobSpec.from_dict({"compressor": "sz3", "mystery": 1})
    with pytest.raises(CorruptBlobError):
        JobSpec(error_bound=-1.0)
    with pytest.raises(CorruptBlobError):
        JobSpec(compressor="")
    assert JobSpec().batch_key == JobSpec().batch_key
    assert JobSpec().batch_key != JobSpec(auto=True).batch_key


def test_reply_raise_for_status_maps_reason_to_type():
    reply = ServiceReply(
        request_id="r", op="compress", ok=False, error="quota", message="over"
    )
    with pytest.raises(QuotaExceededError):
        reply.raise_for_status()
    generic = ServiceReply(request_id="r", op="x", ok=False, error="???")
    with pytest.raises(ServiceError):
        generic.raise_for_status()


# -- admission: token bucket, quotas, queue ------------------------------------


def test_token_bucket_deterministic_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: now[0])
    assert [bucket.try_take() for _ in range(3)] == [True, True, True]
    assert not bucket.try_take()
    now[0] += 0.5  # one token refilled
    assert bucket.try_take()
    assert not bucket.try_take()


def test_admission_quota_before_rate():
    now = [0.0]
    ctl = AdmissionController(
        TenantPolicy(rate=1.0, burst=1, max_inflight=1), clock=lambda: now[0]
    )
    ctl.admit("t")
    # inflight full: quota rejection even though the bucket is also empty
    with pytest.raises(QuotaExceededError):
        ctl.admit("t")
    ctl.finished("t")
    with pytest.raises(RateLimitedError):
        ctl.admit("t")  # now the bucket is the binding constraint


def test_two_tenants_quota_rejection_and_counter(field, tmp_path):
    """One tenant exceeds its quota; the other is unaffected; the typed
    rejection increments the dedicated obs counter."""

    async def main():
        cfg = GatewayConfig(
            workers=1,
            policies={"greedy": TenantPolicy(max_inflight=1)},
            default_policy=TenantPolicy(max_inflight=8),
        )
        async with Gateway(cfg) as gw:
            first = asyncio.ensure_future(
                gw.submit(CompressRequest.from_array("greedy", field))
            )
            await asyncio.sleep(0)  # let it admit
            with pytest.raises(QuotaExceededError):
                await gw.submit(CompressRequest.from_array("greedy", field))
            # the polite tenant is not affected by greedy's quota
            ok = await gw.submit(CompressRequest.from_array("polite", field))
            assert ok.ok
            assert (await first).ok
            snap = gw.observation.metrics.snapshot()
            key = "service.rejected{reason=quota,tenant=greedy}"
            assert snap[key]["value"] == 1
            assert not any(
                "tenant=polite" in k for k in snap if "rejected" in k
            )

    _run(main())


def test_queue_full_typed_rejection_and_release(field):
    async def main():
        gw = Gateway(GatewayConfig(workers=1, queue_depth=1))
        # no start(): the dispatcher cannot drain, so depth 1 fills at once
        parked = asyncio.ensure_future(
            gw.submit(CompressRequest.from_array("a", field))
        )
        await asyncio.sleep(0)
        with pytest.raises(QueueFullError):
            await gw.submit(CompressRequest.from_array("b", field))
        snap = gw.observation.metrics.snapshot()
        assert snap["service.rejected{reason=queue_full,tenant=b}"]["value"] == 1
        # the rejected request must not leak an admission slot
        assert gw.admission.inflight("b") == 0
        parked.cancel()
        await gw.stop(drain=False)

    _run(main())


def test_rate_limit_typed_rejection(field):
    async def main():
        cfg = GatewayConfig(
            workers=1,
            default_policy=TenantPolicy(rate=1e-9, burst=1, max_inflight=8),
        )
        async with Gateway(cfg) as gw:
            assert (await gw.submit(CompressRequest.from_array("t", field))).ok
            with pytest.raises(RateLimitedError):
                await gw.submit(CompressRequest.from_array("t", field))
            snap = gw.observation.metrics.snapshot()
            assert (
                snap["service.rejected{reason=rate_limited,tenant=t}"]["value"] == 1
            )

    _run(main())


# -- the serving paths ---------------------------------------------------------


def test_compress_decompress_roundtrip_batched(field):
    async def main():
        async with Gateway(GatewayConfig(workers=2)) as gw:
            spec = JobSpec(error_bound=1e-3)
            replies = await asyncio.gather(*(
                gw.submit(CompressRequest.from_array("t", field, spec))
                for _ in range(6)
            ))
            assert all(r.ok for r in replies)
            # same spec: the dispatcher batches them onto shared pool jobs
            assert gw.stats()["batches"] < 6
            back = await gw.submit(
                DecompressRequest(tenant="t", blob=replies[0].result)
            )
            out = back.array()
            assert out.shape == field.shape
            assert np.abs(out - field).max() <= 1e-3 * 1.0001

    _run(main())


def test_oversized_input_takes_streamed_route(field):
    async def main():
        cfg = GatewayConfig(workers=1, stream_threshold_bytes=field.nbytes)
        async with Gateway(cfg) as gw:
            r = await gw.submit(CompressRequest.from_array("t", field))
            assert r.meta.get("streamed") is True
            assert is_streamed_container(r.result[:8])
            back = await gw.submit(DecompressRequest(tenant="t", blob=r.result))
            assert back.meta.get("streamed") is True
            assert np.abs(back.array() - field).max() <= 1e-3 * 1.0001

    _run(main())


def test_archive_put_get_and_bad_request(field, tmp_path):
    async def main():
        path = str(tmp_path / "svc.rar1")
        async with Gateway(GatewayConfig(workers=1, archive_path=path)) as gw:
            put = await gw.submit(
                ArchivePutRequest.from_array("t", "vol", field)
            )
            assert put.ok
            got = await gw.submit(ArchiveGetRequest(tenant="t", name="vol"))
            from repro.compressors import decompress_any

            assert np.abs(decompress_any(got.result) - field).max() <= 1e-3 * 1.0001
            # duplicate put and missing get are typed bad_request replies
            dup = await gw.submit(
                ArchivePutRequest.from_array("t", "vol", field)
            )
            assert not dup.ok and dup.error == "bad_request"
            missing = await gw.submit(ArchiveGetRequest(tenant="t", name="nope"))
            assert not missing.ok and missing.error == "bad_request"
            with pytest.raises(ServiceRequestError):
                missing.raise_for_status()

    _run(main())


def test_corrupt_payload_is_bad_request_reply(field):
    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            r = await gw.submit(DecompressRequest(tenant="t", blob=b"garbage"))
            assert not r.ok and r.error == "bad_request"

    _run(main())


def test_malformed_streamed_container_is_bad_request_reply():
    """An 8x8x8 segment in a container that declares a 16x16x16 volume is
    the client's fault: a typed bad_request reply, on the wire and from
    submit alike."""
    import io

    from repro.compressors import get_compressor
    from repro.io.container import ContainerWriter

    rng = np.random.default_rng(4)
    part = np.cumsum(rng.standard_normal((8, 8, 8)), axis=0).astype(np.float32)
    sink = io.BytesIO()
    meta = {"compressor": "sz3", "dtype": "<f4", "shape": [16, 16, 16],
            "error_bound": 1e-3}
    with ContainerWriter(sink, axis=0, meta=meta) as w:
        w.append(get_compressor("sz3", 1e-3).compress(part))
    req = DecompressRequest(tenant="t", blob=sink.getvalue())

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            reply = decode_message(await gw.handle(encode_message(req)))
            assert not reply.ok and reply.error == "bad_request"
            r = await gw.submit(req)
            assert not r.ok and r.error == "bad_request"

    _run(main())


def test_wire_geometry_mismatch_is_bad_request_reply(field):
    """A frame whose payload does not match its declared shape/dtype must
    come back as a typed reply, never a raw ValueError out of handle()."""

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            bad = CompressRequest(
                tenant="t", spec=JobSpec(), shape=(5, 5), dtype="<f4",
                data=b"\x00" * 7,
            )
            raw = await gw.handle(encode_message(bad))
            reply = decode_message(raw)
            assert isinstance(reply, ServiceReply)
            assert not reply.ok and reply.error == "bad_request"
            # the gateway is still fully serviceable afterwards
            ok = await gw.submit(CompressRequest.from_array("t", field))
            assert ok.ok

    _run(main())


def test_bad_item_does_not_poison_batch(field):
    """One tenant's malformed payload inside a micro-batch fails only that
    request — same-spec batchmates from other tenants still succeed."""

    async def main():
        cfg = GatewayConfig(workers=1, batch_window_ms=100.0)
        async with Gateway(cfg) as gw:
            good = CompressRequest.from_array("acme", field)
            bad = CompressRequest(
                tenant="evil", spec=JobSpec(), shape=field.shape,
                dtype=field.dtype.str, data=field.tobytes()[:-4],
            )
            good_r, bad_r = await asyncio.gather(
                gw.submit(good), gw.submit(bad)
            )
            assert good_r.ok, good_r.message
            assert not bad_r.ok and bad_r.error == "bad_request"
            assert "bytes" in bad_r.message  # the geometry diagnosis

    _run(main())


def test_archive_duplicate_fails_only_offending_job(field, tmp_path):
    """A duplicate archive name in a mixed compress/put group fails that
    job alone; the batchmates' replies are unaffected."""

    async def main():
        path = str(tmp_path / "grp.rar1")
        cfg = GatewayConfig(workers=1, archive_path=path, batch_window_ms=100.0)
        async with Gateway(cfg) as gw:
            assert (
                await gw.submit(ArchivePutRequest.from_array("t", "vol", field))
            ).ok
            dup, comp, other = await asyncio.gather(
                gw.submit(ArchivePutRequest.from_array("t", "vol", field)),
                gw.submit(CompressRequest.from_array("t", field)),
                gw.submit(ArchivePutRequest.from_array("t", "vol2", field)),
            )
            assert not dup.ok and dup.error == "bad_request"
            assert comp.ok, comp.message
            assert other.ok, other.message

    _run(main())


def test_dispatcher_survives_undispatchable_spec(field):
    """A spec whose qp dict cannot be JSON-serialized fails typed instead
    of killing the dispatcher task; later requests still get served."""

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            poisoned = JobSpec(qp={"bad": object()})
            r = await gw.submit(
                CompressRequest.from_array("t", field, poisoned)
            )
            assert not r.ok and r.error == "bad_request"
            ok = await gw.submit(CompressRequest.from_array("t", field))
            assert ok.ok

    _run(main())


def test_qp_spec_is_served(field):
    """A qp spec reaches the base compressor: the reply holds the blob a
    direct SZ3 call with that config writes."""
    from repro.compressors import SZ3
    from repro.core.config import QPConfig

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            spec = JobSpec(error_bound=1e-3, qp=QPConfig().to_dict())
            req = CompressRequest.from_array("t", field, spec)
            reply = decode_message(await gw.handle(encode_message(req)))
            assert reply.ok, reply.message
            assert reply.result == SZ3(1e-3, qp=QPConfig()).compress(field)

    _run(main())


@pytest.mark.parametrize(
    "spec",
    [
        JobSpec(qp={"dimension": "4d"}),
        JobSpec(compressor="zfp", qp={"enabled": True}),
    ],
    ids=["bad-dimension", "enabled-qp-on-zfp"],
)
def test_bad_qp_spec_is_bad_request(field, spec):
    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            req = CompressRequest.from_array("t", field, spec)
            reply = decode_message(await gw.handle(encode_message(req)))
            assert not reply.ok and reply.error == "bad_request", reply.message
            ok = await gw.submit(CompressRequest.from_array("t", field))
            assert ok.ok

    _run(main())


def test_streamed_route_honors_auto(field):
    async def main():
        cfg = GatewayConfig(workers=1, stream_threshold_bytes=field.nbytes)
        async with Gateway(cfg) as gw:
            spec = JobSpec(error_bound=1e-3, auto=True)
            r = await gw.submit(CompressRequest.from_array("t", field, spec))
            assert r.ok and r.meta.get("streamed") is True
            # the sampling tuner ran on the streamed route too
            names = {s.name for s in gw.observation.tracer.spans}
            assert "autotune" in names
            back = await gw.submit(DecompressRequest(tenant="t", blob=r.result))
            assert np.abs(back.array() - field).max() <= 1e-3 * 1.0001

    _run(main())


def test_handle_internal_error_is_typed_reply(field):
    """Unexpected server-side exceptions become an ok=False reply with the
    reserved 'internal' code — handle() never raises to the transport."""

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            async def boom(request):
                raise RuntimeError("wires crossed")

            gw.submit = boom
            raw = await gw.handle(
                encode_message(CompressRequest.from_array("t", field))
            )
            reply = decode_message(raw)
            assert not reply.ok and reply.error == "internal"
            assert "wires crossed" in reply.message
            with pytest.raises(ServiceError):
                reply.raise_for_status()

    _run(main())


def test_drain_no_torn_archive_entries(field, tmp_path):
    """Stop mid-flight: every admitted put completes, the archive recovers
    clean, and post-drain submits fail typed."""

    async def main():
        path = str(tmp_path / "drain.rar1")
        gw = Gateway(GatewayConfig(workers=1, archive_path=path))
        gw.start()
        pending = [
            asyncio.ensure_future(
                gw.submit(ArchivePutRequest.from_array("t", f"e{i}", field))
            )
            for i in range(4)
        ]
        await asyncio.sleep(0)
        await gw.stop()  # drain: admitted work must finish
        replies = await asyncio.gather(*pending)
        assert all(r.ok for r in replies)
        with pytest.raises(ServiceClosedError):
            await gw.submit(CompressRequest.from_array("t", field))
        snap = gw.observation.metrics.snapshot()
        assert snap["service.rejected{reason=closed,tenant=t}"]["value"] == 1
        return path

    path = _run(main())
    archive = Archive(path)
    assert archive.recover() == "clean"
    # archive keys are tenant-namespaced on disk
    assert sorted(archive.names()) == ["t/e0", "t/e1", "t/e2", "t/e3"]
    assert all(archive.verify_all().values())


def test_fork_pool_spans_merge_into_gateway_observation(field):
    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            await gw.submit(CompressRequest.from_array("t", field))
            names = {s.name for s in gw.observation.tracer.spans}
            # worker-side spans shipped back and merged in the parent
            assert "service.batch.compress" in names
            assert "compress" in names

    _run(main())


# -- TCP transport -------------------------------------------------------------


def test_tcp_roundtrip_and_typed_error(field):
    async def main():
        cfg = GatewayConfig(
            workers=1,
            policies={"limited": TenantPolicy(max_inflight=8, rate=1e-9, burst=1)},
        )
        async with Gateway(cfg) as gw:
            server = await start_server(gw, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with ServiceClient("127.0.0.1", port) as client:
                reply = await client.compress("t", field)
                out = await client.decompress("t", reply.result)
                assert np.abs(out - field).max() <= 1e-3 * 1.0001
                # admission rejection crosses the wire as a typed error
                assert (await client.compress("limited", field)).ok
                with pytest.raises(RateLimitedError):
                    await client.compress("limited", field)
            server.close()
            await server.wait_closed()

    _run(main())


# -- loadgen smoke + bench v8 comparator ---------------------------------------


def test_loadgen_smoke_report_compares_against_v6_baseline(tmp_path, capsys):
    import pathlib
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "tools"))
    try:
        import bench
        import loadgen
    finally:
        sys.path.pop(0)

    out = tmp_path / "LOAD.json"
    assert loadgen.main([
        "--smoke", "--seed", "7", "--out", str(out), "--workers", "1",
        "--concurrency", "4",
    ]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 8
    summary = report["service_summary"]
    assert summary["_total"]["requests"] > 0
    assert summary["_total"]["rejected"] == 0
    for tenant, digest in summary.items():
        assert digest["p50_s"] <= digest["p99_s"] * (1 + 1e-9)
        assert 0.0 <= digest["prefix_ratio"] <= 1.0
    # the smoke mix includes range ops, so some coarse prefixes were served
    assert 0 < summary["_total"]["prefix_bytes"] <= summary["_total"]["full_bytes"]

    # the committed v6 baseline accepts the v8 report: service keys are
    # new, never regressions (v7 baselines likewise — only the latency
    # quantiles are flattened, not the prefix-ratio keys)
    baseline_path = root / "BENCH_pipeline.json"
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        assert bench.compare_reports(baseline, report) == 0
    # v8 self-compare diffs the service keys
    assert bench.compare_reports(report, report) == 0
    capsys.readouterr()  # swallow the comparator tables


def test_loadgen_schedule_is_seeded():
    import pathlib
    import sys

    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "tools"))
    try:
        import loadgen
    finally:
        sys.path.pop(0)

    a = loadgen.build_schedule(5, 6, 1, 2)
    b = loadgen.build_schedule(5, 6, 1, 2)
    assert [e["op"] for e in a] == [e["op"] for e in b]
    assert [e["tenant"] for e in a] == [e["tenant"] for e in b]
    assert all(
        np.array_equal(x["data"], y["data"]) for x, y in zip(a, b)
    )
    c = loadgen.build_schedule(6, 6, 1, 2)
    assert [e["tenant"] for e in a] != [e["tenant"] for e in c] or [
        e["op"] for e in a
    ] != [e["op"] for e in c]
