"""gateway-mixed: mixed traffic into an in-process gateway, closed loop.

One asyncio caller sends seeded sessions back to back to a ``Gateway``
(default config, 2 fork workers; only the archive path and a stream
threshold the big class crosses are set) through its wire entry,
``Gateway.handle(encode_message(request))``, so RSV1 encode and decode
run without a socket.  Three tenants; sessions are dealt 96:4:12:8:

* small 12x16x16 compress, half of them followed by a decompress;
* big 48x72x72 compress on the streamed route;
* archive put, then get;
* progressive put, then a coarse range-get, every other one refined.

A follow-up request is sent when its predecessor completes, and so is
the next session.  The run lasts ``--seconds`` and at least
``MIN_REQUESTS`` requests, so ten samples lie beyond the p99.

Why a closed loop with one caller: an open loop at half the knee
(25 sessions/s) gave p50 latencies from 31 to 50 ms across five runs on
the reference VM, rising with the host's CPU steal (0.7 % to 7.8 %)
even on a steal-corrected clock, because each stall queues every request
behind it.  One caller has no queue for a stall to fill.  Times are on
the sampler's steal-corrected clock with the whole steal charged to the
serial path.
"""
from __future__ import annotations

import asyncio
import math
import os
import time

import numpy as np

from . import inputs
from .common import MB, Sampler, Tally, child_pids, hit_ratio, median
from .common import psnr_db, quantile, within_bound
from .faults import Faults

#: ten samples beyond the p99
MIN_REQUESTS = 1000
#: sessions drawn per run: more than one run can use (about 1.6 requests
#: per session, about 35 requests/s on the reference VM)
SESSIONS = 1500
#: big inputs are 972 KiB, small ones 3 KiB
STREAM_THRESHOLD = 1 << 19
ERROR_BOUND = 1e-3
SETUP_REPEATS = 3
TINY_SESSIONS = 40
TINY_REQUESTS = 20
#: latency charged to a failed request: it misses any limit, and unlike
#: inf it keeps interpolated percentiles finite
FAILED_LATENCY_S = 1e6


def _coarsest_level(shape) -> int:
    """Interpolation levels of a grid: enough that the anchor grid along
    the longest axis has very few points (the coarsest range level)."""
    longest = max(shape)
    return max(1, math.ceil(math.log2(longest - 1))) if longest > 2 else 1


class Recorder:
    """Per-request outcomes of one phase."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.queue_depths: list[int] = []
        self.checks: list[tuple] = []  # deferred output checks
        self.seconds = 0.0


class GatewayMixed:
    def __init__(self, root: str, seed: int, tiny: bool, faults: Faults) -> None:
        self.root = root
        self.seed = seed
        self.faults = faults
        self.min_requests = TINY_REQUESTS if tiny else MIN_REQUESTS
        # the traffic is drawn from the seed before the set-up clock starts
        self.sessions = inputs.gateway_sessions(
            seed, TINY_SESSIONS if tiny else SESSIONS)
        self.work = os.path.join(root, inputs.CACHE_DIR, "work")
        os.makedirs(self.work, exist_ok=True)
        self.archives: list[str] = []
        self.gateway = None
        # the timed phases switch to the sampler's steal-corrected clock
        self.clock = time.perf_counter

    # -- set-up ----------------------------------------------------------------

    def _archive_path(self) -> str:
        path = os.path.join(
            self.work, f"gw-{self.seed}-{os.getpid()}-{len(self.archives)}.rar1"
        )
        self.archives.append(path)
        self._remove(path)
        return path

    @staticmethod
    def _remove(path: str) -> None:
        for p in (path, path + ".journal"):
            if os.path.exists(p):
                os.remove(p)

    async def setup(self) -> float:
        """Import, start a gateway (fork pool included) and warm every
        traffic class once; gateway start + warm repeats ``SETUP_REPEATS``
        times (median) and the last gateway serves the run."""
        t0 = time.perf_counter()
        from repro.service import (ArchiveGetRequest, ArchivePutRequest,
                                   CompressRequest, DecompressRequest, Gateway,
                                   GatewayConfig, JobSpec, RangeGetRequest,
                                   decode_message, encode_message)

        self.api = {
            "ArchiveGetRequest": ArchiveGetRequest,
            "ArchivePutRequest": ArchivePutRequest,
            "CompressRequest": CompressRequest,
            "DecompressRequest": DecompressRequest,
            "RangeGetRequest": RangeGetRequest,
            "encode": encode_message,
            "decode": decode_message,
        }
        self.spec = JobSpec(compressor="sz3", error_bound=ERROR_BOUND)
        self.prog_spec = JobSpec(compressor="sz3_progressive",
                                 error_bound=ERROR_BOUND)
        import_s = time.perf_counter() - t0
        rng = np.random.default_rng([self.seed, 11])
        warm = [  # one session of every class, with its follow-ups
            {"cls": cls, "tenant": "warm", "id": i, "follow": True,
             "data": inputs.walk_field(
                 rng, inputs.BIG_SHAPE if cls == "big" else inputs.SMALL_SHAPE)}
            for i, cls in enumerate(inputs.SESSION_WEIGHTS)
        ]
        reps = []
        for _ in range(SETUP_REPEATS):
            if self.gateway is not None:
                await self.gateway.stop()
            t1 = time.perf_counter()
            gw = Gateway(GatewayConfig(
                archive_path=self._archive_path(),
                stream_threshold_bytes=STREAM_THRESHOLD,
            ))
            gw.start()
            self.gateway = gw
            for s in warm:
                await self.session(s, Recorder(), Tally(), "warm")
            reps.append(time.perf_counter() - t1)
        self.workers = child_pids()
        return import_s + median(reps)

    # -- one request / one session ----------------------------------------------

    async def request(self, req, rec: Recorder, kind: str, tally: Tally,
                      sid: int):
        from .trace import reset_operation, set_operation

        token = set_operation(req.request_id)
        t0 = self.clock()
        try:
            reply = self.api["decode"](
                await self.gateway.handle(self.api["encode"](req))
            )
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            reply = None
            tally.fail(f"{kind}:{type(exc).__name__}")
        finally:
            reset_operation(token)
        ok = reply is not None and reply.ok
        if reply is not None and not reply.ok:
            tally.fail(f"{kind}:{reply.error}")
        elif ok:
            tally.ok()
        row = {"kind": kind, "ok": ok, "latency": self.clock() - t0, "sid": sid}
        rec.rows.append(row)
        return (reply if ok else None), row

    async def session(self, s: dict, rec: Recorder, tally: Tally,
                      tag: str) -> None:
        api = self.api
        tenant = s["tenant"]
        data = s["data"]
        rid = f"{tag}-{self.seed}-{s['id']}"
        cls = s["cls"]
        if cls in ("small", "big"):
            req = api["CompressRequest"].from_array(tenant, data, self.spec,
                                                    request_id=rid + "-c")
            reply, row = await self.request(req, rec, "compress", tally, s["id"])
            if reply is None:
                return
            row.update(bits=len(reply.result) * 8, points=data.size,
                       in_bytes=data.nbytes)
            blob = self.faults.blob(0, reply.result)
            if cls == "small" and s["follow"]:
                req = api["DecompressRequest"](tenant=tenant, blob=blob,
                                               request_id=rid + "-d")
                reply, row = await self.request(req, rec, "decompress", tally, s["id"])
                if reply is not None:
                    out = self.faults.decoded(0, reply.array(), ERROR_BOUND)
                    ok, sq, _ = within_bound(out, data, ERROR_BOUND)
                    row.update(out_bytes=out.nbytes,
                               psnr=psnr_db(sq, data.size, float(np.ptp(data))))
                    if not ok:
                        row["ok"] = False
                        tally.miss("error_bound")
            else:
                rec.checks.append(("blob", blob, data, ERROR_BOUND, row))
        elif cls == "archive":
            req = api["ArchivePutRequest"].from_array(
                tenant, rid, data, self.spec, request_id=rid + "-p")
            reply, _ = await self.request(req, rec, "put", tally, s["id"])
            if reply is None:
                return
            size = reply.meta.get("compressed_bytes")
            req = api["ArchiveGetRequest"](tenant=tenant, name=rid,
                                           request_id=rid + "-g")
            reply, row = await self.request(req, rec, "get", tally, s["id"])
            if reply is not None:
                # the get must return the bytes the put stored
                blob = reply.result if len(reply.result) == size else b""
                rec.checks.append(("blob", blob, data, ERROR_BOUND, row))
        else:  # progressive put, coarse range-get, maybe refine
            req = api["ArchivePutRequest"].from_array(
                tenant, rid, data, self.prog_spec, request_id=rid + "-p")
            reply, _ = await self.request(req, rec, "put", tally, s["id"])
            if reply is None:
                return
            req = api["RangeGetRequest"](tenant=tenant, name=rid,
                                         level=_coarsest_level(data.shape),
                                         request_id=rid + "-r")
            coarse, row = await self.request(req, rec, "range", tally, s["id"])
            if coarse is None:
                return
            # the preview must hold the bound its level table states
            rec.checks.append(("preview", coarse.result, data,
                               float(coarse.meta["eb"]), row))
            if s["follow"]:
                req = api["RangeGetRequest"](tenant=tenant, name=rid,
                                             start=len(coarse.result),
                                             request_id=rid + "-f")
                rest, row = await self.request(req, rec, "refine", tally, s["id"])
                if rest is not None:
                    rec.checks.append(("blob", coarse.result + rest.result,
                                       data, ERROR_BOUND, row))

    # -- phases --------------------------------------------------------------------

    async def run_sessions(self, seconds: float, rec: Recorder, tally: Tally,
                           tag: str) -> None:
        """Sessions back to back until ``seconds`` have passed and at least
        ``min_requests`` requests were made (or the sessions run out)."""
        t0 = self.clock()
        deadline = time.perf_counter() + seconds
        for s in self.sessions:
            if time.perf_counter() >= deadline and len(rec.rows) >= self.min_requests:
                break
            rec.queue_depths.append(self.gateway.stats()["queued"])
            await self.session(s, rec, tally, tag)
        rec.seconds = self.clock() - t0

    def verify(self, rec: Recorder, tally: Tally) -> None:
        """Deferred output checks, after the timed phase.  Plain blobs are
        decoded in one batch; a batch that fails is redone blob by blob so
        only the damaged ones count."""
        import repro
        from repro.compressors.progressive import decompress_prefix
        from repro.compressors.registry import decompress_many

        def decode(kind, blob):
            if kind == "preview":
                return decompress_prefix(blob).array
            return repro.decompress(blob)

        plain = [c for c in rec.checks
                 if c[0] == "blob" and not c[1].startswith(b"RSTR")]
        outs: dict[int, np.ndarray] = {}
        try:
            for c, out in zip(plain, decompress_many([c[1] for c in plain])):
                outs[id(c)] = out
        except Exception:  # noqa: BLE001 - isolate the damaged blobs below
            outs = {}
        for c in rec.checks:
            kind, blob, data, eb, row = c
            try:
                out = outs[id(c)] if id(c) in outs else decode(kind, blob)
                ok = within_bound(out, data, eb)[0]
            except Exception:  # noqa: BLE001 - a damaged output is a failure
                ok = False
            if not ok and row["ok"]:
                row["ok"] = False
                tally.miss("output_check")

    def quality_sessions(self) -> int:
        """How many leading sessions every run completes: those holding the
        first ``min_requests`` requests.  Bits per point and PSNR are taken
        over them, so they repeat exactly for one seed."""
        total = 0
        for i, s in enumerate(self.sessions):
            total += {"small": 1, "big": 1, "archive": 2, "range": 2}[s["cls"]]
            total += int(s.get("follow", False) and s["cls"] in ("small", "range"))
            if total >= self.min_requests:
                return i + 1
        return len(self.sessions)

    def close(self) -> None:
        for path in self.archives:
            self._remove(path)


# -- metrics ---------------------------------------------------------------------


def end_to_end(rec: Recorder, setup_s: float, peak_mb: float,
               tally: Tally, quality_sessions: int) -> tuple[dict, dict]:
    lat = [r["latency"] if r["ok"] else FAILED_LATENCY_S for r in rec.rows]
    comp = [r for r in rec.rows if r["kind"] == "compress" and r["ok"]]
    dec = [r for r in rec.rows if r["kind"] == "decompress" and "out_bytes" in r]
    comp_q = [r for r in comp if r["sid"] < quality_sessions]
    dec_q = [r for r in dec if r["sid"] < quality_sessions]
    metrics = {
        "compress_mbps": sum(r["in_bytes"] for r in comp) / MB
        / max(1e-9, sum(r["latency"] for r in comp)),
        "decompress_mbps": sum(r["out_bytes"] for r in dec) / MB
        / max(1e-9, sum(r["latency"] for r in dec)),
        "bits_per_point": sum(r["bits"] for r in comp_q)
        / max(1, sum(r["points"] for r in comp_q)),
        "psnr_db": float(np.mean([r["psnr"] for r in dec_q])) if dec_q else 0.0,
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_p99_ms": quantile(lat, 0.99) * 1e3,
        "slo_rps": sum(1 for r in rec.rows if r["ok"]) / max(1e-9, rec.seconds),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
        "ok_frac": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }
    samples = {
        "latency_samples": len(lat),
        "latency": "one request, send to reply; a failure counts as 1e6 s",
        "requests_by_kind": {k: sum(1 for r in rec.rows if r["kind"] == k)
                             for k in sorted({r["kind"] for r in rec.rows})},
    }
    return metrics, samples


def layer_metrics(rec: Recorder, tracer, gateway, first_span: int,
                  untraced_p50: float, traced_wall: float, cache: tuple,
                  sampler) -> dict:
    from .layers import SpanIndex, codec_layer_metrics, from_obs
    from .layers import io_stream_metrics, service_metrics

    merged = [s for s in gateway.observation.tracer.spans[first_span:]
              if (s.worker or "").startswith("batch")]
    spans = list(tracer.spans) + from_obs(merged, len(tracer.spans) + 1_000_000_000)
    ix = SpanIndex(spans)
    m = codec_layer_metrics(ix)
    m.update(io_stream_metrics(ix, sampler))
    m.update(service_metrics(ix, rec.queue_depths))
    m["huffman.table_cache.hit_ratio"] = hit_ratio(*cache)
    lat = [r["latency"] for r in rec.rows if r["ok"]]
    m["loadgen.lag_p99_ms"] = 0.0  # a closed loop has no schedule to lag
    m["loadgen.requests"] = float(len(rec.rows))
    m["trace.overhead_frac"] = median(lat) / untraced_p50 - 1.0 if untraced_p50 else 0.0
    m["unattributed_s"] = max(0.0, traced_wall - ix.top_level_union())
    return m


async def _run(wl: GatewayMixed, seconds: float, trace: bool, tag: str) -> dict:
    sampler = None
    try:
        setup_s = await wl.setup()
        tally = Tally()
        sampler = Sampler(wl.workers).start()
        wl.clock = sampler.now
        if not trace:
            base = sampler.samples[-1][1]
            rec = Recorder()
            t0 = time.perf_counter()
            await wl.run_sessions(seconds, rec, tally, tag)
            t1 = time.perf_counter()
            sampler.stop()
            wl.verify(rec, tally)
            peak_mb = (sampler.peak_between(t0, t1) - base) / 1e6
            metrics, samples = end_to_end(rec, setup_s, peak_mb, tally,
                                          wl.quality_sessions())
            samples["host_steal_share"] = sampler.steal_share()
            samples["clock"] = "wall seconds minus the VM's steal (serial path)"
            return {"tally": tally, "metrics": metrics, "samples": samples}

        from repro.codecs.huffman import decode_table_cache_info

        from .trace import Tracer, install

        # first half untraced, second half traced, for the overhead
        wl.min_requests = 1
        plain = Recorder()
        await wl.run_sessions(seconds / 2, plain, tally, tag + "u")
        untraced_p50 = median([r["latency"] for r in plain.rows if r["ok"]])
        tracer = Tracer()
        install(tracer)
        first_span = len(wl.gateway.observation.tracer.spans)
        c0 = decode_table_cache_info()
        rec = Recorder()
        tracer.enabled = True
        t0 = time.perf_counter()
        await wl.run_sessions(seconds / 2, rec, tally, tag + "t")
        traced_wall = time.perf_counter() - t0
        tracer.enabled = False
        tracer.uninstall()
        sampler.stop()
        c1 = decode_table_cache_info()
        wl.verify(plain, tally)
        wl.verify(rec, tally)
        layers = layer_metrics(
            rec, tracer, wl.gateway, first_span, untraced_p50, traced_wall,
            (c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]), sampler)
        return {"tally": tally, "layers": layers,
                "samples": {"spans": len(tracer.spans),
                            "span_file": tracer.dump(wl.root, tag),
                            "requests": len(rec.rows)}}
    finally:
        if sampler is not None:
            sampler.stop()
        if wl.gateway is not None:
            await wl.gateway.stop()


def run(root: str, seed: int, seconds: float, trace: bool, tiny: bool,
        faults: Faults, tag: str) -> dict:
    wl = GatewayMixed(root, seed, tiny, faults)
    try:
        return asyncio.run(_run(wl, seconds, trace, tag))
    finally:
        wl.close()
