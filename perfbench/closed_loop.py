"""Run loop shared by the closed-loop workloads (codec-qp, stream-large).

A workload object provides ``setup() -> seconds``,
``make_clock(sampler)`` (the clock its calls are timed with, named by
``CLOCK``) and ``one_pass(tally, acc) -> dict`` (compress and decompress
seconds on that clock, input bytes, items).  The untraced run repeats passes for the run's time and
reports the end-to-end metrics.  The traced run alternates untraced and
traced passes: per-layer metrics come from the traced passes, and
``trace.overhead_frac`` compares the median time the two kinds of pass
spent inside the program's calls.
"""
from __future__ import annotations

import time

import numpy as np

from .common import MB, Sampler, Tally, anon_rss_bytes, hit_ratio, median
from .common import quantile
from .layers import SpanIndex, codec_layer_metrics, io_stream_metrics
from .layers import service_metrics
from .trace import Tracer, install


def new_acc() -> dict:
    """Per-run accumulator: round-trip latencies, and the first pass's
    (compressed bits, points, PSNR) per item."""
    return {"latency": [], "first": {}}


def end_to_end(passes: list[dict], acc: dict, setup_s: float, peak_mb: float,
               tally: Tally) -> dict:
    bits = sum(v[0] for v in acc["first"].values())
    points = sum(v[1] for v in acc["first"].values())
    lat = acc["latency"]
    return {
        "compress_mbps": median(
            [p["bytes"] / MB / p["compress_s"] for p in passes if p["compress_s"]]
        ),
        "decompress_mbps": median(
            [p["bytes"] / MB / p["decompress_s"] for p in passes if p["decompress_s"]]
        ),
        "bits_per_point": bits / max(1, points),
        "psnr_db": float(np.mean([v[2] for v in acc["first"].values()]))
        if acc["first"] else 0.0,
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_p99_ms": quantile(lat, 0.99) * 1e3,
        "slo_rps": median([p["items"] / (p["compress_s"] + p["decompress_s"])
                           for p in passes if p["compress_s"] + p["decompress_s"]]),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
        "ok_frac": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }


def run_passes(wl, seconds: float, tally: Tally, acc: dict) -> list[dict]:
    """Whole passes for about ``seconds`` (at least one): a pass starts
    only if it should end less than half a pass past the deadline."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        p = wl.one_pass(tally, acc)
        p["wall_s"] = time.perf_counter() - t0
        passes.append(p)
        if time.perf_counter() + p["wall_s"] / 2 >= deadline:
            return passes


def run_closed_loop(wl, seconds: float, trace: bool, root: str, tag: str) -> dict:
    setup_s = wl.setup()
    tally = Tally()
    acc = new_acc()
    if trace:
        return traced_passes(wl, seconds, tally, acc, root, tag)
    sampler = Sampler().start()
    wl.clock = wl.make_clock(sampler)
    base = anon_rss_bytes()
    t0 = time.perf_counter()
    passes = run_passes(wl, seconds, tally, acc)
    t1 = time.perf_counter()
    sampler.stop()
    peak_mb = (sampler.peak_between(t0, t1) - base) / 1e6
    lat = acc["latency"]
    samples = {
        "clock": wl.CLOCK,
        "host_steal_share": sampler.steal_share(),
        "passes": [{k: round(v, 4) for k, v in p.items()} for p in passes],
        "latency_samples": len(lat),
        "items": {"/".join(map(str, k)): {"bits": v[0], "points": v[1],
                                          "psnr_db": v[2]}
                  for k, v in acc["first"].items()},
    }
    return {"tally": tally, "samples": samples,
            "metrics": end_to_end(passes, acc, setup_s, peak_mb, tally)}


def traced_passes(wl, seconds: float, tally: Tally, acc: dict,
                  root: str, tag: str) -> dict:
    from repro.codecs.huffman import decode_table_cache_info

    tracer = Tracer()
    sampler = Sampler().start()
    wl.clock = wl.make_clock(sampler)
    # per pass: time inside the program's calls, on the workload's clock
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_wall = 0.0
    calls = hits = misses = 0
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        if traced:
            install(tracer)
            c0 = decode_table_cache_info()
            tracer.enabled = True
        t0 = time.perf_counter()
        p = wl.one_pass(tally, acc)
        wall = time.perf_counter() - t0
        if traced:
            tracer.enabled = False
            tracer.uninstall()
            c1 = decode_table_cache_info()
            hits += c1["hits"] - c0["hits"]
            misses += c1["misses"] - c0["misses"]
            traced_wall += wall
            calls += 2 * p["items"]  # one compress and one decompress each
        walls[traced].append(p["compress_s"] + p["decompress_s"])
        traced = not traced
        if time.perf_counter() + wall / 2 >= deadline and walls[True]:
            break
    sampler.stop()
    ix = SpanIndex(tracer.spans)
    m = codec_layer_metrics(ix)
    m.update(io_stream_metrics(ix, sampler))
    m.update(service_metrics(ix))
    m["huffman.table_cache.hit_ratio"] = hit_ratio(hits, misses)
    m["loadgen.lag_p99_ms"] = 0.0
    m["loadgen.requests"] = float(calls)
    m["trace.overhead_frac"] = median(walls[True]) / median(walls[False]) - 1.0
    m["unattributed_s"] = max(0.0, traced_wall - ix.top_level_union())
    return {
        "tally": tally,
        "layers": m,
        "samples": {
            "traced_passes": len(walls[True]),
            "untraced_passes": len(walls[False]),
            "spans": len(tracer.spans),
            "span_file": tracer.dump(root, tag),
        },
    }
