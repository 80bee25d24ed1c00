#!/usr/bin/env python
"""Per-stage pipeline benchmark: the repo's performance regression baseline.

Runs the synthetic datasets through the four interpolation-based compressors
(SZ3/QoZ/HPEZ/MGARD) with QP on and off, measures end-to-end compression and
decompression throughput plus per-stage wall-clock and byte counters, and
writes everything to ``BENCH_pipeline.json``.

Schema v3: stage timings come from the :mod:`repro.obs` tracer (the single
timing source of truth), so the ``stages`` maps now also carry nested span
names (``compress``/``decompress`` roots, ``parallel.*`` fan-out,
``qp.forward``/``qp.inverse`` kernels) alongside the classic
predict/quantize/qp/huffman/lossless keys.  The per-row shape is unchanged
from v2, so ``--compare`` accepts a v2 baseline against a v3 run — span-only
keys new in v3 show up as ``new`` and are never counted as regressions.

Schema v4: the envelope records the per-stage ``kernel_backends`` map
from :func:`repro.kernels.active_backends`.

Schema v5: each base additionally gets one ``auto`` row per dataset — the
compressor is replaced by its sampling-tuned copy (``_tuned_for``) before
timing, and the row records the full tuner decision (``tuning``, the
``TuningDecision.to_dict()`` payload) plus the measured
``adaptive_fraction`` (share of points coded through reserved adaptive
indices).  Flat metric keys for these rows gain an ``/auto`` suffix, so
``--compare`` still accepts a v4 baseline: auto keys show up as ``new``
and are never counted as regressions.

Schema v6: every row records its peak resident set size — ``peak_rss_mb``
(absolute, sampled from ``/proc/self/statm`` at ~2 ms while the row runs)
and ``peak_rss_delta_mb`` (growth over the RSS at row start).  The largest
synthetic field additionally gets a paired in-memory/streamed measurement
(``stream_summary``): each path runs in its own subprocess so ``VmHWM``
isolates true peak memory, the streamed path reads the input through a
memmap and writes segments through :meth:`compress_stream`, and the summary
records the throughput and peak-RSS ratios the streaming gate enforces
(streamed >= 1.2x compress throughput, <= 0.5x peak RSS growth).  Flat
metric keys for streamed rows gain a ``/stream`` suffix, so ``--compare``
still accepts a v5 baseline: streamed keys show up as ``new`` and are never
counted as regressions.  ``--compare`` additionally diffs
``peak_rss_delta_mb`` per row and treats growth past ``--mem-threshold``
(default 15%) as a failure alongside the 10% timing gate; rows whose old
delta is below ~16 MB are allocator noise and never flagged.

Schema v7: reports may additionally carry a ``service_summary`` block —
the per-tenant latency/throughput digest ``tools/loadgen.py`` emits after
replaying seeded mixed traffic against a live gateway
(``{tenant: {p50_s, p99_s, throughput_mb_s, requests, rejected}}`` plus a
``_total`` roll-up).  ``--compare`` flattens these as
``service/<tenant>:p50_s``-style keys and diffs them with the same 10%
gate; a v6 baseline has no service keys, so they show up as ``new`` and
are never counted as regressions — v6→v7 comparisons stay green.

Every future performance PR reruns this harness and compares against the
committed JSON, so regressions in any stage are visible immediately.

Usage::

    PYTHONPATH=src python tools/bench.py                  # full run
    PYTHONPATH=src python tools/bench.py --smoke          # tiny grids, seconds
    PYTHONPATH=src python tools/bench.py --out other.json --repeats 5
    PYTHONPATH=src python tools/bench.py --compare OLD.json NEW.json
    PYTHONPATH=src python tools/bench.py --overhead       # tracer cost check
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any

import numpy as np

import repro
from repro import kernels, obs
from repro.core import QPConfig
from repro.compressors import get_compressor
from repro.parallel import ParallelCompressor
from repro.obs import throughput_mbs

SCHEMA_VERSION = 7

#: benchmark matrix: the four interpolation-based compressors QP integrates with
BASES = ("sz3", "qoz", "hpez", "mgard")

#: (dataset, shape) pairs; the 3-D synthetic dataset is the headline row
FULL_GRIDS = [("miranda", (64, 96, 96)), ("s3d", (48, 48, 48))]
SMOKE_GRIDS = [("miranda", (16, 20, 24))]

#: largest synthetic field: the streamed-vs-in-memory pairing runs here.
#: ~38.5 MB of f32 — big enough that the in-memory path's intermediates
#: spill the last-level cache while a single slab still fits.
#: (row label, generator dataset, shape) — the label keeps the flat metric
#: keys distinct from the regular miranda rows.
STREAM_GRID = ("miranda-large", "miranda", (192, 224, 224))
SMOKE_STREAM_GRID = ("miranda-small", "miranda", (24, 24, 32))

#: slab size for the streamed benchmark row; 6-12 MB is the measured
#: throughput plateau on this field and keeps the resident window small
STREAM_SLAB_BYTES = 6 << 20

REL_EB = 1e-3


class _RssSampler:
    """Samples ``/proc/self/statm`` on a daemon thread while a row runs.

    ``peak_mb``/``delta_mb`` are ``None`` when ``/proc`` is unavailable
    (non-Linux), so rows degrade gracefully instead of failing the run.
    Sampling at ~2 ms can miss very short allocation spikes; the paired
    streamed benchmark uses per-subprocess ``VmHWM`` where exactness
    matters.
    """

    def __init__(self, interval_s: float = 0.002) -> None:
        self.interval_s = interval_s
        self.peak_mb: float | None = None
        self.baseline_mb: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @staticmethod
    def _rss_mb() -> float | None:
        try:
            with open("/proc/self/statm") as fh:
                pages = int(fh.read().split()[1])
            return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
        except (OSError, ValueError, IndexError):
            return None

    def _run(self) -> None:
        while not self._stop.is_set():
            rss = self._rss_mb()
            if rss is not None and (self.peak_mb is None or rss > self.peak_mb):
                self.peak_mb = rss
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "_RssSampler":
        self.baseline_mb = self._rss_mb()
        if self.baseline_mb is not None:
            self.peak_mb = self.baseline_mb
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        rss = self._rss_mb()
        if rss is not None and (self.peak_mb is None or rss > self.peak_mb):
            self.peak_mb = rss

    @property
    def delta_mb(self) -> float | None:
        if self.peak_mb is None or self.baseline_mb is None:
            return None
        return max(0.0, self.peak_mb - self.baseline_mb)


def _attach_rss(row: dict[str, Any], rss: _RssSampler) -> dict[str, Any]:
    row["peak_rss_mb"] = rss.peak_mb
    row["peak_rss_delta_mb"] = rss.delta_mb
    return row


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _stage_profile(
    compressor, data: np.ndarray, blob: bytes, repeats: int = 1
) -> dict[str, Any]:
    """Observed compress + decompress; returns per-stage seconds/bytes.

    Each direction runs ``repeats`` times under a fresh
    :class:`repro.obs.Observation` and keeps the stage breakdown of the
    fastest run, so stage numbers carry the same best-of semantics as the
    end-to-end timings instead of single-shot scheduler noise.
    """
    out: dict[str, Any] = {}
    for direction, fn in (
        ("compress", lambda: compressor.compress(data)),
        ("decompress", lambda: compressor.decompress(blob)),
    ):
        best = None
        for _ in range(max(1, repeats)):
            ob = obs.Observation()
            with obs.observe(ob):
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
            if best is None or dt < best[0]:
                best = (dt, ob.stage_report(nbytes=data.nbytes))
        out[direction] = best[1]
    return out


def bench_one(
    base: str,
    data: np.ndarray,
    eb: float,
    qp: QPConfig | None,
    repeats: int,
) -> dict[str, Any]:
    kwargs: dict[str, Any] = {}
    if qp is not None:
        kwargs["qp"] = qp
    comp = get_compressor(base, eb, **kwargs)
    blob = comp.compress(data)
    out = comp.decompress(blob)
    err = float(np.abs(out.astype(np.float64) - data.astype(np.float64)).max())
    if err > eb * (1 + 1e-9):
        raise RuntimeError(f"{base}: error bound violated ({err} > {eb})")
    c_s = _time_best(lambda: comp.compress(data), repeats)
    d_s = _time_best(lambda: comp.decompress(blob), repeats)
    return {
        "base": base,
        "qp": bool(qp is not None and qp.enabled),
        "error_bound": eb,
        "compressed_bytes": len(blob),
        "ratio": data.nbytes / len(blob),
        "compress_s": c_s,
        "decompress_s": d_s,
        "compress_mbs": throughput_mbs(data.nbytes, c_s),
        "decompress_mbs": throughput_mbs(data.nbytes, d_s),
        "max_error": err,
        "stages": _stage_profile(comp, data, blob, repeats),
    }


def bench_auto(
    base: str,
    data: np.ndarray,
    eb: float,
    repeats: int,
) -> dict[str, Any]:
    """One auto-tuned row: tune once, then time the tuned compressor.

    Tuning cost is deliberately excluded from the timed region — the row
    measures what the tuner *chose*, while its decision (and the adaptive
    fraction it produced) is recorded alongside so ratio changes can be
    traced to specific knobs.
    """
    comp = get_compressor(base, eb)
    tuned = comp._tuned_for(data)
    decision = tuned.tuning_decision
    blob = tuned.compress(data)
    out = tuned.decompress(blob)
    err = float(np.abs(out.astype(np.float64) - data.astype(np.float64)).max())
    if err > eb * (1 + 1e-9):
        raise RuntimeError(f"{base}+auto: error bound violated ({err} > {eb})")
    c_s = _time_best(lambda: tuned.compress(data), repeats)
    d_s = _time_best(lambda: tuned.decompress(blob), repeats)
    qp_cfg = getattr(tuned, "qp", None)
    return {
        "base": base,
        "auto": True,
        "qp": bool(qp_cfg is not None and qp_cfg.enabled),
        "error_bound": eb,
        "compressed_bytes": len(blob),
        "ratio": data.nbytes / len(blob),
        "compress_s": c_s,
        "decompress_s": d_s,
        "compress_mbs": throughput_mbs(data.nbytes, c_s),
        "decompress_mbs": throughput_mbs(data.nbytes, d_s),
        "max_error": err,
        "tuning": decision.to_dict() if decision is not None else None,
        "adaptive_fraction": (
            float(decision.adaptive_fraction) if decision is not None else 0.0
        ),
        "stages": _stage_profile(tuned, data, blob, repeats),
    }


def bench_parallel(
    data: np.ndarray, eb: float, qp: QPConfig, workers: int, repeats: int
) -> dict[str, Any]:
    comp = ParallelCompressor("sz3", eb, workers=workers, qp=qp)
    blob = comp.compress(data)  # warm the persistent pool
    out = comp.decompress(blob)
    err = float(np.abs(out.astype(np.float64) - data.astype(np.float64)).max())
    c_s = _time_best(lambda: comp.compress(data), repeats)
    d_s = _time_best(lambda: comp.decompress(blob), repeats)
    return {
        "base": f"sz3-parallel-{workers}",
        "qp": qp.enabled,
        "error_bound": eb,
        "compressed_bytes": len(blob),
        "ratio": data.nbytes / len(blob),
        "compress_s": c_s,
        "decompress_s": d_s,
        "compress_mbs": throughput_mbs(data.nbytes, c_s),
        "decompress_mbs": throughput_mbs(data.nbytes, d_s),
        "max_error": err,
        # stages recorded in-process: on boxes without real CPU concurrency
        # the decompress path runs batched in the parent (where the profiler
        # hooks fire); worker-side stage time is not visible here
        "stages": _stage_profile(comp, data, blob, repeats),
    }


#: child program for the paired streamed benchmark.  Each path runs in its
#: own interpreter so VmHWM (the kernel's per-process peak-RSS high-water
#: mark, reset by exec) cleanly isolates the memory footprint — consecutive
#: in-process rows contaminate each other through retained allocator arenas.
_STREAM_CHILD_SRC = r"""
import json, os, sys, threading, time
import numpy as np

mode, npy, eb, slab, repeats = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4]),
    int(sys.argv[5]),
)
from repro import QPConfig
from repro.compressors import get_compressor


def rss_mb():
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError):
        return None


class Sampler:
    # peak RSS sampled only while the compress loop runs: the memory gate
    # is about the compress path, and whole-process VmHWM would fold the
    # decompress repeats' allocator arenas into the streamed row's peak
    def __init__(self):
        self.peak = self.baseline = rss_mb()
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            r = rss_mb()
            if r is not None and (self.peak is None or r > self.peak):
                self.peak = r
            self._stop.wait(0.002)

    def __enter__(self):
        if self.baseline is not None:
            self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._t.is_alive():
            self._t.join()
        r = rss_mb()
        if r is not None and (self.peak is None or r > self.peak):
            self.peak = r

    @property
    def delta(self):
        if self.peak is None or self.baseline is None:
            return None
        return max(0.0, self.peak - self.baseline)


comp = get_compressor("sz3", eb, qp=QPConfig())
out = {"mode": mode}
if mode == "mem":
    data = np.load(npy)
    best = float("inf")
    blob = b""
    with Sampler() as smp:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            blob = comp.compress(data)
            best = min(best, time.perf_counter() - t0)
    d_best = float("inf")
    dec = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        dec = comp.decompress(blob)
        d_best = min(d_best, time.perf_counter() - t0)
    err = float(np.abs(dec.astype(np.float64) - data.astype(np.float64)).max())
    out.update(compress_s=best, decompress_s=d_best,
               compressed_bytes=len(blob), nbytes=int(data.nbytes),
               max_error=err, segments=None)
else:
    data = np.load(npy, mmap_mode="r")
    sink_path = npy + ".rstr"
    best = float("inf")
    res = None
    with Sampler() as smp:
        for _ in range(max(1, repeats)):
            with open(sink_path, "wb") as sink:
                t0 = time.perf_counter()
                res = comp.compress_stream(data, sink, slab_bytes=slab)
                best = min(best, time.perf_counter() - t0)
    d_best = float("inf")
    dec = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        dec = comp.decompress_stream(sink_path)
        d_best = min(d_best, time.perf_counter() - t0)
    err = float(np.abs(dec.astype(np.float64)
                       - np.asarray(data).astype(np.float64)).max())
    out.update(compress_s=best, decompress_s=d_best,
               compressed_bytes=int(res.total_bytes), nbytes=int(res.input_bytes),
               max_error=err, segments=int(res.segments),
               backpressure_wait_s=float(res.backpressure_wait_s),
               buffer_reuse=dict(res.buffer_reuse))
    os.unlink(sink_path)
out["baseline_mb"] = smp.baseline
out["peak_rss_mb"] = smp.peak
out["peak_rss_delta_mb"] = smp.delta
json.dump(out, sys.stdout)
"""


def bench_stream_pair(
    dataset: str,
    generator: str,
    shape: tuple[int, ...],
    repeats: int,
    slab_bytes: int = STREAM_SLAB_BYTES,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """In-memory vs streamed sz3+QP on one field, each in its own process.

    ``dataset`` labels the rows (kept distinct from the regular grid rows
    so flat metric keys don't collide); ``generator`` names the synthetic
    field to draw.  Returns the two result rows plus the
    ``stream_summary`` record holding the throughput and peak-RSS ratios
    the streaming acceptance gate reads.
    """
    data = repro.generate(generator, shape=shape, seed=0)
    eb = REL_EB * float(data.max() - data.min())
    fd, npy = tempfile.mkstemp(suffix=".npy")
    os.close(fd)
    rows: list[dict[str, Any]] = []
    child_out: dict[str, dict[str, Any]] = {}
    try:
        np.save(npy, data)
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        for mode in ("mem", "stream"):
            proc = subprocess.run(
                [sys.executable, "-c", _STREAM_CHILD_SRC, mode, npy,
                 repr(eb), str(slab_bytes), str(repeats)],
                capture_output=True, text=True, env=env,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"stream bench child ({mode}) failed:\n{proc.stderr}")
            child_out[mode] = json.loads(proc.stdout)
    finally:
        if os.path.exists(npy):
            os.unlink(npy)
    for mode in ("mem", "stream"):
        r = child_out[mode]
        if r["max_error"] > eb * (1 + 1e-9):
            raise RuntimeError(
                f"stream bench ({mode}): error bound violated "
                f"({r['max_error']} > {eb})")
        row = {
            "dataset": dataset,
            "shape": list(shape),
            "base": "sz3",
            "qp": True,
            "stream": mode == "stream",
            "error_bound": eb,
            "compressed_bytes": r["compressed_bytes"],
            "ratio": r["nbytes"] / r["compressed_bytes"],
            "compress_s": r["compress_s"],
            "decompress_s": r["decompress_s"],
            "compress_mbs": throughput_mbs(r["nbytes"], r["compress_s"]),
            "decompress_mbs": throughput_mbs(r["nbytes"], r["decompress_s"]),
            "max_error": r["max_error"],
            "peak_rss_mb": r["peak_rss_mb"],
            "peak_rss_delta_mb": r["peak_rss_delta_mb"],
            "isolated_subprocess": True,
        }
        if mode == "stream":
            row.update(
                slab_bytes=slab_bytes,
                segments=r["segments"],
                backpressure_wait_s=r.get("backpressure_wait_s"),
                buffer_reuse=r.get("buffer_reuse"),
            )
        rows.append(row)
    mem, stream = rows
    t_ratio = (
        stream["compress_mbs"] / mem["compress_mbs"]
        if mem["compress_mbs"] else None
    )
    m_old, m_new = mem["peak_rss_delta_mb"], stream["peak_rss_delta_mb"]
    r_ratio = m_new / m_old if m_old and m_new is not None else None
    summary = {
        "dataset": dataset,
        "shape": list(shape),
        "slab_bytes": slab_bytes,
        "compress_throughput_ratio": t_ratio,
        "peak_rss_delta_ratio": r_ratio,
        "gates": {
            "throughput_ok": t_ratio is not None and t_ratio >= 1.2,
            "rss_ok": r_ratio is not None and r_ratio <= 0.5,
        },
    }
    return rows, summary


def run(
    grids: list[tuple[str, tuple[int, ...]]],
    repeats: int,
    workers: int,
    stream_grid: tuple[str, str, tuple[int, ...]] | None = STREAM_GRID,
) -> dict[str, Any]:
    results: list[dict[str, Any]] = []
    for dataset, shape in grids:
        data = repro.generate(dataset, shape=shape, seed=0)
        eb = REL_EB * float(data.max() - data.min())
        for base in BASES:
            for qp in (None, QPConfig()):
                with _RssSampler() as rss:
                    row = bench_one(base, data, eb, qp, repeats)
                _attach_rss(row, rss)
                row.update(dataset=dataset, shape=list(shape))
                results.append(row)
                print(
                    f"{dataset} {base:5s}"
                    f" qp={'on ' if row['qp'] else 'off'}"
                    f"  CR={row['ratio']:7.2f}"
                    f"  comp={row['compress_mbs']:8.2f} MB/s"
                    f"  decomp={row['decompress_mbs']:8.2f} MB/s",
                    flush=True,
                )
            with _RssSampler() as rss:
                row = bench_auto(base, data, eb, repeats)
            _attach_rss(row, rss)
            row.update(dataset=dataset, shape=list(shape))
            results.append(row)
            print(
                f"{dataset} {base:5s} auto  "
                f"  CR={row['ratio']:7.2f}"
                f"  comp={row['compress_mbs']:8.2f} MB/s"
                f"  decomp={row['decompress_mbs']:8.2f} MB/s"
                f"  adaptive={row['adaptive_fraction']:.1%}",
                flush=True,
            )
        if workers > 1:
            with _RssSampler() as rss:
                row = bench_parallel(data, eb, QPConfig(), workers, repeats)
            _attach_rss(row, rss)
            row.update(dataset=dataset, shape=list(shape))
            results.append(row)
            print(
                f"{dataset} sz3-parallel-{workers} qp=on "
                f"  CR={row['ratio']:7.2f}"
                f"  comp={row['compress_mbs']:8.2f} MB/s"
                f"  decomp={row['decompress_mbs']:8.2f} MB/s",
                flush=True,
            )
    stream_summary = None
    if stream_grid is not None:
        dataset, generator, shape = stream_grid
        # the in-memory half of the pair is slow on the large field, so a
        # single repeat keeps the harness runtime sane; the subprocess
        # isolation already removes most scheduler noise from the ratio
        stream_rows, stream_summary = bench_stream_pair(
            dataset, generator, shape, repeats=min(repeats, 2))
        results.extend(stream_rows)
        for row in stream_rows:
            label = "stream" if row["stream"] else "in-mem"
            print(
                f"{dataset} sz3   qp=on  [{label:7s}]"
                f"  CR={row['ratio']:7.2f}"
                f"  comp={row['compress_mbs']:8.2f} MB/s"
                f"  peakRSS={row['peak_rss_delta_mb'] or 0:7.1f} MB",
                flush=True,
            )
        g = stream_summary["gates"]
        t_r = stream_summary["compress_throughput_ratio"]
        r_r = stream_summary["peak_rss_delta_ratio"]
        print(
            f"stream gates: throughput x{t_r:.2f}" if t_r is not None
            else "stream gates: throughput n/a",
            end="", flush=True,
        )
        print(
            f" ({'ok' if g['throughput_ok'] else 'FAIL'} >=1.2), "
            + (f"peak-RSS x{r_r:.2f}" if r_r is not None else "peak-RSS n/a")
            + f" ({'ok' if g['rss_ok'] else 'FAIL'} <=0.5)",
            flush=True,
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "rel_error_bound": REL_EB,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "has_stage_profiler": True,
        "timing_source": "repro.obs",
        "has_rss_sampler": _RssSampler._rss_mb() is not None,
        "kernel_backends": kernels.active_backends(),
        "stream_summary": stream_summary,
        "results": results,
    }


def measure_overhead(
    shape: tuple[int, ...] = (48, 48, 48), repeats: int = 30
) -> dict[str, float]:
    """Enabled-vs-disabled tracer cost on an SZ3+QP roundtrip.

    Returns best-of-``repeats`` wall-clock for the bare roundtrip and the
    same roundtrip under an active observation, plus the relative overhead.
    The observability acceptance bar is <3% (docs/observability.md).
    """
    data = repro.generate("miranda", shape=shape, seed=0)
    eb = REL_EB * float(data.max() - data.min())
    comp = get_compressor("sz3", eb, qp=QPConfig())
    blob = comp.compress(data)

    def roundtrip():
        comp.decompress(comp.compress(data))

    def observed():
        with obs.observe(obs.Observation()):
            comp.decompress(comp.compress(data))

    roundtrip()  # warm caches/schedules before timing either variant
    _ = blob
    # interleave the variants so slow machine drift (thermal, page cache)
    # hits both equally instead of biasing whichever phase ran second
    disabled_s = enabled_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        roundtrip()
        disabled_s = min(disabled_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        observed()
        enabled_s = min(enabled_s, time.perf_counter() - t0)
    overhead = (enabled_s - disabled_s) / disabled_s
    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_pct": overhead * 100.0,
    }


def _flatten_timings(report: dict[str, Any]) -> dict[str, float]:
    """Map ``dataset/base/qp:metric`` -> seconds for every timing in a report.

    Covers the end-to-end ``compress_s``/``decompress_s`` numbers and, when
    the report carries stage profiles, each ``compress.<stage>`` /
    ``decompress.<stage>`` wall-clock so regressions localise to a stage.
    """
    out: dict[str, float] = {}
    for row in report.get("results", []):
        key = (
            f"{row.get('dataset', '?')}/{row.get('base', '?')}"
            f"/qp={'on' if row.get('qp') else 'off'}"
        )
        if row.get("auto"):
            key += "/auto"
        if row.get("stream"):
            key += "/stream"
        for metric in ("compress_s", "decompress_s"):
            if metric in row:
                out[f"{key}:{metric}"] = float(row[metric])
        for direction, prof in (row.get("stages") or {}).items():
            for stage, st in (prof.get("stages") or {}).items():
                sec = st.get("seconds")
                if sec is not None:
                    out[f"{key}:{direction}.{stage}"] = float(sec)
    # v7 service rows: per-tenant latency quantiles from the loadgen replay.
    # Reports without the block (all pre-v7 baselines) simply contribute no
    # service keys, so they compare as ``new`` and never regress.
    for tenant, digest in (report.get("service_summary") or {}).items():
        for metric in ("p50_s", "p99_s"):
            val = (digest or {}).get(metric)
            if val is not None:
                out[f"service/{tenant}:{metric}"] = float(val)
    return out


def _flatten_memory(report: dict[str, Any]) -> dict[str, float]:
    """Map ``dataset/base/qp`` row keys -> ``peak_rss_delta_mb``.

    Only the *delta* (growth while the row ran) is compared: the absolute
    peak carries the interpreter baseline plus whatever earlier rows left
    in allocator arenas, which says nothing about the row itself.  Rows
    from pre-v6 baselines simply have no memory keys and compare as
    ``new``.
    """
    out: dict[str, float] = {}
    for row in report.get("results", []):
        delta = row.get("peak_rss_delta_mb")
        if delta is None:
            continue
        key = (
            f"{row.get('dataset', '?')}/{row.get('base', '?')}"
            f"/qp={'on' if row.get('qp') else 'off'}"
        )
        if row.get("auto"):
            key += "/auto"
        if row.get("stream"):
            key += "/stream"
        out[key] = float(delta)
    return out


#: RSS deltas below this are allocator noise (arena growth, page rounding)
#: and are never flagged as memory regressions, whatever the relative move
MEM_NOISE_FLOOR_MB = 16.0


def compare_reports(
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = 0.10,
    min_seconds: float = 1e-3,
    mem_threshold: float = 0.15,
) -> int:
    """Print a per-stage diff table; return the number of regressions.

    A timing metric regresses when it exists in both reports, the old value
    is at least ``min_seconds`` (micro-timings are pure noise), and the new
    value exceeds the old by more than ``threshold`` relative.  A memory
    metric (``peak_rss_delta_mb`` per row) regresses when the old delta is
    at least :data:`MEM_NOISE_FLOOR_MB` and the new delta exceeds it by
    more than ``mem_threshold`` relative.  Metrics present in only one
    report are listed but never counted as regressions.
    """
    old_t = _flatten_timings(old)
    new_t = _flatten_timings(new)
    regressions = 0
    shown = 0
    header = f"{'metric':58s} {'old(s)':>10s} {'new(s)':>10s} {'delta':>8s}"
    print(header)
    print("-" * len(header))
    for key in sorted(set(old_t) | set(new_t)):
        if key not in old_t:
            print(f"{key:58s} {'-':>10s} {new_t[key]:10.5f} {'new':>8s}")
            shown += 1
            continue
        if key not in new_t:
            print(f"{key:58s} {old_t[key]:10.5f} {'-':>10s} {'gone':>8s}")
            shown += 1
            continue
        o, n = old_t[key], new_t[key]
        rel = (n - o) / o if o > 0 else 0.0
        flag = ""
        if o >= min_seconds and rel > threshold:
            flag = "  REGRESSION"
            regressions += 1
        if flag or abs(rel) > threshold:
            print(f"{key:58s} {o:10.5f} {n:10.5f} {rel:+7.1%}{flag}")
            shown += 1
    if shown == 0:
        print(f"(no metric changed by more than {threshold:.0%})")
    print(
        f"compared {len(set(old_t) & set(new_t))} metrics, "
        f"{regressions} regression(s) past {threshold:.0%}"
    )

    old_m = _flatten_memory(old)
    new_m = _flatten_memory(new)
    mem_regressions = 0
    mem_shown = 0
    if old_m or new_m:
        header = f"{'memory (peak RSS delta)':58s} {'old(MB)':>10s} {'new(MB)':>10s} {'delta':>8s}"
        print()
        print(header)
        print("-" * len(header))
        for key in sorted(set(old_m) | set(new_m)):
            if key not in old_m:
                print(f"{key:58s} {'-':>10s} {new_m[key]:10.1f} {'new':>8s}")
                mem_shown += 1
                continue
            if key not in new_m:
                print(f"{key:58s} {old_m[key]:10.1f} {'-':>10s} {'gone':>8s}")
                mem_shown += 1
                continue
            o, n = old_m[key], new_m[key]
            rel = (n - o) / o if o > 0 else 0.0
            flag = ""
            if o >= MEM_NOISE_FLOOR_MB and rel > mem_threshold:
                flag = "  REGRESSION"
                mem_regressions += 1
            if flag or abs(rel) > mem_threshold:
                print(f"{key:58s} {o:10.1f} {n:10.1f} {rel:+7.1%}{flag}")
                mem_shown += 1
        if mem_shown == 0:
            print(f"(no row's peak RSS moved more than {mem_threshold:.0%})")
        print(
            f"compared {len(set(old_m) & set(new_m))} memory rows, "
            f"{mem_regressions} regression(s) past {mem_threshold:.0%}"
        )
    return regressions + mem_regressions


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, one repeat")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workers", type=int, default=4,
                    help="slab-parallel workers (0 disables the parallel row)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="diff two bench JSONs instead of running; exits "
                         "nonzero if any timing regressed past --threshold")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative slowdown that counts as a regression")
    ap.add_argument("--min-seconds", type=float, default=1e-3,
                    help="ignore metrics whose old timing is below this")
    ap.add_argument("--mem-threshold", type=float, default=0.15,
                    help="relative peak-RSS growth that counts as a "
                         "memory regression in --compare")
    ap.add_argument("--no-stream", action="store_true",
                    help="skip the paired in-memory/streamed benchmark")
    ap.add_argument("--overhead", action="store_true",
                    help="measure the enabled-tracer overhead on an SZ3+QP "
                         "roundtrip instead of running the benchmark")
    args = ap.parse_args(argv)

    if args.overhead:
        o = measure_overhead()
        print(
            f"tracer disabled: {o['disabled_s']:.4f}s  "
            f"enabled: {o['enabled_s']:.4f}s  "
            f"overhead: {o['overhead_pct']:+.2f}%"
        )
        return 0

    if args.compare:
        with open(args.compare[0]) as fh:
            old = json.load(fh)
        with open(args.compare[1]) as fh:
            new = json.load(fh)
        return 1 if compare_reports(old, new, args.threshold, args.min_seconds,
                                    args.mem_threshold) else 0

    grids = SMOKE_GRIDS if args.smoke else FULL_GRIDS
    repeats = 1 if args.smoke else args.repeats
    workers = 0 if args.smoke else args.workers
    stream_grid = None if args.no_stream else (
        SMOKE_STREAM_GRID if args.smoke else STREAM_GRID)
    report = run(grids, repeats, workers, stream_grid=stream_grid)
    report["smoke"] = args.smoke
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {args.out} ({len(report['results'])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
