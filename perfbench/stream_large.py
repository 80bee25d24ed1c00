"""stream-large: out-of-core SZ3, closed loop, one caller.

SZ3 with the ``repro compress --stream`` defaults (QP off, default slab
budget) on a miranda field larger than the last-level cache.  The field
is read from a memmap, written by ``compress_stream`` to a file and read
back by ``decompress_stream``, pass after pass.  The check walks the
field slab by slab so its float64 temporaries never set the peak RSS.
"""
from __future__ import annotations

import os
import time

import numpy as np

from . import inputs
from .closed_loop import run_closed_loop
from .common import Tally, median, psnr_db, sq_sum
from .faults import Faults

REL_EB = 1e-3
SETUP_REPEATS = 3
CHECK_ROWS = 16


class StreamLarge:
    CLOCK = "wall seconds"

    def make_clock(self, sampler):
        # measured on the reference VM, this memory-bound pipeline ran no
        # slower when the host stole more CPU, so steal is not subtracted
        return time.perf_counter

    def __init__(self, root: str, seed: int, tiny: bool, faults: Faults) -> None:
        ds, shape = inputs.STREAM_FIELD
        path = inputs.field_path(root, ds, shape, seed)
        self.data = np.load(path, mmap_mode="r")
        if tiny:
            self.data = self.data[:48, :64, :64]
        self.vrange = inputs.field_range(path)
        self.eb = REL_EB * self.vrange
        self.faults = faults
        work = os.path.join(root, inputs.CACHE_DIR, "work")
        os.makedirs(work, exist_ok=True)
        self.sink_path = os.path.join(work, f"stream-{seed}-{os.getpid()}.rstr")

    def setup(self) -> float:
        """Import, construct, and one streamed round trip of the first 64
        rows; construct+warm repeats ``SETUP_REPEATS`` times (median)."""
        import io

        t0 = time.perf_counter()
        from repro.compressors import get_compressor

        import_s = time.perf_counter() - t0
        warm = self.data[:min(64, self.data.shape[0])]
        reps = []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            comp = get_compressor("sz3", self.eb)
            sink = io.BytesIO()
            comp.compress_stream(warm, sink)
            comp.decompress_stream(sink.getvalue())
            reps.append(time.perf_counter() - t1)
        self.comp = comp
        return import_s + median(reps)

    def check(self, out: np.ndarray) -> tuple[bool, float]:
        """Slab-wise max-error check and squared-error sum."""
        if out.shape != self.data.shape or out.dtype != self.data.dtype:
            return False, float("inf")
        ok = True
        sq = 0.0
        for r in range(0, out.shape[0], CHECK_ROWS):
            a = out[r:r + CHECK_ROWS].astype(np.float64)
            a -= self.data[r:r + CHECK_ROWS]
            ok = ok and float(np.abs(a).max()) <= self.eb
            sq += sq_sum(a)
        return ok, sq

    def one_pass(self, tally: Tally, acc: dict) -> dict:
        clock = self.clock
        t0 = clock()
        try:
            with open(self.sink_path, "wb") as sink:
                self.comp.compress_stream(self.data, sink)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            tally.fail(f"compress:{type(exc).__name__}")
            return {"compress_s": 0.0, "decompress_s": 0.0, "bytes": 0, "items": 0}
        t1 = clock()
        tally.ok()
        if self.faults.kind == "flip":
            with open(self.sink_path, "rb") as f:
                blob = self.faults.blob(0, f.read())
            with open(self.sink_path, "wb") as f:
                f.write(blob)
        t2 = clock()
        try:
            out = self.comp.decompress_stream(self.sink_path)
        except Exception as exc:  # noqa: BLE001
            tally.fail(f"decompress:{type(exc).__name__}")
            return {"compress_s": t1 - t0, "decompress_s": 0.0, "bytes": 0,
                    "items": 0}
        t3 = clock()
        out = self.faults.decoded(0, out, self.eb)
        ok, sq = self.check(out)
        del out
        if ok:
            tally.ok()
        else:
            tally.fail("error_bound")
        acc["latency"].append(t1 - t0 + t3 - t2)
        if not acc["first"]:
            acc["first"][("miranda", "sz3", "stream")] = (
                os.path.getsize(self.sink_path) * 8, self.data.size,
                psnr_db(sq, self.data.size, self.vrange),
            )
        return {"compress_s": t1 - t0, "decompress_s": t3 - t2,
                "bytes": self.data.nbytes, "items": 1}

    def close(self) -> None:
        if os.path.exists(self.sink_path):
            os.remove(self.sink_path)


def run(root: str, seed: int, seconds: float, trace: bool, tiny: bool,
        faults: Faults, tag: str) -> dict:
    wl = StreamLarge(root, seed, tiny, faults)
    try:
        return run_closed_loop(wl, seconds, trace, root, tag)
    finally:
        wl.close()
