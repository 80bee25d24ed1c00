"""codec-qp: the paper's configuration, closed loop, one in-memory caller.

SZ3, QoZ, HPEZ and MGARD x miranda 64x96x96 and s3d 48x48x48 (f32,
relative error bound 1e-3), each with the paper's ``QPConfig()`` and
again with ``compress(auto=True)``.  Every item is compressed, then
decompressed and checked, pass after pass until the run's time is up.

Calls are timed on wall seconds minus the VM's CPU steal: the program's
path here is serial, and the reference VM's guest kernel bills stolen
time to the running task, so neither wall nor CPU seconds are steady
(one identical pass took 5.5-7.6 s of wall and 5.4-6.2 s of CPU time,
but 4.95-5.43 s of wall minus steal).
"""
from __future__ import annotations

import time

import numpy as np

from . import inputs
from .closed_loop import new_acc, run_closed_loop
from .common import Tally, median, psnr_db, within_bound
from .faults import Faults

BASES = ("sz3", "qoz", "hpez", "mgard")
REL_EB = 1e-3
SETUP_REPEATS = 3


def _crop(data: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(data[tuple(slice(0, max(8, n // 4)) for n in data.shape)])


class CodecQP:
    CLOCK = "wall seconds minus the VM's steal (serial path)"

    def make_clock(self, sampler):
        return sampler.now

    def __init__(self, root: str, seed: int, tiny: bool, faults: Faults) -> None:
        self.faults = faults
        self.fields = {}
        for ds, shape in inputs.CODEC_FIELDS:
            path = inputs.field_path(root, ds, shape, seed)
            data = np.load(path)
            if tiny:
                data = _crop(data)
            self.fields[ds] = (data, REL_EB * inputs.field_range(path))

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Import, construct every compressor and warm each item on a crop;
        the construct+warm part runs ``SETUP_REPEATS`` times (median)."""
        t0 = time.perf_counter()
        from repro.compressors import get_compressor
        from repro.core import QPConfig

        import_s = time.perf_counter() - t0
        reps = []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            items = []
            for ds, (data, eb) in self.fields.items():
                for base in BASES:
                    for auto in (False, True):
                        comp = get_compressor(base, eb, qp=QPConfig())
                        crop = _crop(data)
                        comp.decompress(comp.compress(crop, auto=auto))
                        items.append((ds, base, auto, comp))
            reps.append(time.perf_counter() - t1)
        self.items = items
        return import_s + median(reps)

    # -- timed phase -------------------------------------------------------------

    def one_pass(self, tally: Tally, acc: dict) -> dict:
        c_s = d_s = 0.0
        nbytes = 0
        clock = self.clock
        for i, (ds, base, auto, comp) in enumerate(self.items):
            data, eb = self.fields[ds]
            t0 = clock()
            try:
                blob = comp.compress(data, auto=auto)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                tally.fail(f"compress:{type(exc).__name__}")
                continue
            t1 = clock()
            blob = self.faults.blob(i, blob)
            t2 = clock()
            try:
                out = comp.decompress(blob)
            except Exception as exc:  # noqa: BLE001
                tally.ok()
                tally.fail(f"decompress:{type(exc).__name__}")
                continue
            t3 = clock()
            tally.ok()  # the compress call
            out = self.faults.decoded(i, out, eb)
            ok, sq, _ = within_bound(out, data, eb)
            if ok:
                tally.ok()
            else:
                tally.fail("error_bound")
            c_s += t1 - t0
            d_s += t3 - t2
            nbytes += data.nbytes
            acc["latency"].append(t1 - t0 + t3 - t2)
            key = (ds, base, auto)
            if key not in acc["first"]:
                vrange = float(data.max()) - float(data.min())
                acc["first"][key] = (
                    len(blob) * 8, data.size, psnr_db(sq, data.size, vrange)
                )
        return {"compress_s": c_s, "decompress_s": d_s, "bytes": nbytes,
                "items": len(self.items)}


#: program stage (``repro.obs`` span name) each traced layer is compared with
RECONCILE = {
    "predictors": (("predictors",), "predict"),
    "quantize": (("quantize",), "quantize"),
    "qp": (("qp.forward", "qp.inverse"), "qp"),
    "entropy": (("entropy.encode", "entropy.decode"), "huffman"),
    "lossless": (("lossless.encode", "lossless.decode"), "lossless"),
}


def reconcile(wl: CodecQP) -> dict:
    """One pass traced by both the benchmark's shims and the program's own
    ``repro.obs`` stage spans; returns each layer's two totals and gap."""
    from repro import obs

    from .layers import SpanIndex
    from .trace import Tracer, install

    tracer = Tracer()
    install(tracer)
    ob = obs.Observation()
    tracer.enabled = True
    try:
        with obs.observe(ob):
            wl.one_pass(Tally(), new_acc())
    finally:
        tracer.enabled = False
        tracer.uninstall()
    ix = SpanIndex(tracer.spans)
    program = ob.tracer.stage_seconds()
    out = {}
    for layer, (names, stage) in RECONCILE.items():
        ours = ix.busy(*names)
        theirs = program.get(stage, 0.0)
        out[layer] = {
            "traced_s": ours, "program_s": theirs, "program_stage": stage,
            "gap_frac": (ours - theirs) / theirs if theirs else 0.0,
        }
    return out


def run(root: str, seed: int, seconds: float, trace: bool, tiny: bool,
        faults: Faults, tag: str) -> dict:
    wl = CodecQP(root, seed, tiny, faults)
    out = run_closed_loop(wl, seconds, trace, root, tag)
    if trace:
        out["reconcile"] = reconcile(wl)
    return out
