#!/usr/bin/env python
"""Seeded fuzz smoke test: hammer every decode path with corrupted bytes.

Runs for a fixed time budget (default 30 s), cycling through compressors,
codecs, and the archive reader with the four seeded injectors from
:mod:`repro.testing.faults`.  Every decode must either succeed with
well-formed output or raise a typed :class:`repro.errors.ReproError` —
an untyped exception or a per-decode deadline overrun is a violation and
makes the script exit nonzero, printing the (target, injector, seed) triple
so the failure replays exactly.

Where the native kernel library loads, every pristine blob is built
twice, by the C kernels (the integer stages, and the quantizers, midpoint
fill, Lorenzo encode and SZ3's selection estimates in float32 and
float64) and by the numpy loops (forced by
swapping the loader's handle, as the tests do); differing bytes are an
"encode paths disagree" violation.  Every corrupted input is then
decoded twice, on the same two paths.  Both must succeed with identical
output, or both must raise a typed error; anything else is a violation
too.

Usage::

    PYTHONPATH=src python tools/fuzz_smoke.py [--seconds 30] [--seed 0]
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
import time

import numpy as np

from repro import kernels
from repro.codecs import HuffmanCodec, RangeCodec
from repro.codecs import fixed as fixed_codec
from repro.codecs import lossless
from repro.compressors import decompress_any, get_compressor, supports_qp
from repro.compressors.base import decode_index_stream, encode_index_stream
from repro.core.config import AdaptiveConfig, QPConfig
from repro.errors import ReproError
from repro.testing import INJECTORS

DEADLINE_S = 10.0


def _field(shape, rng) -> np.ndarray:
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return (sum(np.sin(c) for c in coords)
            + 0.1 * rng.standard_normal(shape)).astype(np.float32)


def _build_targets(seed: int):
    """(label, pristine bytes, decode callable) for every decode path."""
    rng = np.random.default_rng(seed)
    data = _field((12, 11, 10), rng)
    targets = []
    for name in ("mgard", "sz3", "qoz", "hpez", "zfp", "tthresh", "sperr"):
        kwargs = {"qp": QPConfig()} if supports_qp(name) else {}
        comp = get_compressor(name, 1e-2, **kwargs)
        for sealed in (False, True):
            blob = comp.compress(data, checksum=sealed)
            label = f"{name}{'+crc' if sealed else ''}"
            targets.append((label, blob, decompress_any))
    # adaptive-quantize spec variant: the reserved-index wire format plus
    # its header block ("adaptive": {bits, threshold}) are extra decode
    # surface, so every engine compressor gets a fuzzed adaptive blob too
    for name in ("mgard", "sz3", "qoz", "hpez"):
        comp = get_compressor(
            name, 1e-2, qp=QPConfig(),
            adaptive=AdaptiveConfig(bits=2, threshold=3),
        )
        blob = comp.compress(data)
        targets.append((f"{name}+adaptive", blob, decompress_any))
    # float64 input runs the other instantiation of the float kernels
    data64 = data.astype(np.float64)
    for label, name, extra in (
        ("sz3", "sz3", {}),
        ("hpez", "hpez", {}),
        ("sz3+adaptive", "sz3", {"adaptive": AdaptiveConfig(bits=2, threshold=3)}),
    ):
        comp = get_compressor(name, 1e-2, qp=QPConfig(), **extra)
        targets.append((f"{label}[f64]", comp.compress(data64), decompress_any))
    # the tuned encode: 40x12x10 yields three 32x12x10 sample blocks, which
    # every tuner trial compresses as one stack (own generator, so the
    # other targets keep their inputs)
    tuned = _field((40, 12, 10), np.random.default_rng([seed, 1]))
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    targets.append(("sz3[auto]", comp.compress(tuned, auto=True), decompress_any))
    # radius 8: most indices reach the radius, so literals dominate the
    # quantizer's output and the decode's literal stream
    comp = get_compressor("sz3", 1e-2, qp=QPConfig(), radius=8)
    targets.append(("sz3[radius=8]", comp.compress(data), decompress_any))
    # the Lorenzo path, chosen explicitly: its encode and prefix-sum decode
    # kernels in both float types, radius 8 for an escape stream
    for label, payload, radius in (
        ("sz3[lorenzo]", data, 8), ("sz3[lorenzo,f64]", data64, 32768),
    ):
        comp = get_compressor("sz3", 1e-2, predictor="lorenzo", radius=radius)
        targets.append((label, comp.compress(payload), decompress_any))
    # the decodes that stop early or split one stream: the progressive
    # layout's per-level sections, decoded in full and to a preview of
    # levels >= 2; HPEZ's block layout (side 8 cuts the 4-level field into
    # blocks of several shapes); MGARD's resolution reduction
    from repro.compressors.progressive import decode_to_level

    comp = get_compressor("sz3_progressive", 1e-2, qp=QPConfig())
    blob = comp.compress(data)
    targets.append(("sz3_progressive", blob, decompress_any))
    targets.append((
        "sz3_progressive[to_level=2]", blob, lambda b: decode_to_level(b, 2),
    ))
    comp = get_compressor("hpez", 1e-2, qp=QPConfig(), block_side=8)
    targets.append(("hpez[blocks=8]", comp.compress(data), decompress_any))
    comp = get_compressor("mgard", 1e-2, qp=QPConfig())
    targets.append((
        "mgard[resolution=1]", comp.compress(data),
        lambda b, _c=comp: _c.decompress_resolution(b, 1),
    ))
    # streamed slab container: the offset-framed wire format (header,
    # segment table, CRC-guarded index/footer) is its own decode surface;
    # each segment decodes alone, as its own job on the decode threads
    import io

    from repro.compressors import decompress_many
    from repro.io import ContainerReader
    from repro.streaming import stream_decompress

    def streamed(comp, payload, slab_rows):
        sink = io.BytesIO()
        comp.compress_stream(payload, sink, slab_bytes=slab_rows * payload[0].nbytes)
        return sink.getvalue()

    for name in ("sz3", "mgard"):
        comp = get_compressor(name, 1e-2, qp=QPConfig())
        raw = streamed(comp, data, data.shape[0] // 3)
        targets.append((f"stream[{name}]", raw, stream_decompress))
    # nine 8-row slabs: more segments than the decode window holds
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    raw = streamed(comp, np.tile(data, (6, 1, 1)), 8)
    targets.append(("stream[sz3,segments=9]", raw, stream_decompress))
    # three equal 8-row slabs decoded together stack, inverted in place:
    # QP's 3-D walk over each slab's part of the stack's index buffer,
    # float64 values dequantized through the strided pass views, and the
    # Lorenzo prefix sums over the stack.  Streamed containers decode
    # stacks of one, so the same three slab blobs, laid end to end and cut
    # at their pristine lengths, also go to decompress_many, which stacks
    for label, payload, kwargs in (
        ("sz3,qp=3d", data, {"qp": QPConfig(dimension="3d")}),
        ("sz3,f64", data64, {"qp": QPConfig()}),
        ("sz3-lorenzo", data, {"predictor": "lorenzo", "radius": 8}),
    ):
        comp = get_compressor("sz3", 1e-2, **kwargs)
        raw = streamed(comp, np.tile(payload, (2, 1, 1)), 8)
        targets.append((f"stream[{label}]", raw, stream_decompress))
        slabs = list(ContainerReader(raw))
        cuts = np.cumsum([len(s) for s in slabs[:-1]]).tolist()

        def decode_many(joined, _cuts=cuts):
            # one array to compare across the kernel paths, joined flat so
            # a tampered header's shape cannot make the join itself fail
            parts = [joined[a:b] for a, b in zip([0] + _cuts, _cuts + [None])]
            return np.concatenate([out.ravel() for out in decompress_many(parts)])

        targets.append((f"many[{label}]", b"".join(slabs), decode_many))
    # slab-parallel container: the slab table in front of four slab blobs.
    # workers=1 decodes them as one decompress_many group (SZ3's equal
    # slabs stack, QoZ's per-slab-tuned ones mostly decode alone);
    # workers=2 as one group per thread: two where the C kernels load and
    # two CPUs are usable, one on the numpy path
    from repro.parallel import ParallelCompressor

    tiled = np.tile(data, (3, 1, 1))
    for name in ("sz3", "qoz"):
        for workers, label in ((1, name), (2, f"{name},workers=2")):
            par = ParallelCompressor(name, 1e-2, workers=workers, n_slabs=4,
                                     qp=QPConfig())
            targets.append(
                (f"parallel[{label}]", par.compress(tiled), par.decompress)
            )
    # the other wrapper containers: RTMP's frame list (4 frames, keyframe
    # interval 2, so residual frames too), RQO2's JSON header and block
    # list (8 blocks), and PW_REL's log-domain SZ3 blob, which the
    # registry decodes back to the data
    from repro.modes import PointwiseRelativeCompressor
    from repro.qoi import QoIPreservingCompressor, SquareQoI
    from repro.temporal import TemporalCompressor

    comp = TemporalCompressor("sz3", 1e-2, keyframe_interval=2, qp=QPConfig())
    targets.append(("temporal[sz3]", comp.compress(data[:4]), comp.decompress))
    comp = QoIPreservingCompressor("sz3", SquareQoI(), 0.5, block_side=6,
                                   qp=QPConfig())
    targets.append(("qoi[sz3]", comp.compress(data), comp.decompress))
    comp = PointwiseRelativeCompressor("sz3", 1e-2, qp=QPConfig())
    targets.append(("pw_rel[sz3]", comp.compress(np.exp(data)), decompress_any))
    symbols = rng.integers(0, 40, size=3000).astype(np.int64)
    # both index-stream entropy coders
    for ename, codec in (("huffman", HuffmanCodec()), ("range", RangeCodec())):
        targets.append((f"entropy-{ename}", codec.encode(symbols), codec.decode))
    # the framing around the Huffman container: the median-centred window,
    # escapes below and above it (the sentinel among them) and the
    # lossless stage, which the C decoder applies as it writes
    stream = np.rint(
        np.random.default_rng([seed, 2]).normal(0, 4, 3000)
    ).astype(np.int64)
    stream[[10, 11, 1500, 2990]] = [-40000, 90000, -32768, 70000]
    targets.append(
        ("index-stream[huffman]", encode_index_stream(stream), decode_index_stream)
    )
    targets.append(
        ("fixed", fixed_codec.encode_fixed(symbols.astype(np.uint64)),
         fixed_codec.decode_fixed)
    )
    # the lossless stage deflates, or stores raw what deflate cannot shrink
    noise = rng.integers(0, 256, 2500, dtype=np.uint8).tobytes()
    for label, payload in (("zlib", b"abcd" * 500 + noise[:500]), ("raw", noise)):
        targets.append(
            (f"lossless-{label}", lossless.compress(payload), lossless.decompress)
        )
    return targets


def _decode(decode, data: bytes) -> tuple:
    """(outcome, detail, seconds): outcome is "ok" (detail is the output),
    "typed" (the error class) or "untyped" (the error text)."""
    t0 = time.perf_counter()
    try:
        result = ("ok", decode(data))
    except ReproError as exc:
        result = ("typed", type(exc))
    except Exception as exc:  # noqa: BLE001 - violation report
        result = ("untyped", f"{type(exc).__name__}: {exc}")
    return (*result, time.perf_counter() - t0)


@contextlib.contextmanager
def _numpy_path():
    """Run the numpy loops in place of the C kernels inside the block."""
    saved = kernels._lib
    kernels._lib = None
    try:
        yield
    finally:
        kernels._lib = saved


def _same_output(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    targets = _build_targets(args.seed)
    native = kernels.native() is not None
    paths = ("c", "numpy") if native else ("numpy",)
    violations = []
    if native:
        with _numpy_path():
            numpy_targets = _build_targets(args.seed)
        for (label, blob, _), (_, numpy_blob, _) in zip(targets, numpy_targets):
            if blob != numpy_blob:
                violations.append(
                    (label, "pristine", args.seed, "encode paths disagree")
                )
    cells = 0
    t_end = time.monotonic() + args.seconds
    for round_no in itertools.count():
        if time.monotonic() >= t_end:
            break
        for label, pristine, decode in targets:
            for kind, fn in INJECTORS.items():
                if time.monotonic() >= t_end:
                    break
                seed = args.seed + 1000 * round_no + cells
                corrupted = fn(pristine, seed=seed)
                if corrupted == pristine:
                    continue
                cells += 1
                runs = [_decode(decode, corrupted)]
                if native:
                    with _numpy_path():
                        runs.append(_decode(decode, corrupted))
                for path, (outcome, detail, elapsed) in zip(paths, runs):
                    where = f"[{path}] " if native else ""
                    if outcome == "untyped":
                        violations.append((label, kind, seed, where + detail))
                    if elapsed > DEADLINE_S:
                        violations.append(
                            (label, kind, seed, f"{where}deadline: {elapsed:.1f}s")
                        )
                if native:
                    (c_out, c_detail, _), (np_out, np_detail, _) = runs
                    agree = c_out == np_out and (
                        c_out != "ok" or _same_output(c_detail, np_detail)
                    )
                    if not agree and "untyped" not in (c_out, np_out):
                        violations.append((
                            label, kind, seed,
                            f"paths disagree: c {c_out}, numpy {np_out}",
                        ))
    print(f"fuzz smoke: {len(targets)} targets built and {cells} corrupted "
          f"decodes on the {' and '.join(paths)} "
          f"path{'s' if native else ''}, {len(violations)} violations")
    for label, kind, seed, detail in violations:
        print(f"  VIOLATION {label} {kind} seed={seed}: {detail}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
