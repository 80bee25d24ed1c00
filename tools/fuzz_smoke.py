#!/usr/bin/env python
"""Seeded fuzz smoke test: hammer every decode path with corrupted bytes.

Runs for a fixed time budget (default 30 s), cycling through compressors,
codecs, and the archive reader with the four seeded injectors from
:mod:`repro.testing.faults`.  Every decode must either succeed with
well-formed output or raise a typed :class:`repro.errors.ReproError` —
an untyped exception or a per-decode deadline overrun is a violation and
makes the script exit nonzero, printing the (target, injector, seed) triple
so the failure replays exactly.

Usage::

    PYTHONPATH=src python tools/fuzz_smoke.py [--seconds 30] [--seed 0]
"""
from __future__ import annotations

import argparse
import itertools
import sys
import time

import numpy as np

from repro.codecs import fixed as fixed_codec
from repro.codecs import lossless
from repro.compressors import decompress_any, get_compressor, supports_qp
from repro.core.config import AdaptiveConfig, QPConfig
from repro.errors import ReproError
from repro.pipeline.stages import ENTROPY_STAGES, StageContext
from repro.testing import INJECTORS

DEADLINE_S = 10.0


def _build_targets(seed: int):
    """(label, pristine bytes, decode callable) for every decode path."""
    rng = np.random.default_rng(seed)
    shape = (12, 11, 10)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    data = (sum(np.sin(c) for c in coords)
            + 0.1 * rng.standard_normal(shape)).astype(np.float32)
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
    # streamed slab container: the offset-framed wire format (header,
    # segment table, CRC-guarded index/footer) is its own decode surface
    import io

    from repro.streaming import stream_decompress

    for name in ("sz3", "mgard"):
        comp = get_compressor(name, 1e-2, qp=QPConfig())
        sink = io.BytesIO()
        slab_bytes = (data.shape[0] // 3) * data[0].nbytes
        comp.compress_stream(data, sink, slab_bytes=slab_bytes)
        targets.append((f"stream[{name}]", sink.getvalue(), stream_decompress))
    symbols = rng.integers(0, 40, size=3000).astype(np.int64)
    # every registered entropy stage, enumerated from the pipeline registry
    # so a new wire format is fuzzed without touching this list
    for ename, cls in sorted(ENTROPY_STAGES.items()):
        blob = cls().forward(StageContext(), symbols)

        def decode(payload, _cls=cls):
            return _cls().inverse(StageContext(), payload)

        targets.append((f"entropy-{ename}", blob, decode))
    targets.append(
        ("fixed", fixed_codec.encode_fixed(symbols.astype(np.uint64)),
         fixed_codec.decode_fixed)
    )
    payload = (b"abcd" * 500
               + rng.integers(0, 256, 500, dtype=np.uint8).tobytes())
    for backend in ("zlib", "rle", "lz77", "raw"):
        targets.append(
            (f"lossless-{backend}", lossless.compress(payload, backend),
             lossless.decompress)
        )
    return targets


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    targets = _build_targets(args.seed)
    violations = []
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
                t0 = time.perf_counter()
                try:
                    decode(corrupted)
                except ReproError:
                    pass  # the contract
                except Exception as exc:  # noqa: BLE001 - violation report
                    violations.append(
                        (label, kind, seed, f"{type(exc).__name__}: {exc}")
                    )
                elapsed = time.perf_counter() - t0
                if elapsed > DEADLINE_S:
                    violations.append(
                        (label, kind, seed, f"deadline: {elapsed:.1f}s")
                    )
    print(f"fuzz smoke: {cells} corrupted decodes across "
          f"{len(targets)} targets, {len(violations)} violations")
    for label, kind, seed, detail in violations:
        print(f"  VIOLATION {label} {kind} seed={seed}: {detail}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
