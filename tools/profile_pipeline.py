#!/usr/bin/env python
"""Profile the compression pipeline, guide-style ("no optimization without
measuring").

Prints the top functions by cumulative time for SZ3 compression and
decompression, with and without QP — the view that motivated the vectorized
Huffman lockstep decode and the wavefront QP inverse — and for
``compress(auto=True)``, where the sampling auto-tuner's trial engine runs
(``repro.core.autotune``) show up beside the compress they tune.

Run:  python tools/profile_pipeline.py [dataset] [rel_eb]
"""
import cProfile
import io
import pstats
import sys

import repro
from repro.core import QPConfig


def profile_call(label: str, fn) -> None:
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    stream = io.StringIO()
    stats = pstats.Stats(prof, stream=stream)
    stats.sort_stats("cumulative").print_stats(12)
    print(f"\n=== {label} ===")
    # keep only the table body lines
    lines = stream.getvalue().splitlines()
    for line in lines[4:22]:
        print(line)


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "miranda"
    rel = float(sys.argv[2]) if len(sys.argv) > 2 else 1e-4
    data = repro.generate(dataset)
    eb = rel * float(data.max() - data.min())
    print(f"profiling on {dataset} {data.shape}, eb={eb:.3g}")

    base = repro.SZ3(eb, predictor="interp")
    plus = repro.SZ3(eb, predictor="interp", qp=QPConfig())
    blob_base = base.compress(data)
    blob_plus = plus.compress(data)

    profile_call("compress (base)", lambda: base.compress(data))
    profile_call("compress (+QP)", lambda: plus.compress(data))
    profile_call("compress (auto=True)", lambda: plus.compress(data, auto=True))
    profile_call("decompress (base)", lambda: base.decompress(blob_base))
    profile_call("decompress (+QP)", lambda: plus.decompress(blob_plus))


if __name__ == "__main__":
    main()
