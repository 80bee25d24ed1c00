"""Ablation: Huffman vs adaptive range coder as the entropy stage.

Real SZ3 offers both; the paper's pipeline uses Huffman + ZSTD.  This
ablation quantifies the choice on actual (QP-transformed) quantization-index
streams: the range coder wins on very skewed/low-entropy streams (no
1-bit-per-symbol floor), Huffman wins on throughput.
"""
import time

import numpy as np
from conftest import write_result

import repro
from repro.analysis import format_table
from repro.codecs import HuffmanCodec, RangeCodec
from repro.codecs.lossless import compress as lossless
from repro.compressors import CompressionState
from repro.core import QPConfig, shannon_entropy


def test_ablation_entropy_stage(benchmark, bench_field):
    data = bench_field("segsalt", "Pressure2000")
    rows = []

    def sweep():
        for rel in (1e-2, 1e-4):
            eb = rel * float(data.max() - data.min())
            st = CompressionState()
            repro.SZ3(eb, predictor="interp", qp=QPConfig()).compress(data, state=st)
            q = st.extras["index_volume_qp"].ravel()
            # subsample to keep the sequential range coder affordable
            q = q[:120_000]
            codes = q - q.min()
            H = shannon_entropy(codes)

            t0 = time.perf_counter()
            hblob = lossless(HuffmanCodec().encode(codes))
            t_h = time.perf_counter() - t0
            t0 = time.perf_counter()
            rblob = RangeCodec().encode(q)
            t_r = time.perf_counter() - t0
            rows.append({
                "rel eb": rel,
                "entropy (bits)": round(H, 3),
                "huffman+zlib (bits/sym)": round(8 * len(hblob) / q.size, 3),
                "range coder (bits/sym)": round(8 * len(rblob) / q.size, 3),
                "huffman enc (s)": round(t_h, 3),
                "range enc (s)": round(t_r, 3),
            })
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    for r in rows:
        # both stages land near the empirical entropy
        assert r["range coder (bits/sym)"] <= r["entropy (bits)"] * 1.15 + 0.2
    write_result(
        "ablation_entropy_stage",
        format_table(rows, "Ablation: entropy stage on QP'd index streams"),
    )
