"""Benchmarks for the paper's future-work extensions implemented in this
repo.

1. SPERR+QP — future-work item 1: QP generalized to a transform-based
   compressor (per-subband prediction on wavelet indices).
2. Case-I fast inverse — future-work item 3: the unconditional QP decode is
   a prefix sum; measure the speedup over the wavefront decode Case III
   requires.
"""
import time

import numpy as np
from conftest import write_result

import repro
from repro.analysis import format_table
from repro.core import QPConfig, qp_forward, qp_inverse


def test_extension_sperr_qp(benchmark, bench_field):
    """QP on wavelet indices: helps on turbulence/climate, can hurt on
    oscillatory wavefields — the reason the paper calls generalization
    beyond interpolation-based compressors future work."""
    rows = []

    def sweep():
        for ds, fld in (("miranda", "velocityx"), ("cesm", None),
                        ("segsalt", "Pressure2000")):
            data = bench_field(ds, fld)
            eb = 1e-4 * float(data.max() - data.min())
            s_base = len(repro.get_compressor("sperr", eb).compress(data))
            s_qp = len(
                repro.get_compressor("sperr", eb, qp=QPConfig()).compress(data)
            )
            rows.append({
                "dataset": ds,
                "SPERR CR": round(data.nbytes / s_base, 2),
                "SPERR+QP CR": round(data.nbytes / s_qp, 2),
                "gain %": round(100 * (s_base / s_qp - 1), 1),
            })
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    gains = {r["dataset"]: r["gain %"] for r in rows}
    assert gains["miranda"] > 0  # generalization pays on smooth turbulence
    write_result(
        "ablation_sperr_qp",
        format_table(rows, "Extension: QP on SPERR's wavelet indices"),
    )


def test_extension_case1_fast_inverse(benchmark):
    rng = np.random.default_rng(0)
    q = rng.integers(-10, 10, (64, 96, 96))
    c1 = QPConfig(condition="I")
    c3 = QPConfig(condition="III")
    qp1 = qp_forward(q, -999, c1, 1)
    qp3 = qp_forward(q, -999, c3, 1)

    t0 = time.perf_counter()
    out1 = benchmark.pedantic(
        lambda: qp_inverse(qp1, -999, c1, 1), rounds=1, iterations=1
    )
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    out3 = qp_inverse(qp3, -999, c3, 1)
    t_wave = time.perf_counter() - t0
    assert np.array_equal(out1, q) and np.array_equal(out3, q)
    speedup = t_wave / max(t_fast, 1e-9)
    write_result(
        "ablation_case1_inverse",
        f"Extension: Case-I prefix-sum inverse vs Case-III wavefront\n"
        f"fast inverse: {t_fast * 1e3:.2f} ms, wavefront: {t_wave * 1e3:.2f} ms, "
        f"speedup {speedup:.1f}x\n",
    )
    assert speedup > 2.0  # the whole point of the fast path
