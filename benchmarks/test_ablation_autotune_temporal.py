"""Ablations for the adaptive extensions: online QP auto-tuning and
temporal (time-dimension) compression on RTM-style data."""
import numpy as np
from conftest import write_result

import repro
from repro.analysis import format_table
from repro.core import QPConfig
from repro.core.autotune import autotune

#: every non-QP knob pinned to what ``SZ3(eb, predictor="interp")`` runs,
#: so the joint tuner searches only the QP config
SZ3_INTERP_KNOBS = {
    "interp": "auto", "structure": "sequential", "axis_order": None,
    "alpha": 1.0, "beta": 1.0, "adaptive_bits": 0,
}


def test_ablation_qp_autotune(benchmark, bench_field):
    """Per-field tuned QP vs the paper's fixed best-fit config vs off."""
    rows = []

    def sweep():
        for ds, fld in (("segsalt", "Pressure2000"), ("miranda", "velocityx"),
                        ("s3d", "pressure")):
            data = bench_field(ds, fld)
            eb = 1e-4 * float(data.max() - data.min())
            tuned_cfg = autotune(data, eb, fixed=SZ3_INTERP_KNOBS).qp_config()
            sizes = {
                "off": len(repro.SZ3(eb, predictor="interp").compress(data)),
                "fixed": len(
                    repro.SZ3(eb, predictor="interp", qp=QPConfig()).compress(data)
                ),
                "tuned": len(
                    repro.SZ3(eb, predictor="interp", qp=tuned_cfg).compress(data)
                ),
            }
            rows.append({
                "dataset": ds,
                "CR off": round(data.nbytes / sizes["off"], 2),
                "CR fixed QP": round(data.nbytes / sizes["fixed"], 2),
                "CR tuned QP": round(data.nbytes / sizes["tuned"], 2),
                "tuned config": f"{tuned_cfg.dimension}/{tuned_cfg.condition}"
                                if tuned_cfg.enabled else "disabled",
            })
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    for r in rows:
        # the tuner must never lose meaningfully to either static choice
        assert r["CR tuned QP"] >= min(r["CR off"], r["CR fixed QP"]) * 0.98
    write_result(
        "ablation_qp_autotune",
        format_table(rows, "Ablation: online QP auto-tuning vs fixed config"),
    )


def test_ablation_temporal(benchmark):
    """Time-dimension prediction on slowly-evolving RTM snapshots."""
    data = repro.generate("rtm", shape=(10, 32, 32, 20)).astype(np.float32)
    slow = np.repeat(data[:5], 2, axis=0)  # slow the motion down
    eb = 1e-3 * float(slow.max() - slow.min())

    def run():
        temporal = repro.TemporalCompressor("sz3", eb, predictor="interp",
                                            qp=QPConfig())
        intra = repro.TemporalCompressor("sz3", eb, keyframe_interval=1,
                                         predictor="interp", qp=QPConfig())
        return len(temporal.compress(slow)), len(intra.compress(slow))

    s_temporal, s_intra = benchmark.pedantic(run, rounds=1, iterations=1)
    assert s_temporal < s_intra
    write_result(
        "ablation_temporal",
        f"Ablation: temporal prediction on RTM snapshots\n"
        f"intra-only: {s_intra} bytes, temporal: {s_temporal} bytes "
        f"({100 * (s_intra / s_temporal - 1):.1f}% smaller)\n",
    )
