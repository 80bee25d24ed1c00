"""Smoke test for the per-stage pipeline benchmark harness.

Runs ``tools/bench.py --smoke`` in-process (tiny grids, one repeat) and
validates the JSON it emits, so the harness every performance PR depends on
cannot silently rot.
"""
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def bench_mod():
    sys.path.insert(0, str(TOOLS))
    try:
        import bench
    finally:
        sys.path.remove(str(TOOLS))
    return bench


@pytest.fixture(scope="module")
def report_path(bench_mod, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_pipeline.json"
    assert bench_mod.main(["--smoke", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def report(report_path):
    with open(report_path) as fh:
        return json.load(fh)


def test_report_envelope(report):
    assert report["schema_version"] == 7
    assert report["timing_source"] == "repro.obs"
    assert report["smoke"] is True
    assert report["has_stage_profiler"] is True
    assert report["rel_error_bound"] == 1e-3
    assert isinstance(report["python"], str) and isinstance(report["numpy"], str)
    assert report["kernel_backends"] == {
        stage: "numpy"
        for stage in ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp")
    }
    assert isinstance(report["has_rss_sampler"], bool)
    assert "stream_summary" in report


def test_full_matrix_present(report):
    # 4 bases x qp on/off on the smoke grid (no parallel row in smoke mode),
    # plus one auto-tuned row per base (schema v5); the v6 streamed pair
    # rows carry a "stream" key and are checked separately
    fixed = [r for r in report["results"]
             if not r.get("auto") and "stream" not in r]
    auto = [r for r in report["results"] if r.get("auto")]
    combos = {(r["base"], r["qp"]) for r in fixed}
    assert combos == {
        (base, qp) for base in ("sz3", "qoz", "hpez", "mgard") for qp in (False, True)
    }
    assert {r["base"] for r in auto} == {"sz3", "qoz", "hpez", "mgard"}


def test_auto_rows_record_tuner_decisions(report):
    for row in report["results"]:
        if not row.get("auto"):
            continue
        assert 0.0 <= row["adaptive_fraction"] <= 1.0
        tuning = row["tuning"]
        assert tuning is not None
        assert {"interp", "structure", "axis_order", "alpha", "beta",
                "adaptive_bits", "adaptive_threshold", "qp", "score",
                "adaptive_fraction", "n_blocks", "block_side"} <= set(tuning)
        assert tuning["n_blocks"] >= 1


def test_row_schema(report):
    required = {
        "base", "qp", "dataset", "shape", "error_bound", "compressed_bytes",
        "ratio", "compress_s", "decompress_s", "compress_mbs",
        "decompress_mbs", "max_error",
    }
    for row in report["results"]:
        assert required <= set(row)
        assert "peak_rss_mb" in row and "peak_rss_delta_mb" in row
        if "stream" not in row:  # matrix rows run in-process with profiles
            assert "stages" in row
        assert row["compressed_bytes"] > 0
        assert row["ratio"] > 1.0
        assert row["compress_mbs"] > 0 and row["decompress_mbs"] > 0
        assert row["max_error"] <= row["error_bound"] * (1 + 1e-9)


def test_stream_pair_rows_and_summary(report):
    pair = [r for r in report["results"] if "stream" in r]
    assert {r["stream"] for r in pair} == {False, True}
    streamed = next(r for r in pair if r["stream"])
    assert streamed["segments"] >= 1
    assert streamed["slab_bytes"] > 0
    assert streamed["isolated_subprocess"] is True
    summary = report["stream_summary"]
    assert summary["dataset"] == streamed["dataset"]
    assert summary["compress_throughput_ratio"] > 0
    assert set(summary["gates"]) == {"throughput_ok", "rss_ok"}


def test_stage_profiles_recorded(report):
    for row in report["results"]:
        if "stream" in row:  # subprocess pair rows carry no span profiles
            continue
        stages = row["stages"]
        assert set(stages) == {"compress", "decompress"}
        for direction in ("compress", "decompress"):
            entry = stages[direction]
            assert entry["total_s"] > 0
            # the interpolation pipeline must at least hit these stages
            assert {"predict", "quantize", "huffman", "lossless"} <= set(
                entry["stages"]
            )
            # sz3's auto predictor may pick the Lorenzo path (no QP stage);
            # the other bases always run the interpolation engine
            if row["qp"] and row["base"] != "sz3":
                assert "qp" in entry["stages"]


def test_compare_identical_reports_passes(bench_mod, report_path):
    # a report compared against itself has zero deltas -> exit 0
    assert bench_mod.main(
        ["--compare", str(report_path), str(report_path)]
    ) == 0


def test_compare_flags_injected_regression(bench_mod, report_path, report, tmp_path):
    # slow one row's end-to-end decompress and one of its decode stages by
    # 50% -- the gate must exit nonzero at the default 10% threshold
    slow = json.loads(json.dumps(report))
    row = slow["results"][0]
    row["decompress_s"] = max(row["decompress_s"], 1e-3) * 1.5
    stages = row["stages"]["decompress"]["stages"]
    for st in stages.values():
        st["seconds"] = max(st["seconds"], 1e-3) * 1.5
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slow))
    assert bench_mod.main(["--compare", str(report_path), str(slow_path)]) == 1
    # and an equally large *speedup* is not a regression
    assert bench_mod.main(["--compare", str(slow_path), str(report_path)]) == 0


def test_compare_reports_counts_stage_metrics(bench_mod, report):
    flat = bench_mod._flatten_timings(report)
    # end-to-end plus per-stage keys for every row, both directions
    assert any(k.endswith(":decompress_s") for k in flat)
    assert any(".huffman" in k and ":decompress." in k for k in flat)
    assert all(v >= 0 for v in flat.values())
    # auto rows are suffixed so they never collide with the fixed rows
    assert any("/auto:" in k for k in flat)


def test_flatten_suffixes_stream_rows(bench_mod, report):
    flat = bench_mod._flatten_timings(report)
    assert any("/stream:" in k for k in flat)
    mem = bench_mod._flatten_memory(report)
    assert any(k.endswith("/stream") for k in mem)


def test_compare_flags_memory_regression(bench_mod):
    def rep(delta):
        row = {"dataset": "d", "base": "b", "qp": True, "compress_s": 1.0}
        if delta is not None:
            row["peak_rss_delta_mb"] = delta
        return {"results": [row]}

    # +50% growth on a 100 MB delta fails the 15% gate
    assert bench_mod.compare_reports(rep(100.0), rep(150.0)) == 1
    # the same relative move below the ~16 MB noise floor is ignored
    assert bench_mod.compare_reports(rep(10.0), rep(15.0)) == 0
    # shrinking memory is never a regression
    assert bench_mod.compare_reports(rep(150.0), rep(100.0)) == 0
    # a pre-v6 baseline has no memory keys: rows compare as new, exit clean
    assert bench_mod.compare_reports(rep(None), rep(150.0)) == 0
