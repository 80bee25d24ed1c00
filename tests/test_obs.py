"""Tests for the structured observability layer (repro.obs).

Covers the contracts the rest of the codebase leans on: span nesting and
ordering, deterministic fork-pool buffer merges, fixed histogram buckets,
the JSONL exporter round-trip, and the disabled-path no-op guarantee.
"""
import io
import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    SECONDS_BUCKETS,
    Observation,
    Tracer,
)
from repro.obs.export import (
    InMemoryExporter,
    JsonlExporter,
    read_jsonl,
    render_report,
)
from repro.obs.metrics import Histogram, MetricsRegistry


# -- tracer: nesting & ordering ----------------------------------------------


def test_span_nesting_records_parent_and_depth():
    t = Tracer()
    with t.span("outer"):
        with t.span("mid"):
            with t.span("inner"):
                pass
        with t.span("mid2"):
            pass
    names = [s.name for s in t.spans]
    assert names == ["outer", "mid", "inner", "mid2"]  # open order
    outer, mid, inner, mid2 = t.spans
    assert (outer.parent, outer.depth) == (-1, 0)
    assert (mid.parent, mid.depth) == (outer.index, 1)
    assert (inner.parent, inner.depth) == (mid.index, 2)
    assert (mid2.parent, mid2.depth) == (outer.index, 1)
    assert all(s.end is not None and s.seconds >= 0 for s in t.spans)
    # children close before (or when) their parent does
    assert inner.end <= mid.end <= outer.end


def test_span_labels_and_late_label():
    t = Tracer()
    with t.span("stage", dim="2d") as s:
        s.label(nbytes=128)
    assert t.spans[0].labels == {"dim": "2d", "nbytes": 128}


def test_mis_nested_exit_does_not_corrupt_stack():
    t = Tracer()
    outer = t.span("outer")
    t.span("leaked")  # entered, never exited (exception path)
    outer.__exit__(None, None, None)  # closing outer pops the leaked span too
    with t.span("next"):
        pass
    assert t.spans[-1].depth == 0 and t.spans[-1].parent == -1


def test_stage_seconds_and_counts_aggregate_by_name():
    t = Tracer()
    for _ in range(3):
        with t.span("a"):
            with t.span("b"):
                pass
    totals, counts = t.stage_seconds(), t.span_counts()
    assert set(totals) == {"a", "b"} and counts == {"a": 3, "b": 3}
    assert totals["a"] >= totals["b"] >= 0


def _timed(t, spans):
    """Give the recorded spans of ``t`` exact (start, end) times."""
    for s, (t0, t1) in zip(t.spans, spans):
        s.start, s.end = t0, t1


def test_self_seconds_count_nested_spans_once():
    t = Tracer()
    with t.span("compress"):
        with t.span("autotune"):
            with t.span("predict"):
                pass
            with t.span("quantize"):
                pass
        with t.span("predict"):
            pass
    _timed(t, [(0.0, 10.0), (1.0, 6.0), (1.5, 3.5), (4.0, 5.0), (7.0, 9.0)])
    assert t.stage_seconds() == {
        "compress": 10.0, "autotune": 5.0, "predict": 4.0, "quantize": 1.0,
    }
    # autotune's own time is what its trial stages leave; compress's is
    # the residual no stage names; together they add up to the wall
    assert t.self_seconds() == {
        "compress": 3.0, "autotune": 2.0, "predict": 4.0, "quantize": 1.0,
    }
    assert sum(t.self_seconds().values()) == t.root_seconds()


def test_self_seconds_keep_merged_worker_spans_out_of_the_parent():
    t = Tracer()
    with t.span("compress"):
        t.merge_payload({"spans": [
            {"name": "predict", "index": 0, "parent": -1, "depth": 0,
             "t0": 0.0, "seconds": 4.0},
            {"name": "quantize", "index": 1, "parent": 0, "depth": 1,
             "t0": 1.0, "seconds": 1.0},
        ]}, worker="w0")
    t.spans[0].start, t.spans[0].end = 0.0, 2.0
    # the worker's 4 s ran beside the parent's 2 s, not inside them
    assert t.self_seconds() == {
        "compress": 2.0, "predict": 3.0, "quantize": 1.0,
    }


def test_event_attaches_to_open_span():
    t = Tracer()
    with t.span("transfer"):
        t.event("retry", attempt=2)
    assert t.events[0].name == "retry"
    assert t.events[0].parent == t.spans[0].index
    assert t.events[0].labels == {"attempt": 2}


# -- fork-pool buffer merge ---------------------------------------------------


def _worker_payload(tag):
    ob = Observation()
    with obs.observe(ob):
        with obs.span("job", tag=tag):
            with obs.span("stage"):
                pass
        obs.add_bytes("stage", 100)
        obs.metric_count("jobs")
    return ob.to_payload()


def test_merge_payload_is_deterministic_and_nests_under_anchor():
    payloads = [_worker_payload(i) for i in range(3)]

    def merged():
        parent = Observation()
        with obs.observe(parent):
            with obs.span("parallel"):
                for i, p in enumerate(payloads):
                    parent.merge_payload(p, worker=f"w{i}")
        return parent

    a, b = merged(), merged()
    # merged worker spans are identical regardless of when the merge runs
    # (the locally-timed "parallel" anchor span itself naturally differs)
    assert [s.to_dict() for s in a.tracer.spans if s.worker] == [
        s.to_dict() for s in b.tracer.spans if s.worker
    ]
    # worker spans hang under the parallel span, tagged and re-deepened
    jobs = [s for s in a.tracer.spans if s.name == "job"]
    assert [s.worker for s in jobs] == ["w0", "w1", "w2"]
    root = next(s for s in a.tracer.spans if s.name == "parallel")
    assert all(s.parent == root.index and s.depth == 1 for s in jobs)
    stages = [s for s in a.tracer.spans if s.name == "stage"]
    assert all(s.depth == 2 for s in stages)
    # metrics add across workers
    assert a.bytes_seen()["stage"] == 300
    assert a.metrics.counter("jobs").value == 3


def test_merge_payload_remaps_sparse_worker_indices():
    t = Tracer()
    # worker trace whose open root was dropped by to_payload -> sparse indices
    payload = {
        "spans": [
            {"name": "child", "index": 5, "parent": 2, "depth": 1,
             "t0": 0.0, "seconds": 0.5},
            {"name": "orphan", "index": 7, "parent": 99, "depth": 0,
             "t0": 1.0, "seconds": 0.25},
        ],
        "events": [{"name": "ping", "t": 0.1, "parent": 5}],
    }
    with t.span("anchor"):
        t.merge_payload(payload, worker="w0")
    anchor, child, orphan = t.spans
    # unknown parents re-anchor under the open span
    assert child.parent == anchor.index and orphan.parent == anchor.index
    assert t.events[0].parent == child.index  # known parent remapped


def test_parallel_compressor_fork_pool_spans(tmp_path):
    parallel = pytest.importorskip("repro.parallel")
    data = np.linspace(0, 1, 4 * 16 * 16, dtype=np.float32).reshape(4, 16, 16)
    comp = parallel.ParallelCompressor("sz3", 1e-3, workers=2, n_slabs=2)
    ob = Observation()
    with obs.observe(ob):
        blob = comp.compress(data)
        out = comp.decompress(blob)
    assert np.abs(out - data).max() <= 1e-3 * (1 + 1e-9)
    workers = {s.worker for s in ob.tracer.spans if s.worker}
    assert workers == {"w0", "w1"}
    roots = {s.name for s in ob.tracer.spans if s.depth == 0}
    assert roots == {"parallel.compress", "parallel.decompress"}
    # each slab job's compress span merged under the root, one per job
    # (decompress runs one job per usable CPU, so one on a single core)
    croot = next(s for s in ob.tracer.spans if s.name == "parallel.compress")
    jobs = [s for s in ob.tracer.spans
            if s.worker is not None and s.name == "compress"]
    assert len(jobs) == 2
    assert all(s.parent == croot.index and s.depth == 1 for s in jobs)
    # decode stages were recorded under the decompress root either way
    droot = next(s for s in ob.tracer.spans if s.name == "parallel.decompress")
    by_index = {s.index: s for s in ob.tracer.spans}

    def under(s, root):
        while s.parent != -1:
            s = by_index[s.parent]
            if s is root:
                return True
        return False

    decode = {s.name for s in ob.tracer.spans if under(s, droot)}
    assert "huffman" in decode


# -- metrics ------------------------------------------------------------------


def test_histogram_buckets_are_fixed_and_stable():
    h = Histogram((1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0, 5.0):
        h.observe(v)
    assert h.to_dict() == {
        "le": [1.0, 10.0, 100.0],
        "counts": [1, 2, 1],
        "overflow": 1,
        "sum": 560.5,
        "count": 5,
    }
    # same workload -> byte-identical snapshot
    h2 = Histogram((1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0, 5.0):
        h2.observe(v)
    assert h2.to_dict() == h.to_dict()


def test_histogram_rejects_unsorted_buckets_and_bucket_mismatch():
    with pytest.raises(ValueError):
        Histogram((3.0, 1.0))
    reg = MetricsRegistry()
    reg.histogram("h", (1.0, 2.0))
    with pytest.raises(ValueError):
        reg.histogram("h", (1.0, 3.0))


def test_registry_keys_by_labels_and_rejects_kind_clash():
    reg = MetricsRegistry()
    reg.counter("n", stage="a").inc(2)
    reg.counter("n", stage="b").inc(3)
    assert reg.counter("n", stage="a").value == 2
    snap = reg.snapshot()
    assert snap["n{stage=a}"]["value"] == 2 and snap["n{stage=b}"]["value"] == 3
    with pytest.raises(TypeError):
        reg.gauge("n", stage="a")


def test_span_close_feeds_span_histogram():
    ob = Observation()
    with obs.observe(ob):
        with obs.span("x"):
            pass
        with obs.span("x"):
            pass
    snap = ob.metrics.snapshot()
    assert snap["span.seconds{span=x}"]["count"] == 2
    assert snap["span.seconds{span=x}"]["le"] == list(SECONDS_BUCKETS)


# -- exporters ----------------------------------------------------------------


def _sample_observation():
    ob = Observation()
    with obs.observe(ob):
        with obs.span("compress", base="sz3"):
            with obs.span("huffman"):
                pass
            obs.event("checkpoint", k=1)
        obs.add_bytes("compress", 4096)
        obs.metric_count("attempts", 3)
    return ob


def test_jsonl_round_trip_preserves_content(tmp_path):
    ob = _sample_observation()
    path = tmp_path / "trace.jsonl"
    n = JsonlExporter(str(path)).export(ob, run="t1")
    text = path.read_text()
    assert n == len(text.splitlines())
    for line in text.splitlines():  # every line is standalone JSON
        json.loads(line)
    back = read_jsonl(str(path))
    assert back["meta"]["version"] == 1 and back["meta"]["run"] == "t1"
    assert back["spans"] == [s.to_dict() for s in ob.tracer.spans]
    assert back["events"] == [e.to_dict() for e in ob.tracer.events]
    snap = ob.metrics.snapshot()
    assert set(back["metrics"]) == set(snap)
    for key, entry in snap.items():
        assert back["metrics"][key] == entry


def test_jsonl_export_to_stream_appends():
    ob = _sample_observation()
    buf = io.StringIO()
    JsonlExporter(buf).export(ob)
    JsonlExporter(buf).export(ob)
    back = read_jsonl(io.StringIO(buf.getvalue()))
    # two appended exports -> doubled spans, merged metric keys
    assert len(back["spans"]) == 2 * len(ob.tracer.spans)


def test_in_memory_exporter_snapshots():
    ob = _sample_observation()
    sink = InMemoryExporter()
    snap = sink.export(ob)
    assert sink.snapshots == [snap]
    assert {s["name"] for s in snap["spans"]} == {"compress", "huffman"}
    assert "stage.bytes{stage=compress}" in snap["metrics"]


def test_render_report_mentions_stages_and_metrics():
    text = render_report(_sample_observation(), title="unit")
    assert "== unit ==" in text
    assert "compress" in text and "huffman" in text
    assert "stage.bytes{stage=compress}" in text
    assert "checkpoint" in text


# -- activation & the disabled path ------------------------------------------


def test_hooks_are_noops_when_disabled():
    assert obs.current() is None
    handle = obs.span("anything", k=1)
    with handle:
        pass
    assert handle is obs.span("other")  # shared singleton, no allocation
    obs.event("e")
    obs.add_bytes("s", 10)
    obs.metric_count("c")
    obs.metric_seconds("h", 0.1)
    ob = Observation()
    with obs.observe(ob):
        pass
    assert not ob.tracer.spans and len(ob.metrics) == 0


def test_observe_is_reentrant():
    outer, inner = Observation(), Observation()
    with obs.observe(outer):
        with obs.span("a"):
            pass
        with obs.observe(inner):
            with obs.span("b"):
                pass
        with obs.span("c"):
            pass
    assert obs.current() is None
    assert [s.name for s in outer.tracer.spans] == ["a", "c"]
    assert [s.name for s in inner.tracer.spans] == ["b"]


def test_observation_never_changes_compressed_bytes():
    from repro.compressors import get_compressor

    data = np.linspace(0, 1, 24 ** 3, dtype=np.float32).reshape(24, 24, 24)
    comp = get_compressor("sz3", 1e-3)
    plain = comp.compress(data)
    with obs.observe(Observation()):
        observed = comp.compress(data)
    assert observed == plain


def test_tuning_loops_run_under_their_spans():
    from repro.compressors import get_compressor

    x = np.linspace(0, 3, 20)
    data = (np.sin(x)[:, None, None] * np.cos(x)[None, :, None]
            + x[None, None, :]).astype(np.float32)

    def span_names(comp):
        ob = Observation()
        with obs.observe(ob):
            comp.compress(data)
        return {s.name for s in ob.tracer.spans}

    assert "tune" in span_names(get_compressor("qoz", 1e-3))
    assert {"tune", "scheme"} <= span_names(get_compressor("hpez", 1e-3))
    fixed = span_names(get_compressor("qoz", 1e-3, alpha=1.5, beta=3.0))
    assert "tune" not in fixed and "compress" in fixed


def test_stage_report_shape():
    ob = _sample_observation()
    rep = ob.stage_report(nbytes=4096)
    assert {"stages", "total_s", "span_count"} <= set(rep)
    assert rep["span_count"] == 2
    assert rep["stages"]["compress"]["bytes"] == 4096
    assert "seconds" in rep["stages"]["huffman"]
    st = rep["stages"]
    assert st["huffman"]["self_s"] == st["huffman"]["seconds"]
    assert st["compress"]["self_s"] == pytest.approx(
        st["compress"]["seconds"] - st["huffman"]["seconds"]
    )
