"""Streaming execution mode: slab planner, buffer pool, incremental
container, compress_stream/decompress_stream equivalence, and torn-stream
fault behaviour.

The load-bearing property is byte-identity: a streamed container's
segments are exactly the blobs ``compress`` would produce for the same
slabs, so every existing decode path (and every golden digest) keeps
working on streamed output.
"""
import io
import os
import threading

import numpy as np
import pytest

import repro
from repro import obs, streaming
from repro.compressors import COMPRESSORS, get_compressor, supports_qp
from repro.compressors.base import Blob
from repro.core.config import AdaptiveConfig, QPConfig
from repro.errors import (
    CorruptBlobError,
    IntegrityError,
    ReproError,
    TruncatedStreamError,
    VersionError,
)
from repro.io import ContainerReader, ContainerWriter, is_streamed_container
from repro.streaming import (
    BufferPool,
    plan_slabs,
    slab_slices,
    stream_compress,
    stream_decompress,
)
from repro.testing import run_corruption_matrix

pytestmark = pytest.mark.streaming

ENGINES = ("sz3", "qoz", "hpez", "mgard")


def _small_field(shape=(24, 20, 16), seed=11):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*(np.linspace(0, 2.5, s) for s in shape),
                         indexing="ij")
    return (sum(np.sin(c) for c in coords)
            + 0.05 * rng.standard_normal(shape)).astype(np.float32)


def _slab_bytes_for(data, n_slabs):
    rows = max(1, data.shape[0] // n_slabs)
    return rows * int(np.prod(data.shape[1:])) * data.dtype.itemsize


def _stream_threads():
    return [t for t in threading.enumerate() if t.name.startswith("stream-")]


# -- slab planner -------------------------------------------------------------


def test_slab_slices_cover_contiguously():
    slices = slab_slices(100, 7)
    assert slices[0].start == 0 and slices[-1].stop == 100
    for a, b in zip(slices, slices[1:]):
        assert a.stop == b.start
    assert sum(s.stop - s.start for s in slices) == 100


def test_slab_slices_more_parts_than_rows():
    slices = slab_slices(3, 8)
    assert sum(s.stop - s.start for s in slices) == 3
    assert all(s.stop > s.start for s in slices)


def test_plan_slabs_respects_min_rows_and_budget():
    shape, dtype = (64, 32, 32), np.dtype(np.float32)
    row_bytes = 32 * 32 * 4
    slices = plan_slabs(shape, dtype, slab_bytes=8 * row_bytes, min_rows=8)
    assert slices[0].start == 0 and slices[-1].stop == 64
    assert all(s.stop - s.start >= 8 for s in slices)


def test_plan_slabs_single_slab_when_budget_exceeds_volume():
    slices = plan_slabs((16, 8, 8), np.dtype(np.float32), slab_bytes=1 << 30)
    assert len(slices) == 1
    assert slices[0] == slice(0, 16)


# -- buffer pool --------------------------------------------------------------


def test_buffer_pool_reuses_released_buffers():
    pool = BufferPool()
    a = pool.acquire((8, 4), np.dtype(np.float32))
    pool.release(a)
    b = pool.acquire((8, 4), np.dtype(np.float32))
    assert b is a
    stats = pool.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_buffer_pool_keys_on_shape_and_dtype():
    pool = BufferPool()
    a = pool.acquire((8, 4), np.dtype(np.float32))
    pool.release(a)
    b = pool.acquire((8, 4), np.dtype(np.float64))
    assert b is not a
    assert pool.stats()["misses"] == 2


def test_buffer_pool_caps_retained_buffers():
    pool = BufferPool(max_per_key=2)
    bufs = [pool.acquire((4,), np.dtype(np.float32)) for _ in range(5)]
    for b in bufs:
        pool.release(b)
    # only two survive the cap; the next three acquires are 2 hits + 1 miss
    hits0 = pool.stats()["hits"]
    got = [pool.acquire((4,), np.dtype(np.float32)) for _ in range(3)]
    stats = pool.stats()
    assert stats["hits"] - hits0 == 2
    assert len(got) == 3


# -- incremental container ----------------------------------------------------


def test_container_round_trip_bytesio():
    segments = [b"alpha", b"bravo-bravo", b"c" * 100]
    sink = io.BytesIO()
    with ContainerWriter(sink, axis=0, meta={"k": 1}) as w:
        for seg in segments:
            w.append(seg)
    raw = sink.getvalue()
    assert is_streamed_container(raw[:4])
    r = ContainerReader(raw)
    assert len(r) == len(segments)
    assert list(r) == segments
    assert r.meta == {"k": 1}
    assert r.axis == 0
    # random access re-reads with CRC verification
    assert r.segment(1) == segments[1]


def test_container_offsets_monotone_and_contiguous():
    sink = io.BytesIO()
    with ContainerWriter(sink) as w:
        for seg in (b"x" * 10, b"y" * 33, b"z" * 7):
            w.append(seg)
    offsets = ContainerReader(sink.getvalue()).offsets()
    cursor = offsets[0][0]
    for off, size in offsets:
        assert off == cursor
        cursor = off + size


def test_container_writer_rejects_empty_segment_and_reuse():
    sink = io.BytesIO()
    w = ContainerWriter(sink)
    with pytest.raises(ValueError):
        w.append(b"")
    w.append(b"data")
    w.finalize()
    with pytest.raises(ValueError):
        w.append(b"more")
    with pytest.raises(ValueError):
        w.finalize()


def test_container_writer_file_sink(tmp_path):
    path = tmp_path / "field.rstr"
    with open(path, "wb") as fh, ContainerWriter(fh, meta={"n": 2}) as w:
        w.append(b"one")
        w.append(b"two")
    r = ContainerReader(str(path))
    assert list(r) == [b"one", b"two"]


def _sealed_container(meta=None):
    sink = io.BytesIO()
    with ContainerWriter(sink, meta=meta) as w:
        w.append(b"segment-zero" * 20)
        w.append(b"segment-one" * 17)
    return sink.getvalue()


def test_container_truncation_is_typed():
    raw = _sealed_container()
    for cut in (2, 6, len(raw) // 2, len(raw) - 1):
        with pytest.raises((TruncatedStreamError, CorruptBlobError)):
            ContainerReader(raw[:cut])


def test_container_bad_magic_and_version():
    raw = _sealed_container()
    with pytest.raises(CorruptBlobError):
        ContainerReader(b"XXXX" + raw[4:])
    bad_ver = raw[:4] + bytes([250]) + raw[5:]
    with pytest.raises(VersionError):
        ContainerReader(bad_ver)


def test_container_segment_corruption_fails_crc():
    raw = bytearray(_sealed_container())
    r = ContainerReader(bytes(raw))
    off, size = r.offsets()[0]
    raw[off + size // 2] ^= 0x40
    with pytest.raises(IntegrityError):
        ContainerReader(bytes(raw)).segment(0)


def test_container_index_corruption_fails_crc():
    raw = bytearray(_sealed_container())
    # the index JSON sits between the last segment and the 16-byte footer
    off, size = ContainerReader(bytes(raw)).offsets()[-1]
    raw[off + size + 2] ^= 0x01
    with pytest.raises((IntegrityError, CorruptBlobError)):
        ContainerReader(bytes(raw))


@pytest.mark.faults
def test_streamed_container_corruption_matrix():
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    data = _small_field()
    sink = io.BytesIO()
    comp.compress_stream(data, sink,
                         slab_bytes=_slab_bytes_for(data, 3))
    results = run_corruption_matrix(sink.getvalue(), stream_decompress,
                                    seeds=range(4))
    bad = [r for r in results if r.outcome == "untyped"]
    assert not bad, bad
    assert not any("deadline" in r.detail for r in results)


# -- compress_stream equivalence ---------------------------------------------


def _segment_cases():
    """Every registered compressor, with QP off and (where it supports
    QP) on, plus HPEZ's block-wise layout."""
    for name in COMPRESSORS:
        for qp in (False, True) if supports_qp(name) else (False,):
            yield pytest.param(qp, name, {}, id=f"{qp}-{name}")
    for qp in (False, True):
        yield pytest.param(qp, "hpez", {"block_side": 8},
                           id=f"{qp}-hpez-blocks")


@pytest.mark.parametrize("qp,name,extra", list(_segment_cases()))
def test_stream_segments_match_per_slab_compress(qp, name, extra):
    data = _small_field()
    kwargs = dict(extra)
    if supports_qp(name):
        kwargs["qp"] = QPConfig() if qp else QPConfig.disabled()
    comp = get_compressor(name, 1e-2, **kwargs)
    slab_bytes = _slab_bytes_for(data, 3)
    sink = io.BytesIO()
    res = comp.compress_stream(data, sink, slab_bytes=slab_bytes)
    slices = plan_slabs(data.shape, data.dtype, slab_bytes=slab_bytes)
    reader = ContainerReader(sink.getvalue())
    assert res.segments == len(slices) == len(reader)
    expected_parts = []
    for seg, sl in zip(reader, slices):
        blob = comp.compress(np.ascontiguousarray(data[sl]))
        assert seg == blob
        expected_parts.append(comp.decompress(blob))
    out = stream_decompress(sink.getvalue())
    np.testing.assert_array_equal(out, np.concatenate(expected_parts, axis=0))


@pytest.mark.parametrize("name", ENGINES)
def test_stream_adaptive_segments_match(name):
    data = _small_field()
    comp = get_compressor(name, 1e-2, qp=QPConfig(),
                          adaptive=AdaptiveConfig(bits=2, threshold=3))
    slab_bytes = _slab_bytes_for(data, 2)
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=slab_bytes)
    slices = plan_slabs(data.shape, data.dtype, slab_bytes=slab_bytes)
    for seg, sl in zip(ContainerReader(sink.getvalue()), slices):
        assert seg == comp.compress(np.ascontiguousarray(data[sl]))


@pytest.mark.parametrize("name", ENGINES)
def test_single_slab_stream_is_bit_identical_to_compress(name):
    data = _small_field(shape=(16, 12, 10))
    comp = get_compressor(name, 1e-2, qp=QPConfig())
    sink = io.BytesIO()
    res = comp.compress_stream(data, sink, slab_bytes=1 << 30)
    assert res.segments == 1
    blob = comp.compress(data)
    assert ContainerReader(sink.getvalue()).segment(0) == blob
    np.testing.assert_array_equal(stream_decompress(sink.getvalue()),
                                  comp.decompress(blob))


def test_lorenzo_slabs_select_once_and_match_compress(monkeypatch):
    # a random walk at rel 1e-4 picks Lorenzo on each of its three slabs;
    # each streamed slab runs the selection once and frames its segment
    # from that decision
    from repro.compressors.sz3 import SZ3

    rng = np.random.default_rng(5)
    data = rng.standard_normal((48, 24, 24))
    for axis in range(3):
        data = np.cumsum(data, axis=axis)
    data = data.astype(np.float32)
    comp = get_compressor("sz3", 1e-4 * float(data.max() - data.min()))
    chosen = []
    real = SZ3._select_predictor_with_trial

    def spy(self, slab):
        out = real(self, slab)
        chosen.append(out[0])
        return out

    monkeypatch.setattr(SZ3, "_select_predictor_with_trial", spy)
    slab_bytes = _slab_bytes_for(data, 3)
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=slab_bytes)
    assert chosen == ["lorenzo"] * 3
    slices = plan_slabs(data.shape, data.dtype, slab_bytes=slab_bytes)
    for seg, sl in zip(ContainerReader(sink.getvalue()), slices):
        assert seg == comp.compress(np.ascontiguousarray(data[sl]))


def test_stream_checksum_mode_round_trips():
    data = _small_field()
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 2),
                         checksum=True)
    out = stream_decompress(sink.getvalue())
    assert out.shape == data.shape
    assert float(np.abs(out - data).max()) <= 1e-2 * 1.0000001


def test_stream_checksum_segments_match_sealed_compress():
    data = _small_field()
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    slab_bytes = _slab_bytes_for(data, 3)
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=slab_bytes, checksum=True)
    slices = plan_slabs(data.shape, data.dtype, slab_bytes=slab_bytes)
    reader = ContainerReader(sink.getvalue())
    assert len(reader) == len(slices) == 3
    for seg, sl in zip(reader, slices):
        assert seg == comp.compress(np.ascontiguousarray(data[sl]),
                                    checksum=True)


def test_threaded_encode_raises_the_lowest_failing_slab(monkeypatch):
    # two failing slabs past the first window: the lower one's error is
    # raised even though it fails later than the higher one
    import time

    from repro.compressors.sz3 import SZ3

    data = _small_field(shape=(80, 12, 10))
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    slab_bytes = _slab_bytes_for(data, 10)
    slices = plan_slabs(data.shape, data.dtype, slab_bytes=slab_bytes)
    first = streaming._default_workers() + 3
    second = first + 1
    assert len(slices) > second
    slab_of = {data[sl].tobytes(): i for i, sl in enumerate(slices)}
    real = SZ3.compress

    def failing(self, slab, **kwargs):
        i = slab_of.get(np.ascontiguousarray(slab).tobytes())
        if i == first:
            time.sleep(0.05)
        if i in (first, second):
            raise RuntimeError(f"slab {i} failed")
        return real(self, slab, **kwargs)

    monkeypatch.setattr(SZ3, "compress", failing)
    sink = io.BytesIO()
    with pytest.raises(RuntimeError, match=f"^slab {first} failed$"):
        comp.compress_stream(data, sink, slab_bytes=slab_bytes)
    assert not _stream_threads()
    with pytest.raises(ReproError):
        ContainerReader(sink.getvalue())
    with pytest.raises(ReproError):
        stream_decompress(sink.getvalue())


def test_generic_compressor_streams_via_whole_blob_fallback():
    data = _small_field(shape=(16, 12, 10))
    comp = get_compressor("zfp", 1e-2)
    sink = io.BytesIO()
    res = comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 2))
    assert res.segments >= 2
    out = comp.decompress_stream(sink.getvalue())
    assert out.shape == data.shape
    assert out.dtype == data.dtype


def test_stream_decompress_without_compressor_uses_registry():
    data = _small_field()
    comp = get_compressor("hpez", 1e-2, qp=QPConfig())
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 2))
    out = stream_decompress(sink.getvalue())
    np.testing.assert_array_equal(out, comp.decompress_stream(sink.getvalue()))


def test_stream_accepts_memmap_input(tmp_path):
    data = _small_field(shape=(32, 16, 12))
    npy = tmp_path / "field.npy"
    np.save(npy, data)
    mm = np.load(npy, mmap_mode="r")
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    slab_bytes = _slab_bytes_for(data, 4)
    sink_mm = io.BytesIO()
    comp.compress_stream(mm, sink_mm, slab_bytes=slab_bytes)
    sink_arr = io.BytesIO()
    comp.compress_stream(data, sink_arr, slab_bytes=slab_bytes)
    assert sink_mm.getvalue() == sink_arr.getvalue()


def test_stream_file_round_trip(tmp_path):
    data = _small_field()
    comp = get_compressor("mgard", 1e-2, qp=QPConfig())
    path = tmp_path / "field.rstr"
    with open(path, "wb") as fh:
        comp.compress_stream(data, fh, slab_bytes=_slab_bytes_for(data, 3))
    out = stream_decompress(str(path))
    assert out.shape == data.shape
    assert float(np.abs(out.astype(np.float64)
                        - data.astype(np.float64)).max()) <= 1e-2 * 1.0000001


def test_torn_stream_decode_is_typed(tmp_path):
    data = _small_field()
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 3))
    raw = sink.getvalue()
    # tear the stream at several points: mid-header, mid-payload, mid-footer
    for cut in (3, len(raw) // 3, len(raw) - 5):
        with pytest.raises(ReproError):
            stream_decompress(raw[:cut])


def test_stream_result_accounting():
    data = _small_field()
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    sink = io.BytesIO()
    res = comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 3))
    assert res.input_bytes == data.nbytes
    assert res.total_bytes == len(sink.getvalue())
    assert res.payload_bytes < res.total_bytes
    assert res.ratio > 1.0
    assert res.backpressure_wait_s >= 0.0
    assert set(res.buffer_reuse) >= {"hits", "misses"}


def test_stream_observability_spans_and_metrics():
    data = _small_field()
    comp = get_compressor("sz3", 1e-2, qp=QPConfig())
    ob = obs.Observation()
    with obs.observe(ob):
        sink = io.BytesIO()
        comp.compress_stream(data, sink, slab_bytes=_slab_bytes_for(data, 3))
    payload = ob.to_payload()
    names = {s["name"] for s in payload.get("spans", [])}
    assert {"stream.encode", "stream.write"} <= names
    spans = ob.tracer.spans
    (outer,) = [s for s in spans if s.name == "stream.compress"]
    encodes = [s for s in spans if s.name == "stream.encode"]
    assert [s.labels["slab"] for s in encodes] == [0, 1, 2]
    assert [s.worker for s in encodes] == [f"slab{i}.encode" for i in range(3)]
    for s in encodes:
        # one whole compress per slab job
        assert s.parent == outer.index
        assert [c.name for c in spans if c.parent == s.index] == ["compress"]
    flat = str(payload.get("metrics"))
    assert "stream.buffer_reuse" in flat
    assert "stream.backpressure_wait" in flat


# -- threaded decode ------------------------------------------------------------


def _mixed_segments():
    """Nine SZ3 slab blobs that decode down different paths: interp slabs,
    Lorenzo-winning slabs (a random walk, and a smooth slab at this tight
    bound), eight-row slabs and a three-row tail; more segments than the
    decode window holds."""
    rng = np.random.default_rng(5)
    walk = rng.standard_normal((8, 20, 16))
    for axis in range(3):
        walk = np.cumsum(walk, axis=axis)
    coords = np.meshgrid(*(np.linspace(0, 2.5, s) for s in (56, 20, 16)),
                         indexing="ij")
    smooth = sum(np.sin(c) for c in coords)
    smooth *= np.ptp(walk) / np.ptp(smooth)
    data = np.concatenate([smooth[:24], walk, smooth[24:]]).astype(np.float32)
    comp = get_compressor("sz3", 1e-4 * float(data.max() - data.min()))
    rows = [0, 8, 16, 24, 32, 40, 48, 56, 61, 64]
    blobs = [comp.compress(np.ascontiguousarray(data[a:b]))
             for a, b in zip(rows[:-1], rows[1:])]
    assert len(blobs) > streaming._default_workers() + 2
    assert {Blob.from_bytes(b).header["predictor"] for b in blobs} == {
        "interp", "lorenzo"}
    return comp, data, blobs


def _container(comp, data, blobs):
    meta = {"compressor": comp.name, "dtype": data.dtype.str,
            "shape": list(data.shape), "error_bound": comp.error_bound}
    sink = io.BytesIO()
    with ContainerWriter(sink, axis=0, meta=meta) as w:
        for blob in blobs:
            w.append(blob)
    return sink.getvalue()


def _error_of(decode, blob):
    with pytest.raises(ReproError) as info:
        decode(blob)
    return info.value


@pytest.mark.parametrize("given", ["compressor", "registry"])
def test_threaded_decode_matches_per_segment_decompress(given):
    comp, data, blobs = _mixed_segments()
    raw = _container(comp, data, blobs)
    expected = np.concatenate([comp.decompress(b) for b in blobs])
    out = (comp.decompress_stream(raw) if given == "compressor"
           else stream_decompress(raw))
    assert out.dtype == expected.dtype and out.shape == data.shape
    assert out.tobytes() == expected.tobytes()
    assert not _stream_threads()


@pytest.mark.parametrize("later", ["decode", "read"])
def test_threaded_decode_raises_the_lowest_failing_segment(later):
    # two failing segments past the first window: the lower one's error is
    # raised, whether the higher one fails to decode or (on the caller
    # thread, while the lower one is still in flight) its CRC check
    comp, data, blobs = _mixed_segments()
    first = streaming._default_workers() + 3
    second = first + 1
    bad = list(blobs)
    bad[first] = bad[first][: len(bad[first]) // 2]
    expected = _error_of(comp.decompress, bad[first])
    if later == "decode":
        bad[second] = b"XXXX" + bad[second][4:]
        assert str(_error_of(comp.decompress, bad[second])) != str(expected)
        raw = _container(comp, data, bad)
    else:
        raw = bytearray(_container(comp, data, bad))
        off, size = ContainerReader(bytes(raw)).offsets()[second]
        raw[off + size // 2] ^= 0x40
        raw = bytes(raw)
        assert isinstance(_error_of(ContainerReader(raw).segment, second),
                          IntegrityError)
    for decode in (comp.decompress_stream, stream_decompress):
        err = _error_of(decode, raw)
        assert type(err) is type(expected) and str(err) == str(expected)
        assert not _stream_threads()


def test_threaded_decode_records_one_span_per_segment():
    comp, data, blobs = _mixed_segments()
    raw = _container(comp, data, blobs)
    ob = obs.Observation()
    with obs.observe(ob):
        comp.decompress_stream(raw)
    spans = ob.tracer.spans
    (outer,) = [s for s in spans if s.name == "stream.decompress"]
    decodes = [s for s in spans if s.name == "stream.decode"]
    assert [s.labels["slab"] for s in decodes] == list(range(len(blobs)))
    assert [s.worker for s in decodes] == [
        f"slab{i}.decode" for i in range(len(blobs))]
    for s in decodes:
        assert s.parent == outer.index
        assert [c.name for c in spans if c.parent == s.index] == ["decompress"]


def test_default_workers_is_one_on_the_numpy_path(numpy_path):
    # the numpy loops hold the GIL, so a second thread only adds CPU time
    assert streaming._default_workers() == 1


def test_stream_compress_keywords_are_slab_bytes_and_checksum():
    import inspect

    comp = get_compressor("sz3", 1e-2)
    for fn, positional in ((stream_compress, 3), (comp.compress_stream, 2)):
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params[positional:]] == [
            "slab_bytes", "checksum"]
        assert all(p.kind is p.KEYWORD_ONLY for p in params[positional:])


# -- malformed containers -------------------------------------------------------


def _cube_blob(rows=16, side=16, dtype=np.float32):
    data = _small_field(shape=(rows, side, side)).astype(dtype)
    return get_compressor("sz3", 1e-2).compress(data)


#: case -> (meta overrides, container axis, segment's _cube_blob kwargs):
#: one defect each in a container written with the public ContainerWriter
_MALFORMED = {
    "axis-past-rank": ({}, 5, {}),
    "negative-extent": ({"shape": [-16, 16, 16]}, 0, {}),
    "non-numeric-dtype": ({"dtype": "zz"}, 0, {}),
    "shape-past-cap": ({"shape": [8] * 16}, 0, {}),
    "segment-cross-section": ({}, 0, {"rows": 8, "side": 8}),
    "segment-dtype": ({}, 0, {"dtype": np.float64}),
    "undeclared-geometry": ({"shape": None, "dtype": None}, 0, {}),
}


def _malformed_container(case):
    overrides, axis, segment = _MALFORMED[case]
    meta = {"compressor": "sz3", "dtype": "<f4", "shape": [16, 16, 16],
            "error_bound": 1e-2}
    meta.update(overrides)
    meta = {k: v for k, v in meta.items() if v is not None}
    sink = io.BytesIO()
    with ContainerWriter(sink, axis=axis, meta=meta) as w:
        w.append(_cube_blob(**segment))
    return sink.getvalue()


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_container_geometry_is_typed(case):
    raw = _malformed_container(case)
    with pytest.raises(CorruptBlobError):
        stream_decompress(raw)
    assert not _stream_threads()


def test_module_level_stream_compress_matches_method():
    data = _small_field()
    comp = get_compressor("qoz", 1e-2, qp=QPConfig())
    a, b = io.BytesIO(), io.BytesIO()
    stream_compress(comp, data, a, slab_bytes=_slab_bytes_for(data, 2))
    comp.compress_stream(data, b, slab_bytes=_slab_bytes_for(data, 2))
    assert a.getvalue() == b.getvalue()


# -- CLI and API-surface lint -------------------------------------------------


def test_cli_stream_round_trip(tmp_path):
    from repro import cli

    data = _small_field(shape=(32, 16, 12))
    src = tmp_path / "in.npy"
    np.save(src, data)
    blob_path = tmp_path / "out.rc"
    rc = cli.main([
        "compress", str(src), str(blob_path),
        "--compressor", "sz3", "--eb", "1e-2",
        "--stream", "--slab-mb", "0.02",
    ])
    assert rc == 0
    with open(blob_path, "rb") as fh:
        assert is_streamed_container(fh.read(4))
    out_path = tmp_path / "roundtrip.npy"
    rc = cli.main(["decompress", str(blob_path), str(out_path)])
    assert rc == 0
    out = np.load(out_path)
    assert out.shape == data.shape
    assert float(np.abs(out.astype(np.float64)
                        - data.astype(np.float64)).max()) <= 1e-2 * 1.0000001


def test_check_api_streaming_surface_is_clean():
    import pathlib
    import sys

    tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
    sys.path.insert(0, str(tools))
    try:
        import check_api

        assert check_api.check_streaming() == []
    finally:
        sys.path.remove(str(tools))
