"""SZ3's batched decode: blobs that share a stack decode their index
streams into the rows of one buffer, which the stacked walk inverts in
place; a blob alone decodes as a stack of one.  Every case compares
``decompress_many`` with per-blob ``decompress`` and counts the stacks
the walk ran; tests/numpy_path re-runs this module on the numpy loops.
"""
import itertools
import struct

import numpy as np
import pytest

from repro.codecs import compress as lossless_compress
from repro.codecs import decompress as lossless_decompress
from repro.codecs.fixed import decode_fixed, encode_fixed
from repro.compressors import interp_engine
from repro.compressors.base import Blob, decode_index_stream, encode_index_stream
from repro.compressors.sz3 import SZ3
from repro.core import QP_CONDITIONS, QP_DIMENSIONS, QPConfig
from repro.errors import CorruptBlobError

_HEAD = struct.calcsize("<BqQ")


def _field(shape, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return (sum(np.sin(c) for c in coords)
            + 0.1 * rng.standard_normal(shape)).astype(dtype)


def _slabs(data, rows):
    edges = np.cumsum((0,) + tuple(rows))
    return [np.ascontiguousarray(data[a:b]) for a, b in zip(edges[:-1], edges[1:])]


def _escapes(blob):
    """The index stream's escaped outliers (the alphabet window's)."""
    data = Blob.from_bytes(blob).sections["indices"]
    (plen,) = struct.unpack_from("<Q", data, 9)
    return decode_fixed(lossless_decompress(data[_HEAD + plen:]))


def _has_literals(blob):
    return bool(lossless_decompress(Blob.from_bytes(blob).sections["literals"]))


def _assert_batch_matches(monkeypatch, comp, blobs, stacks=(3,)):
    """``decompress_many`` equals per-blob ``decompress``, and the
    interpolation blobs decode in walks over stacks of the sizes
    ``stacks``, in order."""
    expected = [comp.decompress(b) for b in blobs]
    sizes = []
    real = interp_engine.decompress_volumes
    with monkeypatch.context() as m:
        m.setattr(
            interp_engine, "decompress_volumes",
            lambda items, *a, **k: sizes.append(len(items)) or real(items, *a, **k),
        )
        outs = comp.decompress_many(blobs)
    assert sizes == list(stacks)
    for out, exp in zip(outs, expected):
        assert out.dtype == exp.dtype and out.shape == exp.shape
        np.testing.assert_array_equal(out, exp)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize(
    "dim,cond", list(itertools.product(QP_DIMENSIONS, QP_CONDITIONS)),
    ids=lambda v: str(v),
)
def test_stack_matches_per_blob_decode(monkeypatch, dim, cond, dtype):
    # radius 8: most coarse-level indices reach the radius, so every slab
    # carries literals the stack must split per volume
    data = _field((15, 12, 11), 1, dtype)
    comp = SZ3(1e-2, predictor="interp", radius=8,
               qp=QPConfig(dimension=dim, condition=cond))
    blobs = [comp.compress(s) for s in _slabs(data, (5, 5, 5))]
    assert all(_has_literals(b) for b in blobs)
    _assert_batch_matches(monkeypatch, comp, blobs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_stack_puts_stream_escapes_back_in_place(monkeypatch, dtype):
    # spikes of ~1e5 error bounds under a radius of 2**20: their indices
    # leave the Huffman alphabet window and travel as index-stream escapes
    data = _field((12, 10, 9), 2, dtype)
    data[::4, 3, ::3] += 1e3
    comp = SZ3(1e-2, predictor="interp", radius=1 << 20, qp=QPConfig())
    blobs = [comp.compress(s) for s in _slabs(data, (4, 4, 4))]
    assert all(_escapes(b).size for b in blobs)
    _assert_batch_matches(monkeypatch, comp, blobs)


def test_mixed_slab_shapes_stack_per_shape(monkeypatch):
    # two slab shapes interleaved in one batch, as stream-large's 29-row
    # slabs and its 30-row last slab: each shape forms its own stack
    data = _field((22, 12, 10), 3)
    comp = SZ3(1e-2, predictor="interp", qp=QPConfig())
    blobs = [comp.compress(s) for s in _slabs(data, (4, 5, 4, 5, 4))]
    _assert_batch_matches(monkeypatch, comp, blobs, stacks=(3, 2))
    # a shape with one member decodes as a stack of one beside the stack
    _assert_batch_matches(monkeypatch, comp, blobs[:3], stacks=(2, 1))


def test_lorenzo_stack_matches_per_blob_decode(monkeypatch):
    data = _field((15, 12, 11), 4)
    comp = SZ3(1e-2, predictor="lorenzo", radius=8)
    blobs = [comp.compress(s) for s in _slabs(data, (5, 5, 5))]
    _assert_batch_matches(monkeypatch, comp, blobs, stacks=())


def test_mixed_predictor_batch_stacks_only_interpolation(monkeypatch):
    # interpolation, Lorenzo and regression blobs interleaved in one batch:
    # the interpolation slabs form one stack, the others decode beside it
    comps = [SZ3(1e-2, predictor=p) for p in ("interp", "lorenzo", "regression")]
    slabs = _slabs(_field((15, 12, 11), 5), (5, 5, 5))
    blobs = [c.compress(s) for s in slabs for c in comps]
    _assert_batch_matches(monkeypatch, comps[0], blobs, stacks=(3,))


def _with_indices(blob, indices):
    b = Blob.from_bytes(blob)
    b.sections["indices"] = indices
    return b.to_bytes()


def _one_symbol_too_many(blob):
    """The blob with a valid index stream one symbol longer."""
    stream = decode_index_stream(Blob.from_bytes(blob).sections["indices"])
    return _with_indices(blob, encode_index_stream(np.append(stream, 0)))


def _one_escape_too_many(blob):
    """The blob with an escape block holding one value more than the
    stream has escape codes."""
    data = Blob.from_bytes(blob).sections["indices"]
    (plen,) = struct.unpack_from("<Q", data, 9)
    extra = lossless_compress(encode_fixed(np.array([4], dtype=np.uint64)))
    return _with_indices(blob, data[:_HEAD + plen] + extra)


@pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
@pytest.mark.parametrize("tamper", [_one_symbol_too_many, _one_escape_too_many],
                         ids=["symbol-count", "escape-count"])
def test_corrupt_stack_member_is_typed(predictor, tamper):
    data = _field((15, 12, 11), 5)
    comp = SZ3(1e-2, predictor=predictor, qp=QPConfig())
    blobs = [comp.compress(s) for s in _slabs(data, (5, 5, 5))]
    bad = tamper(blobs[1])
    with pytest.raises(CorruptBlobError):
        comp.decompress(bad)
    with pytest.raises(CorruptBlobError):
        comp.decompress_many([blobs[0], bad, blobs[2]])


@pytest.mark.parametrize("key", ["levels", "axis_order", "radius"])
def test_stack_member_missing_an_engine_key_is_typed(key):
    # a stack decodes with its first member's header: a later member whose
    # header lost a key the decode reads must fail as it does alone, not
    # decode with the first member's value
    data = _field((15, 12, 11), 5)
    comp = SZ3(1e-2, predictor="interp", qp=QPConfig())
    blobs = [comp.compress(s) for s in _slabs(data, (5, 5, 5))]
    b = Blob.from_bytes(blobs[1])
    del b.header["engine"][key]
    bad = b.to_bytes()
    with pytest.raises(CorruptBlobError):
        comp.decompress(bad)
    with pytest.raises(CorruptBlobError):
        comp.decompress_many([blobs[0], bad, blobs[2]])


@pytest.mark.parametrize("tamper", [_one_symbol_too_many, _one_escape_too_many],
                         ids=["symbol-count", "escape-count"])
def test_corrupt_row_decode_writes_nothing_outside_its_row(tamper):
    data = _field((5, 12, 11), 6)
    comp = SZ3(1e-2, predictor="interp", qp=QPConfig())
    blob = comp.compress(data)
    good = Blob.from_bytes(blob).sections["indices"]
    length = decode_index_stream(good).size
    buf = np.full((3, length), 7, dtype=np.int64)
    row = buf[1]
    assert decode_index_stream(good, out=row) is row
    np.testing.assert_array_equal(row, decode_index_stream(good))
    row[...] = 7
    with pytest.raises(CorruptBlobError):
        decode_index_stream(Blob.from_bytes(tamper(blob)).sections["indices"],
                            out=row)
    assert (buf[0] == 7).all() and (buf[2] == 7).all()
    if tamper is _one_symbol_too_many:  # refused before decoding
        assert (buf[1] == 7).all()


def test_range_coded_stream_keeps_the_escape_code_as_an_index():
    # only the Huffman framing escapes; 65535 is a plain range-coded index
    values = np.array([65535, 0, -3, 65535], dtype=np.int64)
    data = encode_index_stream(values, entropy="range")
    np.testing.assert_array_equal(decode_index_stream(data), values)
    out = np.empty(4, dtype=np.int64)
    assert decode_index_stream(data, out=out) is out
    np.testing.assert_array_equal(out, values)
    with pytest.raises(CorruptBlobError):
        decode_index_stream(data, out=np.empty(5, dtype=np.int64))
