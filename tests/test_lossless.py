"""Unit + property tests for the lossless byte stage.

The decoder reads two framings, raw (id 0) and zlib (id 1), whichever the
encoder picked; the ``wire`` parameter builds each by hand so both are
decoded for every payload.  Ids 2 (RLE) and 3 (LZ77) belonged to retired
coders and fail typed, with a migration hint.
"""
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.codecs
from repro.codecs.lossless import compress, decompress
from repro.compressors import decompress_any, get_compressor
from repro.compressors.base import Blob
from repro.errors import CorruptBlobError

WIRES = {"raw": 0, "zlib": 1}


def _frame(data: bytes, wire: str) -> bytes:
    """``data`` stored under ``wire``, whatever the encoder would choose."""
    payload = zlib.compress(data, 6) if wire == "zlib" else data
    return struct.pack("<BQ", WIRES[wire], len(data)) + payload


@pytest.mark.parametrize("wire", WIRES)
def test_empty(wire):
    assert decompress(_frame(b"", wire)) == b""
    assert decompress(compress(b"")) == b""


@pytest.mark.parametrize("wire", WIRES)
def test_short(wire):
    for data in (b"a", b"ab", b"abc", b"\x00\x01"):
        assert decompress(_frame(data, wire)) == data
        assert decompress(compress(data)) == data


@pytest.mark.parametrize("wire", WIRES)
def test_runs(wire):
    data = b"\x00" * 1000 + b"abc" + b"\xff" * 300
    assert decompress(_frame(data, wire)) == data
    blob = compress(data)
    assert blob[0] == WIRES["zlib"] and len(blob) < len(data)
    assert decompress(blob) == data


@pytest.mark.parametrize("wire", WIRES)
def test_repetitive_structure(wire):
    data = b"the quick brown fox " * 200
    assert decompress(_frame(data, wire)) == data
    blob = compress(data)
    assert len(blob) < len(data) // 2
    assert decompress(blob) == data


@pytest.mark.parametrize("wire", WIRES)
def test_incompressible_falls_back_to_raw(wire):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
    assert decompress(_frame(data, wire)) == data
    blob = compress(data)
    # raw fallback caps expansion at the 9-byte frame header
    assert blob == _frame(data, "raw")
    assert decompress(blob) == data


def test_unknown_backend_rejected():
    # the stage takes no coder name: zlib, or raw when that is smaller
    for name in ("snappy", "zlib"):
        with pytest.raises(TypeError):
            compress(b"x", name)
    with pytest.raises(TypeError):
        repro.codecs.compress(b"x", "zlib")


def test_corrupt_backend_id_rejected():
    blob = bytearray(compress(b"hello world"))
    blob[0] = 99
    with pytest.raises(CorruptBlobError, match="unknown lossless coder id 99"):
        decompress(bytes(blob))


def test_size_mismatch_detected():
    payload = compress(b"hello")
    # tamper with the recorded original size
    bad = payload[:1] + struct.pack("<Q", 99) + payload[9:]
    with pytest.raises(ValueError):
        decompress(bad)


@given(st.binary(max_size=3000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_all_backends(data):
    assert decompress(compress(data)) == data
    for wire in WIRES:
        assert decompress(_frame(data, wire)) == data


# -- bounded inflate ----------------------------------------------------------


def test_unended_zlib_stream_is_typed():
    data = b"hello" * 10
    frame = _frame(data, "zlib")
    # the full output inflates, but the stream's end (adler32) is cut off
    with pytest.raises(CorruptBlobError, match="does not end"):
        decompress(frame[:-3])


def test_bytes_after_the_zlib_stream_are_typed():
    # a garbage tail after the stream's end must not decode: with it two
    # different sections would decode to the same bytes
    frame = _frame(b"hello" * 10, "zlib")
    assert decompress(frame) == b"hello" * 10
    for tail in (b"\x00", b"garbage", frame[9:]):
        with pytest.raises(CorruptBlobError, match="after the stream end"):
            decompress(frame + tail)


def test_huge_declared_size_is_typed():
    frame = struct.pack("<BQ", 1, 2**64 - 1) + zlib.compress(b"x")
    with pytest.raises(CorruptBlobError, match="declares"):
        decompress(frame)


def _bomb(declared: int, inflated_mb: int) -> bytes:
    """A zlib section declaring ``declared`` bytes that inflates to
    ``inflated_mb`` MiB of zeros (built a MiB at a time)."""
    co = zlib.compressobj(6)
    chunk = bytes(1 << 20)
    body = b"".join(co.compress(chunk) for _ in range(inflated_mb)) + co.flush()
    return struct.pack("<BQ", 1, declared) + body


def test_inflate_is_bounded_by_declared_size():
    """A literals section that declares 16 bytes but inflates to 64 MiB is
    rejected after inflating at most 17 bytes of it."""
    data = repro.generate("miranda", shape=(18, 16, 14), seed=5)
    eb = 1e-3 * float(data.max() - data.min())
    comp = get_compressor("sz3", eb, predictor="interp")
    good = Blob.from_bytes(comp.compress(data))
    sections = dict(good.sections, literals=_bomb(16, 64))
    raw = Blob(good.header, sections).to_bytes()
    tracemalloc.start()
    try:
        with pytest.raises(CorruptBlobError, match="size mismatch"):
            repro.decompress(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"decode peaked at {peak / 2**20:.1f} MiB"


# -- retired coder ids --------------------------------------------------------


@pytest.mark.parametrize("wire_id,coder", [(2, "RLE"), (3, "LZ77")])
def test_retired_coder_id_is_typed(wire_id, coder):
    blob = bytes([wire_id]) + compress(b"hello world")[1:]
    with pytest.raises(CorruptBlobError, match=f"retired {coder}.*re-compress"):
        decompress(blob)


#: the index stream's lossless container starts after its <BqQ> header
_INDEX_LOSSLESS_AT = struct.calcsize("<BqQ")


@pytest.mark.parametrize("checksum", [False, True], ids=["plain", "sealed"])
@pytest.mark.parametrize("wire_id,coder", [(2, "RLE"), (3, "LZ77")])
@pytest.mark.parametrize("name", ["sz3", "qoz", "hpez", "mgard", "zfp"])
def test_retired_coder_id_in_blob_is_typed(name, wire_id, coder, checksum):
    """A blob whose index stream was stored by a retired coder fails typed
    through every decode entry point, sealed or not."""
    data = repro.generate("miranda", shape=(18, 16, 14), seed=5)
    eb = 1e-3 * float(data.max() - data.min())
    good = Blob.from_bytes(get_compressor(name, eb).compress(data))
    key = "coeffs" if name == "zfp" else "indices"
    stream = bytearray(good.sections[key])
    plen = struct.unpack_from("<BqQ", stream)[2]
    assert stream[_INDEX_LOSSLESS_AT] in WIRES.values()
    stream[_INDEX_LOSSLESS_AT] = wire_id
    raw = Blob(good.header, dict(good.sections, **{key: bytes(stream)})).to_bytes(
        checksum=checksum
    )
    hint = f"retired {coder} coder \\(id {wire_id}\\).*re-compress"
    with pytest.raises(CorruptBlobError, match=hint):
        decompress(bytes(stream[_INDEX_LOSSLESS_AT:_INDEX_LOSSLESS_AT + plen]))
    for decode in (repro.decompress, decompress_any):
        with pytest.raises(CorruptBlobError, match=hint):
            decode(raw)
