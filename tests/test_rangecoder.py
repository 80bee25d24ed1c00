"""Tests for the adaptive range coder (SZ3's alternative entropy stage).

The range coder is the one entropy option beside the default Huffman stage:
selection is per compressor (the ``entropy`` attribute / SZ3 constructor
parameter) and decode dispatches on the index stream's leading wire byte.
The byte of the retired rANS stage fails typed, with a migration hint.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.codecs.rangecoder import RangeCodec
from repro.compressors import COMPRESSORS, decompress_any, get_compressor
from repro.compressors.base import Blob
from repro.compressors.sz3 import SZ3
from repro.core import shannon_entropy
from repro.errors import CorruptBlobError
from repro.pipeline.driver import spec_for_blob


@pytest.fixture
def codec():
    return RangeCodec()


def test_empty(codec):
    assert codec.decode(codec.encode(np.empty(0, dtype=np.int64))).size == 0


def test_zeros(codec):
    v = np.zeros(5000, dtype=np.int64)
    blob = codec.encode(v)
    assert np.array_equal(codec.decode(blob), v)
    # adaptive model drives all-zero streams far below 1 bit/symbol —
    # something Huffman cannot do
    assert len(blob) * 8 < v.size / 4


def test_signed_values(codec):
    v = np.array([0, -1, 1, -100, 100, 2**40, -(2**40)])
    assert np.array_equal(codec.decode(codec.encode(v)), v)


def test_near_entropy_on_skewed(codec):
    rng = np.random.default_rng(0)
    sym = np.rint(rng.normal(0, 1.5, 30000)).astype(np.int64)
    blob = codec.encode(sym)
    bits_per_sym = len(blob) * 8 / sym.size
    entropy = shannon_entropy(sym - sym.min())
    assert bits_per_sym < entropy * 1.1 + 0.1


def test_beats_huffman_on_very_skewed(codec):
    """The no-1-bit-floor advantage: ~95% zeros."""
    rng = np.random.default_rng(1)
    sym = (rng.random(40000) < 0.05).astype(np.int64) * rng.integers(1, 4, 40000)
    from repro.codecs import HuffmanCodec

    rc = len(codec.encode(sym))
    hc = len(HuffmanCodec().encode(sym))
    assert rc < hc


def test_bad_magic(codec):
    with pytest.raises(ValueError):
        codec.decode(b"XXXX" + b"\x00" * 12)


def test_retired_rng1_magic_rejected(codec):
    # RNG1 was the CRC-less revision; only RNG2 has been written since
    blob = codec.encode(np.arange(100, dtype=np.int64))
    with pytest.raises(CorruptBlobError, match="RNG2"):
        codec.decode(b"RNG1" + blob[4:])


@given(
    hnp.arrays(np.int64, st.integers(0, 1500),
               elements=st.integers(-(2**45), 2**45))
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(v):
    codec = RangeCodec()
    assert np.array_equal(codec.decode(codec.encode(v)), v)


# -- compressor integration ---------------------------------------------------


@pytest.fixture(scope="module")
def field3d():
    return repro.generate("miranda", shape=(18, 16, 14), seed=5)


def _eb(field):
    return 1e-3 * float(field.max() - field.min())


@pytest.mark.parametrize("name", sorted(COMPRESSORS))
def test_all_compressors_roundtrip_with_range(name, field3d):
    eb = _eb(field3d)
    ref = decompress_any(get_compressor(name, eb).compress(field3d))
    comp = get_compressor(name, eb)
    comp.entropy = "range"
    # decode dispatch is wire-id driven: decompress_any needs no hints
    out = decompress_any(comp.compress(field3d))
    np.testing.assert_array_equal(out, ref)
    assert np.abs(out - field3d).max() <= eb * (1 + 1e-6)


def test_sz3_entropy_constructor_param(field3d):
    eb = _eb(field3d)
    out = decompress_any(SZ3(eb, entropy="range").compress(field3d))
    assert np.abs(out - field3d).max() <= eb * (1 + 1e-6)


@pytest.mark.parametrize("entropy", ["ans", "no-such-coder"])
def test_sz3_unknown_entropy_rejected(entropy):
    with pytest.raises(ValueError):
        SZ3(1e-3, entropy=entropy)


def test_default_entropy_keeps_bytes_frozen(field3d):
    # the attribute's default must be byte-invisible: same blob as before
    eb = _eb(field3d)
    assert SZ3(eb).compress(field3d) == SZ3(eb, entropy="huffman").compress(field3d)


# -- pipeline spec ------------------------------------------------------------


def test_entropy_stage_registry():
    from repro.pipeline.stages import ENTROPY_STAGES, RangeEncode

    assert set(ENTROPY_STAGES) == {"huffman", "range"}
    assert ENTROPY_STAGES["range"] is RangeEncode
    wire_ids = [cls.wire_id for cls in ENTROPY_STAGES.values()]
    assert len(set(wire_ids)) == len(wire_ids)


def test_sz3_range_spec_header_roundtrip():
    from repro.errors import VersionError
    from repro.pipeline import PipelineSpec, pipeline_spec
    from repro.pipeline.spec import SPEC_HEADER_VERSION

    spec = pipeline_spec("sz3", entropy="range")
    assert spec.has_stage("range") and not spec.has_stage("huffman")
    encoded = spec.to_header()
    assert PipelineSpec.from_header(encoded) == spec
    with pytest.raises(VersionError):
        PipelineSpec.from_header(dict(encoded, version=SPEC_HEADER_VERSION + 1))


def test_spec_derived_from_range_blob(field3d):
    blob = Blob.from_bytes(SZ3(_eb(field3d), entropy="range").compress(field3d))
    assert spec_for_blob(blob.header, blob.sections).has_stage("range")


# -- retired rANS wire id -----------------------------------------------------


def _with_wire_id(blob: Blob, wire_id: int) -> Blob:
    """``blob`` with every index stream's leading wire byte replaced."""
    sections = {
        key: bytes([wire_id]) + data[1:]
        if key in ("indices", "coeffs", "core") or key.startswith("indices:")
        else data
        for key, data in blob.sections.items()
    }
    return Blob(blob.header, sections)


@pytest.mark.parametrize("checksum", [False, True], ids=["plain", "sealed"])
@pytest.mark.parametrize("name", ["sz3", "qoz", "hpez", "mgard", "zfp"])
def test_retired_rans_wire_id_is_typed(name, checksum, field3d):
    """Blobs written with ``entropy="ans"`` lead their index streams with
    wire byte 2; decode names the retired coder and how to migrate."""
    good = Blob.from_bytes(get_compressor(name, _eb(field3d)).compress(field3d))
    rans = _with_wire_id(good, 2)
    raw = rans.to_bytes(checksum=checksum)
    for decode in (repro.decompress, decompress_any):
        with pytest.raises(CorruptBlobError, match="retired rANS.*re-compress"):
            decode(raw)
    with pytest.raises(CorruptBlobError, match="retired rANS"):
        spec_for_blob(rans.header, rans.sections)


# -- fault injection ----------------------------------------------------------


@pytest.mark.faults
def test_range_blob_corruption_through_compressor(field3d):
    from repro.testing import run_corruption_matrix

    blob = SZ3(_eb(field3d), entropy="range").compress(field3d)
    results = run_corruption_matrix(
        blob, decompress_any, seeds=range(4), deadline_s=10.0
    )
    untyped = [r for r in results if r.outcome == "untyped"]
    assert not untyped, [f"{r.injector}/seed={r.seed}: {r.detail}" for r in untyped]
