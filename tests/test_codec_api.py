"""Tests for the unified compressor API surface (the ``Codec`` protocol).

Every registered compressor and every wrapper must expose the same minimal
surface — ``name``, ``compress(data, *, checksum=False) -> bytes``,
``decompress(blob) -> np.ndarray`` — so callers can hold any of them behind
one type.  ``tools/check_api.py`` is the CI lint enforcing this; these tests
run it in-process and pin the behaviours the protocol promises (checksum
sealing on every implementation, self-describing QoI containers, the mgard
partial-resolution entry point honouring the envelope).
"""
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.compressors import COMPRESSORS, Codec, get_compressor
from repro.core import QPConfig
from repro.errors import CorruptBlobError
from repro.io.integrity import is_sealed
from repro.modes import PointwiseRelativeCompressor
from repro.parallel import ParallelCompressor
from repro.qoi import QoIPreservingCompressor, SquareQoI
from repro.temporal import TemporalCompressor

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def check_api():
    sys.path.insert(0, str(TOOLS))
    try:
        import check_api
    finally:
        sys.path.remove(str(TOOLS))
    return check_api


@pytest.fixture(scope="module")
def field():
    n = 24
    x, y, z = np.meshgrid(*[np.linspace(0, 1, n)] * 3, indexing="ij")
    return (np.sin(3 * x) * np.cos(2 * y) + z).astype(np.float32)


# -- the lint -----------------------------------------------------------------


def test_every_compressor_satisfies_codec(check_api):
    results = check_api.check_all()
    bad = {name: probs for name, probs in results.items() if probs}
    assert not bad, f"Codec violations: {bad}"
    # the lint actually covered the registry, all four wrappers, and every
    # registered pipeline's stage-chain contract
    assert set(COMPRESSORS) <= set(results)
    assert {"parallel[sz3]", "temporal", "pw_rel", "qoi[sz3]"} <= set(results)
    assert {f"pipeline[{name}]" for name in COMPRESSORS} <= set(results)


def test_lint_catches_nonconforming_shapes(check_api):
    class NoChecksum:
        name = "bad"

        def compress(self, data):  # missing the checksum keyword
            return b""

        def decompress(self, blob):
            return np.zeros(1)

    problems = check_api.check_codec(NoChecksum())
    assert any("checksum" in p for p in problems)

    class Positional:
        name = "bad2"

        def compress(self, data, checksum=False):  # not keyword-only
            return b""

        def decompress(self, blob):
            return np.zeros(1)

    problems = check_api.check_codec(Positional())
    assert any("keyword-only" in p for p in problems)

    class Missing:
        name = "bad3"

    assert check_api.check_codec(Missing())  # fails isinstance outright


def test_runtime_isinstance_check(field):
    comp = get_compressor("sz3", 1e-2)
    assert isinstance(comp, Codec)
    assert isinstance(ParallelCompressor("sz3", 1e-2), Codec)
    assert not isinstance(object(), Codec)


# -- checksum sealing across the surface -------------------------------------


@pytest.mark.parametrize("name", ("sz3", "mgard", "zfp"))
def test_registered_compressor_checksum_roundtrip(name, field):
    comp = get_compressor(name, 1e-2)
    plain = comp.compress(field)
    sealed = comp.compress(field, checksum=True)
    assert not is_sealed(plain) and is_sealed(sealed)
    for blob in (plain, sealed):
        out = comp.decompress(blob)
        assert out.shape == field.shape
        assert np.abs(out.astype(np.float64) - field).max() <= 1e-2 * (1 + 1e-9)


def test_wrapper_checksum_roundtrip(field):
    wrappers = [
        ParallelCompressor("sz3", 1e-2, workers=2, n_slabs=2),
        TemporalCompressor("sz3", 1e-2, keyframe_interval=4),
        PointwiseRelativeCompressor("sz3", 1e-2),
    ]
    positive = field - field.min() + 1.0  # PW_REL needs strictly positive data
    for comp in wrappers:
        data = positive if isinstance(comp, PointwiseRelativeCompressor) else field
        sealed = comp.compress(data, checksum=True)
        assert is_sealed(sealed)
        out = comp.decompress(sealed)
        assert out.shape == data.shape
        # unsealed container still decodes identically
        assert np.array_equal(comp.decompress(comp.compress(data)), out)


def test_compress_rejects_positional_extras(field):
    comp = get_compressor("sz3", 1e-2)
    with pytest.raises(TypeError):
        comp.compress(field, True)  # checksum must be passed by keyword


# -- QoI: self-describing v2 container + retired legacy format ----------------


@pytest.fixture(scope="module")
def qoi_comp():
    return QoIPreservingCompressor("sz3", SquareQoI(), tau=1e-2, block_side=16)


def test_qoi_v2_roundtrip_without_shape(qoi_comp, field):
    blob = qoi_comp.compress(field)
    assert blob[:4] == b"RQO2"
    out = qoi_comp.decompress(blob)  # no shape argument needed
    assert out.shape == field.shape and out.dtype == field.dtype
    assert SquareQoI().error(field, out) <= 1e-2 * (1 + 1e-9)


def test_qoi_v2_checksum_seals_whole_container(qoi_comp, field):
    sealed = qoi_comp.compress(field, checksum=True)
    assert is_sealed(sealed)
    out = qoi_comp.decompress(sealed)
    assert out.shape == field.shape


def test_qoi_decompress_shape_argument_retired(qoi_comp, field):
    """The deprecated ``shape=`` knob is gone: the v2 header carries it."""
    blob = qoi_comp.compress(field)
    with pytest.raises(TypeError):
        qoi_comp.decompress(blob, shape=field.shape)
    assert qoi_comp.decompress(blob).shape == field.shape


def _as_legacy_rqoi(v2_blob: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<I", v2_blob, 4)
    import json

    header = json.loads(v2_blob[8:8 + hlen].decode())
    body = v2_blob[8 + hlen:]
    return b"RQOI" + struct.pack("<I", header["n_blocks"]) + body


def test_qoi_legacy_container_typed_rejection(qoi_comp, field):
    """The shape-less RQOI format is retired: typed error, migration hint."""
    from repro.errors import CorruptBlobError

    legacy = _as_legacy_rqoi(qoi_comp.compress(field))
    with pytest.raises(CorruptBlobError, match="RQOI.*retired.*re-compress"):
        qoi_comp.decompress(legacy)


def test_qoi_decompress_shape_is_keyword_only(qoi_comp, field):
    blob = qoi_comp.compress(field)
    with pytest.raises(TypeError):
        qoi_comp.decompress(blob, field.shape)  # positional shape retired


# -- mgard partial resolution honours the envelope ----------------------------


def test_mgard_decompress_resolution_unwraps_checksum_envelope(field):
    comp = get_compressor("mgard", 1e-2, qp=QPConfig.disabled())
    sealed = comp.compress(field, checksum=True)
    full = comp.decompress_resolution(sealed, level=0)
    assert np.array_equal(full, comp.decompress(sealed))
    coarse = comp.decompress_resolution(sealed, level=1)
    expect = comp.decompress(sealed)[::2, ::2, ::2]
    assert coarse.shape == expect.shape
    assert np.array_equal(coarse, expect)


def test_mgard_decompress_resolution_rejects_corrupt_sealed_blob(field):
    comp = get_compressor("mgard", 1e-2)
    sealed = bytearray(comp.compress(field, checksum=True))
    sealed[len(sealed) // 2] ^= 0xFF
    with pytest.raises(CorruptBlobError):
        comp.decompress_resolution(bytes(sealed), level=1)


# -- registry decode knobs ----------------------------------------------------


def test_decompress_any_rejects_unknown_knob(field):
    from repro.compressors import decompress_any

    blob = get_compressor("sz3", 1e-2).compress(field)
    with pytest.raises(TypeError):
        decompress_any(blob, workers=3)  # not one of the documented knobs
    out = decompress_any(blob, lossless_backend=None, predictor=None)
    assert out.shape == field.shape


def test_decompress_any_validates_header():
    from repro.compressors import decompress_any

    with pytest.raises(CorruptBlobError):
        decompress_any(b"RPRX" + b"\x00" * 64)
