"""Tests for the blob container, v1 integrity envelope, and index streams."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.base import (
    Blob,
    decode_index_stream,
    encode_index_stream,
)
from repro.errors import (
    CorruptBlobError,
    IntegrityError,
    TruncatedStreamError,
    VersionError,
)
from repro.io import integrity


class TestBlob:
    def test_roundtrip(self):
        b = Blob({"a": 1, "b": [1, 2]}, {"x": b"abc", "y": b""})
        out = Blob.from_bytes(b.to_bytes())
        assert out.header["a"] == 1 and out.header["b"] == [1, 2]
        assert out.sections == {"x": b"abc", "y": b""}

    def test_section_order_preserved(self):
        b = Blob({}, {"z": b"1", "a": b"22", "m": b"333"})
        out = Blob.from_bytes(b.to_bytes())
        assert list(out.sections) == ["z", "a", "m"]

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            Blob.from_bytes(b"XXXX" + b"\x00" * 8)

    def test_trailing_bytes_rejected(self):
        raw = Blob({}, {"x": b"abc"}).to_bytes()
        with pytest.raises(ValueError):
            Blob.from_bytes(raw + b"!")

    def test_no_sections(self):
        out = Blob.from_bytes(Blob({"k": "v"}, {}).to_bytes())
        assert out.header["k"] == "v"
        assert out.sections == {}


class TestIntegrityEnvelope:
    def _raw(self):
        return Blob({"k": "v"}, {"x": b"abc", "y": b"\x00" * 40}).to_bytes()

    def test_seal_unseal_roundtrip(self):
        raw = self._raw()
        sealed = integrity.seal(raw)
        assert sealed != raw
        assert sealed[:4] == integrity.BLOB_MAGIC_V1
        assert integrity.unseal(sealed) == raw

    def test_seal_preserves_payload_bytes_exactly(self):
        # the envelope wraps the v0 bytes unmodified — this is what keeps
        # the golden digests valid for checksummed blobs
        raw = self._raw()
        assert integrity.seal(raw)[integrity.ENVELOPE_BYTES:] == raw

    def test_unseal_rejects_v0_bytes(self):
        # readers route v0 via Blob.from_bytes directly; unseal is strict
        with pytest.raises(IntegrityError):
            integrity.unseal(self._raw())

    def test_is_sealed(self):
        raw = self._raw()
        assert not integrity.is_sealed(raw)
        assert integrity.is_sealed(integrity.seal(raw))

    def test_unknown_version_rejected(self):
        sealed = bytearray(integrity.seal(self._raw()))
        sealed[4] = 0x7F
        with pytest.raises(VersionError):
            integrity.unseal(bytes(sealed))

    def test_crc_mismatch_rejected(self):
        sealed = bytearray(integrity.seal(self._raw()))
        sealed[-1] ^= 0x01  # flip a payload bit
        with pytest.raises(IntegrityError):
            integrity.unseal(bytes(sealed))

    def test_truncated_payload_rejected(self):
        sealed = integrity.seal(self._raw())
        with pytest.raises(TruncatedStreamError):
            integrity.unseal(sealed[:-3])

    def test_trailing_bytes_rejected(self):
        sealed = integrity.seal(self._raw())
        with pytest.raises(IntegrityError):
            integrity.unseal(sealed + b"!")

    def test_blob_to_bytes_checksum_flag(self):
        b = Blob({"k": 1}, {"x": b"abc"})
        plain = b.to_bytes()
        sealed = b.to_bytes(checksum=True)
        assert plain[:4] == b"RPRC"
        assert sealed[:4] == integrity.BLOB_MAGIC_V1
        assert integrity.unseal(sealed) == plain

    def test_blob_from_bytes_auto_unseals(self):
        b = Blob({"k": 1}, {"x": b"abc"})
        out = Blob.from_bytes(b.to_bytes(checksum=True))
        assert out.header["k"] == 1
        assert out.sections == {"x": b"abc"}

    def test_sealed_blob_corruption_is_typed(self):
        sealed = bytearray(Blob({"k": 1}, {"x": b"abc" * 30}).to_bytes(checksum=True))
        sealed[25] ^= 0x40
        with pytest.raises(CorruptBlobError):
            Blob.from_bytes(bytes(sealed))

    def test_envelope_info(self):
        raw = self._raw()
        info = integrity.envelope_info(integrity.seal(raw))
        assert info["format_version"] == integrity.BLOB_FORMAT_VERSION
        assert info["payload_len"] == len(raw)
        assert info["crc_ok"] is True
        assert integrity.envelope_info(raw) == {"format_version": 0, "checksum": None}


class TestIndexStream:
    def test_roundtrip_signed(self):
        v = np.array([-5, 0, 3, -1, 100, -32768], dtype=np.int64)
        assert np.array_equal(decode_index_stream(encode_index_stream(v)), v)

    def test_empty(self):
        out = decode_index_stream(encode_index_stream(np.empty(0, dtype=np.int64)))
        assert out.size == 0

    def test_compresses_low_entropy(self):
        v = np.zeros(100000, dtype=np.int64)
        v[::97] = 1
        blob = encode_index_stream(v)
        assert len(blob) < v.size // 8  # far below 1 bit/symbol on average

    @given(
        hnp.arrays(np.int64, st.integers(0, 3000),
                   elements=st.integers(-(2**40), 2**40))
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, v):
        assert np.array_equal(decode_index_stream(encode_index_stream(v)), v)
