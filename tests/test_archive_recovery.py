"""Archive v1: integrity-checked entries, journaled appends, torn-write
recovery, and the typed error for the retired v0 format.

``Archive.append`` rewrites the tail (index + footer) in place, so a crash
mid-append used to leave an unreadable file.  These tests drive the
``_crash_point`` fault hooks through every window of the append and assert
the journal either rolls the file back to its pre-append state or confirms
the completed append — never leaves it corrupt.
"""
import json
import struct
import zlib

import numpy as np
import pytest

from repro.errors import CorruptArchiveError, IntegrityError
from repro.io import Archive
from repro.io.container import _FOOT_V0, _MAGIC, _SimulatedCrash

pytestmark = pytest.mark.faults


def _crc(b):
    return zlib.crc32(b) & 0xFFFFFFFF


@pytest.fixture()
def arch(tmp_path):
    a = Archive.create(tmp_path / "t.rarc")
    a.append("base", b"A" * 64)
    return a


class TestV1Format:
    def test_version_and_checksums(self, arch):
        assert arch.version == 1
        assert arch.checksums() == {"base": _crc(b"A" * 64)}

    def test_read_verifies_crc(self, arch):
        raw = bytearray(arch.path.read_bytes())
        off = 4  # first payload byte ('base' is the only entry)
        raw[off + 10] ^= 0x01  # flip a payload bit
        arch.path.write_bytes(bytes(raw))
        # the index CRC still matches (payload bytes aren't covered by it),
        # but the per-entry CRC catches the flip
        with pytest.raises(IntegrityError):
            arch.read("base")
        assert arch.read("base", verify=False) == bytes(raw[off:off + 64])
        assert arch.verify_all() == {"base": False}

    def test_footer_tamper_detected(self, arch):
        raw = bytearray(arch.path.read_bytes())
        raw[-10] ^= 0x01  # inside the index CRC / offset fields
        arch.path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArchiveError):
            arch.names()

    def test_duplicate_append_rejected(self, arch):
        with pytest.raises(KeyError):
            arch.append("base", b"again")

    def test_append_many_and_total_roundtrip(self, arch):
        blobs = {f"s{i}": bytes([i]) * (10 + i) for i in range(5)}
        arch.append_many(blobs)
        assert set(arch.names()) == {"base", *blobs}
        for name, blob in blobs.items():
            assert arch.read(name) == blob
        assert arch.verify_all() == {n: True for n in arch.names()}


class TestTornWriteRecovery:
    @pytest.mark.parametrize(
        "crash_point", ["after_journal", "after_payload", "after_index"]
    )
    def test_crash_rolls_back_or_completes(self, arch, crash_point):
        before = arch.path.read_bytes()
        with pytest.raises(_SimulatedCrash):
            arch.append("new", b"B" * 128, _crash_point=crash_point)
        assert arch.journal_path.exists()
        status = arch.recover()
        assert status in ("clean", "restored")
        assert not arch.journal_path.exists()
        # the archive is readable and 'base' survived intact either way
        assert arch.read("base") == b"A" * 64
        if status == "restored":
            assert arch.path.read_bytes() == before
            assert arch.names() == ["base"]
        # and the interrupted append can simply be replayed
        if "new" not in arch.names():
            arch.append("new", b"B" * 128)
        assert arch.read("new") == b"B" * 128

    def test_read_auto_recovers(self, arch):
        with pytest.raises(_SimulatedCrash):
            arch.append("new", b"B" * 500, _crash_point="after_payload")
        # no explicit recover(): the next read resolves the journal itself
        assert arch.names() == ["base"]
        assert arch.read("base") == b"A" * 64
        assert not arch.journal_path.exists()

    def test_recover_clean_when_append_completed(self, arch):
        # journal left behind *after* the footer was published (crash in the
        # unlink window): recover must keep the completed append
        arch.append("new", b"B" * 32)
        arch._write_journal(arch._index_offset())
        assert arch.recover() == "clean"
        assert set(arch.names()) == {"base", "new"}

    def test_torn_journal_discarded(self, arch):
        arch.journal_path.write_bytes(b"RJNL" + b"\x01" * 10)  # torn mid-write
        assert arch.recover() == "discarded"
        assert arch.read("base") == b"A" * 64

    def test_recover_without_journal_is_clean(self, arch):
        assert arch.recover() == "clean"


def test_retired_v0_archive_raises_typed_error(tmp_path):
    # v0: flat {name: [offset, size]} index and a 12-byte CRAR footer
    path = tmp_path / "legacy.rarc"
    blob = b"xx" * 10
    index = json.dumps({"a": [4, len(blob)]}).encode()
    path.write_bytes(_MAGIC + blob + index + struct.pack("<Q", 4 + len(blob)) + _FOOT_V0)
    arch = Archive(path)
    for probe in (arch.names, lambda: arch.read("a"), lambda: arch.version,
                  lambda: arch.append("b", b"new")):
        with pytest.raises(CorruptArchiveError, match="retired v0 archive format"):
            probe()
    assert path.read_bytes().endswith(_FOOT_V0)  # the failed append wrote nothing


def test_entry_bounds_validated(tmp_path):
    arch = Archive.create(tmp_path / "t.rarc")
    arch.append("a", b"Z" * 16)
    # forge an index entry that points outside the payload region
    raw = bytearray(arch.path.read_bytes())
    idx_off = struct.unpack("<Q", raw[-16:-8])[0]
    index = json.loads(raw[idx_off:-16].decode())
    index["entries"]["evil"] = [4, 10**6, 0]
    new_idx = json.dumps(index, separators=(",", ":")).encode()
    body = raw[:idx_off] + new_idx + struct.pack("<QI", idx_off, _crc(new_idx)) + b"RAR1"
    arch.path.write_bytes(bytes(body))
    with pytest.raises(CorruptArchiveError):
        arch.read("evil")
