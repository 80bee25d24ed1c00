"""Multi-field compressed archive with integrity-checked, crash-safe appends.

One file holding many named compressed blobs (e.g. all 13 Hurricane fields,
or 3600 RTM slices) with an index, supporting appends and selective reads —
the on-disk format the parallel transfer pipeline writes.

Layout (v1)::

    RARC | blob payloads... | index JSON | u64 idx_off | u32 idx_crc | RAR1

The v1 index is ``{"v": 1, "entries": {name: [offset, size, crc32]}}`` —
every entry carries a CRC32 verified on read, and the index itself is
covered by the footer CRC.  The retired v0 layout (flat ``{name: [offset,
size]}`` index, 12-byte ``CRAR`` footer, no checksums) raises
:class:`~repro.errors.CorruptArchiveError` naming it: read such a file with
an earlier release and append its entries to a new archive.

Appending rewrites only the tail (index + footer).  Because the new payload
overwrites the *old* index, a crash mid-append used to leave an unreadable
file; appends are now journaled: the old tail (index + footer) is snapshotted
to a fsynced ``<archive>.journal`` sidecar before any byte of the archive is
touched, the new index is written and fsynced *before* the footer is
published, and the journal is removed only after the footer hits the disk.
:meth:`Archive.recover` (run automatically when a journal is present) either
confirms the completed append or rolls the file back to its pre-append state.

Streamed slab container (v1)
----------------------------
:class:`ContainerWriter` / :class:`ContainerReader` implement the
incremental variant used by ``compress_stream``: per-slab blob segments are
flushed to an append-only file-like sink as they finish, and a trailing
index records per-slab byte offsets so a reader can decode any slab (or
byte range of slabs) without touching the rest — the seam ROADMAP item 2's
range-request decode plugs into.  Layout::

    RSTR | u8 ver=1 | u8 axis | u16 reserved | segments... |
        index JSON | u64 idx_off | u32 idx_crc | RST1

The index is ``{"v": 1, "axis": a, "segments": [[offset, size, crc32],
...], "meta": {...}}``; segment offsets are absolute, strictly increasing
and contiguous (validated on open), and ``meta`` carries the volume
geometry (``compressor``/``dtype``/``shape``/``error_bound``) so decode can
preallocate the output.  This framing is additive: in-memory blobs
(``RPRC``/``RPR1``) and the slab-parallel container (``RPAR``) are
untouched, so all golden digests stay frozen.
"""
from __future__ import annotations

import io
import json
import os
import pathlib
import struct
import zlib
from typing import Any, BinaryIO, Iterator

from ..errors import (
    CorruptArchiveError,
    CorruptBlobError,
    IntegrityError,
    TruncatedStreamError,
    VersionError,
)

__all__ = ["Archive", "ContainerWriter", "ContainerReader", "is_streamed_container",
           "pack_parts", "unpack_parts"]

_MAGIC = b"RARC"
_FOOT_V0 = b"CRAR"
_FOOT_V1 = b"RAR1"
_JOURNAL_MAGIC = b"RJNL"

_STREAM_MAGIC = b"RSTR"
_STREAM_FOOT = b"RST1"
#: streamed slab-container format revision written by this module
STREAM_FORMAT_VERSION = 1
_STREAM_HEADER_LEN = 8
_STREAM_FOOTER_LEN = 16

#: on-disk archive format revision written by this module
ARCHIVE_FORMAT_VERSION = 1


def _crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class Archive:
    """Append/read interface over the archive file format."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    @property
    def journal_path(self) -> pathlib.Path:
        return self.path.with_name(self.path.name + ".journal")

    # -- writing ------------------------------------------------------------

    @classmethod
    def create(cls, path: str | pathlib.Path) -> "Archive":
        arch = cls(path)
        with open(arch.path, "wb") as f:
            f.write(_MAGIC)
        arch._write_tail({}, payload_end=4)
        return arch

    def append(self, name: str, blob: bytes, _crash_point: str | None = None) -> None:
        """Append one named blob (journaled; see :meth:`append_many`).

        ``_crash_point`` is a fault-injection hook for the torn-write tests:
        ``"after_journal"`` / ``"after_payload"`` / ``"after_index"`` abort
        the append at that stage, simulating a crash before the footer is
        published.
        """
        self.append_many({name: blob}, _crash_point=_crash_point)

    def append_many(
        self, blobs: dict[str, bytes], _crash_point: str | None = None
    ) -> None:
        index = self._read_index()
        for name in blobs:
            if name in index:
                raise KeyError(f"entry {name!r} already exists")
        idx_off = self._index_offset()
        self._write_journal(idx_off)
        if _crash_point == "after_journal":
            raise _SimulatedCrash("after_journal")
        with open(self.path, "r+b") as f:
            f.seek(idx_off)
            pos = idx_off
            for name, blob in blobs.items():
                f.write(blob)
                index[name] = [pos, len(blob), _crc32(blob)]
                pos += len(blob)
            f.flush()
            os.fsync(f.fileno())
        if _crash_point == "after_payload":
            raise _SimulatedCrash("after_payload")
        self._write_tail(index, payload_end=pos, _crash_point=_crash_point)
        self.journal_path.unlink(missing_ok=True)

    # -- reading --------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._read_index())

    def read(self, name: str, verify: bool = True) -> bytes:
        """Read one entry, verifying its CRC32 unless ``verify=False``."""
        index = self._read_index()
        if name not in index:
            raise KeyError(f"no entry {name!r}; have {list(index)}")
        entry = index[name]
        off, size = entry[0], entry[1]
        idx_off = self._index_offset()
        if off < 4 or size < 0 or off + size > idx_off:
            raise CorruptArchiveError(
                f"entry {name!r} spans [{off}, {off + size}) outside the "
                f"payload region [4, {idx_off})"
            )
        with open(self.path, "rb") as f:
            f.seek(off)
            blob = f.read(size)
        if len(blob) != size:
            raise TruncatedStreamError(
                f"entry {name!r} declares {size} bytes, read {len(blob)}"
            )
        if verify and _crc32(blob) != entry[2]:
            raise IntegrityError(f"entry {name!r} failed its CRC32 check")
        return blob

    def sizes(self) -> dict[str, int]:
        return {k: v[1] for k, v in self._read_index().items()}

    def checksums(self) -> dict[str, int]:
        """Per-entry CRC32."""
        return {k: v[2] for k, v in self._read_index().items()}

    def verify_all(self) -> dict[str, bool]:
        """Re-read every entry and check its CRC."""
        results = {}
        for name in self.names():
            try:
                self.read(name, verify=True)
                results[name] = True
            except (IntegrityError, TruncatedStreamError, CorruptArchiveError):
                results[name] = False
        return results

    def total_bytes(self) -> int:
        return self.path.stat().st_size

    @property
    def version(self) -> int:
        """On-disk format revision: 1 (a retired v0 archive raises)."""
        self._load_tail(recover=False)
        return ARCHIVE_FORMAT_VERSION

    # -- crash recovery ---------------------------------------------------------

    def recover(self) -> str:
        """Resolve an interrupted append using the journal sidecar.

        Returns ``"clean"`` when no journal exists or the journaled append
        actually completed (footer published; the stale journal is removed),
        ``"restored"`` when the archive tail was rolled back to its
        pre-append state, and ``"discarded"`` when the journal itself was
        torn (the archive was never touched).
        """
        jpath = self.journal_path
        if not jpath.exists():
            return "clean"
        raw = jpath.read_bytes()
        tail = self._parse_journal(raw)
        if tail is None:
            # journal write itself was interrupted -> archive untouched
            jpath.unlink(missing_ok=True)
            return "discarded"
        idx_off, tail_bytes = tail
        if self._footer_valid():
            # the append published its footer before the crash: it completed
            jpath.unlink(missing_ok=True)
            return "clean"
        with open(self.path, "r+b") as f:
            f.seek(idx_off)
            f.write(tail_bytes)
            f.truncate(idx_off + len(tail_bytes))
            f.flush()
            os.fsync(f.fileno())
        jpath.unlink(missing_ok=True)
        return "restored"

    def _footer_valid(self) -> bool:
        try:
            self._load_tail(recover=False)
            return True
        except (CorruptArchiveError, OSError):
            return False

    def _write_journal(self, idx_off: int) -> None:
        """Snapshot the current tail (index + footer) before mutating it."""
        with open(self.path, "rb") as f:
            f.seek(idx_off)
            tail = f.read()
        raw = (
            _JOURNAL_MAGIC
            + struct.pack("<QQI", idx_off, len(tail), _crc32(tail))
            + tail
        )
        with open(self.journal_path, "wb") as f:
            f.write(raw)
            f.flush()
            os.fsync(f.fileno())

    @staticmethod
    def _parse_journal(raw: bytes) -> tuple[int, bytes] | None:
        if len(raw) < 24 or raw[:4] != _JOURNAL_MAGIC:
            return None
        idx_off, tail_len, crc = struct.unpack_from("<QQI", raw, 4)
        tail = raw[24:]
        if len(tail) != tail_len or _crc32(tail) != crc:
            return None
        return idx_off, tail

    # -- internals -------------------------------------------------------------

    def _load_tail(self, recover: bool = True) -> tuple[int, dict]:
        """Return (index offset, index dict), recovering from a journal if
        one is present and the footer did not survive."""
        if recover and self.journal_path.exists():
            self.recover()
        try:
            size = self.path.stat().st_size
            with open(self.path, "rb") as f:
                head = f.read(4)
                if head != _MAGIC:
                    raise CorruptArchiveError(f"{self.path} is not an archive")
                if size < 16:
                    raise CorruptArchiveError(f"{self.path}: no footer present")
                f.seek(-16, 2)
                tail = f.read(16)
        except FileNotFoundError:
            raise CorruptArchiveError(f"{self.path} does not exist") from None
        if tail[12:] == _FOOT_V1:
            (idx_off,) = struct.unpack("<Q", tail[:8])
            (idx_crc,) = struct.unpack("<I", tail[8:12])
            end = size - 16
            raw = self._read_span(idx_off, end)
            if _crc32(raw) != idx_crc:
                raise CorruptArchiveError(f"{self.path}: index CRC32 mismatch")
            index = self._parse_index(raw)
        elif tail[12:] == _FOOT_V0:
            raise CorruptArchiveError(
                f"{self.path}: retired v0 archive format (CRAR footer, no "
                "checksums); read it with an earlier release and append its "
                "entries to a new archive"
            )
        else:
            raise CorruptArchiveError(f"{self.path}: archive footer corrupt")
        return idx_off, index

    def _read_span(self, start: int, end: int) -> bytes:
        if start < 4 or start > end:
            raise CorruptArchiveError(
                f"{self.path}: index offset {start} outside file"
            )
        with open(self.path, "rb") as f:
            f.seek(start)
            return f.read(end - start)

    def _parse_index(self, raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            obj = json.loads(raw.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptArchiveError(f"{self.path}: index unreadable: {exc}") from None
        entries = None
        if isinstance(obj, dict) and obj.get("v") == ARCHIVE_FORMAT_VERSION:
            entries = obj.get("entries")
        if not isinstance(entries, dict) or not all(
            isinstance(v, list)
            and len(v) == 3
            and all(isinstance(x, int) for x in v)
            for v in entries.values()
        ):
            raise CorruptArchiveError(f"{self.path}: malformed index entries")
        return entries

    def _index_offset(self) -> int:
        return self._load_tail()[0]

    def _read_index(self) -> dict:
        return self._load_tail()[1]

    def _write_tail(
        self,
        index: dict,
        payload_end: int,
        _crash_point: str | None = None,
    ) -> None:
        raw = json.dumps(
            {"v": ARCHIVE_FORMAT_VERSION, "entries": index},
            separators=(",", ":"),
        ).encode()
        with open(self.path, "r+b") as f:
            f.seek(payload_end)
            f.write(raw)
            # the index must be durable before the footer makes it reachable
            f.flush()
            os.fsync(f.fileno())
            if _crash_point == "after_index":
                f.truncate()
                raise _SimulatedCrash("after_index")
            f.write(struct.pack("<QI", payload_end, _crc32(raw)))
            f.write(_FOOT_V1)
            f.truncate()
            f.flush()
            os.fsync(f.fileno())


class _SimulatedCrash(RuntimeError):
    """Raised by the ``_crash_point`` fault-injection hooks in append."""


# -- wrapper part lists -------------------------------------------------------


def pack_parts(parts: "list[bytes]") -> bytes:
    """The part list that ends the slab-parallel (``RPAR``), temporal
    (``RTMP``) and QoI (``RQO2``) containers: each part behind its u64
    length."""
    return b"".join(struct.pack("<Q", len(p)) + p for p in parts)


def unpack_parts(blob: bytes, off: int, n: int, what: str) -> "list[bytes]":
    """The ``n`` parts :func:`pack_parts` wrote at ``blob[off:]``, which
    they must fill exactly; a damaged list raises
    :class:`~repro.errors.TruncatedStreamError` or
    :class:`~repro.errors.CorruptBlobError` naming ``what``."""
    parts = []
    for _ in range(n):
        if off + 8 > len(blob):
            raise TruncatedStreamError(f"{what} part table truncated")
        (size,) = struct.unpack_from("<Q", blob, off)
        off += 8
        if off + size > len(blob):
            raise TruncatedStreamError(
                f"{what} part declares {size} bytes past the container end"
            )
        parts.append(blob[off:off + size])
        off += size
    if off != len(blob):
        raise CorruptBlobError(f"{what} container corrupt")
    return parts


# -- streamed slab container -------------------------------------------------


def is_streamed_container(head: bytes) -> bool:
    """True when ``head`` (>= 4 bytes) starts a streamed slab container."""
    return head[:4] == _STREAM_MAGIC


class ContainerWriter:
    """Incremental writer for the streamed slab container.

    Segments (complete per-slab blobs) are written to ``sink`` the moment
    they are appended — the writer never buffers more than the index — so
    a huge volume streams through O(slab) memory.  ``sink`` only needs a
    ``write`` method (regular file, socket wrapper, ``BytesIO``); the
    offset index is tracked writer-side and published by :meth:`finalize`
    as the trailing index + footer.  Usable as a context manager
    (finalizes on clean exit).
    """

    def __init__(
        self,
        sink: BinaryIO,
        *,
        axis: int = 0,
        meta: dict[str, Any] | None = None,
    ) -> None:
        if not 0 <= int(axis) < 256:
            raise ValueError(f"slab axis {axis!r} out of range")
        self._sink = sink
        self.axis = int(axis)
        self.meta = dict(meta) if meta else {}
        self._segments: list[list[int]] = []
        self._pos = 0
        self._finalized = False
        self._write(
            _STREAM_MAGIC
            + struct.pack("<BBH", STREAM_FORMAT_VERSION, self.axis, 0)
        )

    def _write(self, data: bytes) -> None:
        self._sink.write(data)
        self._pos += len(data)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def bytes_written(self) -> int:
        return self._pos

    def offsets(self) -> list[tuple[int, int]]:
        """Per-segment ``(offset, size)`` pairs written so far."""
        return [(off, size) for off, size, _crc in self._segments]

    def append(self, segment: bytes) -> int:
        """Flush one complete segment to the sink; returns its index."""
        if self._finalized:
            raise ValueError("ContainerWriter is finalized")
        segment = bytes(segment)
        if not segment:
            raise ValueError("empty segment")
        self._segments.append([self._pos, len(segment), _crc32(segment)])
        self._write(segment)
        return len(self._segments) - 1

    def finalize(self) -> dict[str, Any]:
        """Publish the trailing index + footer; returns a summary dict."""
        if self._finalized:
            raise ValueError("ContainerWriter is already finalized")
        index = {
            "v": STREAM_FORMAT_VERSION,
            "axis": self.axis,
            "segments": self._segments,
        }
        if self.meta:
            index["meta"] = self.meta
        raw = json.dumps(index, separators=(",", ":")).encode()
        idx_off = self._pos
        self._write(raw)
        self._write(struct.pack("<QI", idx_off, _crc32(raw)) + _STREAM_FOOT)
        self._finalized = True
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()
        return {
            "segments": len(self._segments),
            "payload_bytes": sum(s[1] for s in self._segments),
            "total_bytes": self._pos,
            "axis": self.axis,
        }

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is None and not self._finalized:
            self.finalize()


class _ByteSource:
    """Random-access byte reads over bytes / a seekable file / a path."""

    def __init__(self, src: Any) -> None:
        self._file: BinaryIO | None = None
        self._buf: bytes | None = None
        if isinstance(src, (bytes, bytearray, memoryview)):
            self._buf = bytes(src)
            self._size = len(self._buf)
        elif isinstance(src, (str, pathlib.Path)):
            self._file = open(src, "rb")
            self._size = os.fstat(self._file.fileno()).st_size
        elif hasattr(src, "read") and hasattr(src, "seek"):
            self._file = src
            pos = src.tell()
            self._size = src.seek(0, io.SEEK_END)
            src.seek(pos)
        else:
            raise TypeError(
                "streamed container source must be bytes, a path, or a "
                f"seekable binary file, not {type(src).__name__}"
            )

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, n: int) -> bytes:
        if self._buf is not None:
            return self._buf[offset : offset + n]
        assert self._file is not None
        self._file.seek(offset)
        return self._file.read(n)


class ContainerReader:
    """Reader for the streamed slab container written by
    :class:`ContainerWriter`.

    ``source`` may be raw bytes, a filesystem path, or a seekable binary
    file object.  Segments are fetched on demand (:meth:`segment` /
    iteration) so decoding stays O(slab); :meth:`segment` is random-access
    by design — a range request needs only the trailing index plus the
    requested slabs' byte ranges.
    """

    def __init__(self, source: Any) -> None:
        self._src = _ByteSource(source)
        size = self._src.size
        if size < _STREAM_HEADER_LEN:
            raise TruncatedStreamError(
                f"streamed container: {size} bytes is shorter than the header"
            )
        head = self._src.read_at(0, _STREAM_HEADER_LEN)
        if head[:4] != _STREAM_MAGIC:
            raise CorruptBlobError(
                f"not a streamed container (magic {head[:4]!r})"
            )
        version, axis, _reserved = struct.unpack("<BBH", head[4:8])
        if version != STREAM_FORMAT_VERSION:
            raise VersionError(
                f"streamed container version {version} is not supported "
                f"(this build reads v{STREAM_FORMAT_VERSION})"
            )
        if size < _STREAM_HEADER_LEN + _STREAM_FOOTER_LEN:
            raise TruncatedStreamError(
                "streamed container: footer missing (stream truncated or "
                "never finalized)"
            )
        foot = self._src.read_at(size - _STREAM_FOOTER_LEN, _STREAM_FOOTER_LEN)
        if foot[12:] != _STREAM_FOOT:
            raise TruncatedStreamError(
                "streamed container: footer magic missing (stream truncated "
                "or never finalized)"
            )
        idx_off, idx_crc = struct.unpack("<QI", foot[:12])
        idx_end = size - _STREAM_FOOTER_LEN
        if not _STREAM_HEADER_LEN <= idx_off <= idx_end:
            raise CorruptBlobError(
                f"streamed container: index offset {idx_off} outside file"
            )
        raw = self._src.read_at(idx_off, idx_end - idx_off)
        if _crc32(raw) != idx_crc:
            raise IntegrityError("streamed container: index failed its CRC32")
        self._idx_off = idx_off
        index = self._parse_index(raw)
        self.axis = int(index["axis"])
        if self.axis != axis:
            raise CorruptBlobError(
                f"streamed container: header axis {axis} != index axis {self.axis}"
            )
        self.meta: dict[str, Any] = index.get("meta") or {}
        self._segments: list[list[int]] = index["segments"]

    def _parse_index(self, raw: bytes) -> dict[str, Any]:
        try:
            index = json.loads(raw.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorruptBlobError(
                f"streamed container: index unreadable: {exc}"
            ) from None
        if not isinstance(index, dict):
            raise CorruptBlobError("streamed container: index is not an object")
        if index.get("v") != STREAM_FORMAT_VERSION:
            raise VersionError(
                f"streamed container: index version {index.get('v')!r} is "
                f"not supported"
            )
        segments = index.get("segments")
        axis = index.get("axis")
        if not isinstance(axis, int) or not 0 <= axis < 256:
            raise CorruptBlobError("streamed container: bad index axis")
        if not isinstance(segments, list) or not all(
            isinstance(s, list)
            and len(s) == 3
            and all(isinstance(x, int) and x >= 0 for x in s)
            for s in segments
        ):
            raise CorruptBlobError("streamed container: malformed segment table")
        meta = index.get("meta", {})
        if not isinstance(meta, dict):
            raise CorruptBlobError("streamed container: malformed meta block")
        # offsets must be strictly increasing AND contiguous: segment k+1
        # starts exactly where segment k ended, and the payload region is
        # [header, idx_off) with no gaps for bytes to hide in
        pos = _STREAM_HEADER_LEN
        for i, (off, size, _crc) in enumerate(segments):
            if off != pos or size <= 0:
                raise CorruptBlobError(
                    f"streamed container: segment {i} spans [{off}, "
                    f"{off + size}) but the payload cursor is at {pos}"
                )
            pos += size
        if pos != self._idx_off:
            raise CorruptBlobError(
                f"streamed container: segments end at {pos} but the index "
                f"starts at {self._idx_off}"
            )
        return index

    def __len__(self) -> int:
        return len(self._segments)

    def offsets(self) -> list[tuple[int, int]]:
        """Per-segment ``(offset, size)`` pairs from the index."""
        return [(off, size) for off, size, _crc in self._segments]

    def segment(self, i: int, verify: bool = True) -> bytes:
        """Random-access read of segment ``i`` (CRC-checked by default)."""
        off, size, crc = self._segments[i]
        raw = self._src.read_at(off, size)
        if len(raw) != size:
            raise TruncatedStreamError(
                f"streamed container: segment {i} declares {size} bytes, "
                f"read {len(raw)}"
            )
        if verify and _crc32(raw) != crc:
            raise IntegrityError(
                f"streamed container: segment {i} failed its CRC32 check"
            )
        return raw

    def __iter__(self) -> Iterator[bytes]:
        for i in range(len(self._segments)):
            yield self.segment(i)
