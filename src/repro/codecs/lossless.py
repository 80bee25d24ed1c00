"""The lossless byte-stream stage (the paper's ZSTD stage).

``compress`` deflates with stdlib zlib at level 6 (the same LZ77+entropy
family as ZSTD) and stores the input raw whenever deflate would not
shrink it.  The container is self-framing: a one-byte id (0 raw, 1 zlib)
and the original size lead the payload, so ``decompress`` needs no
arguments.  Ids 2 (RLE) and 3 (LZ77) belonged to retired from-scratch
coders; they raise :class:`~repro.errors.CorruptBlobError` with a
migration hint.
"""
from __future__ import annotations

import struct
import sys
import zlib

from ..errors import CorruptBlobError, TruncatedStreamError

__all__ = ["compress", "decompress"]

_ID_RAW = 0
_ID_ZLIB = 1
_LEVEL = 6
_HEADER = struct.Struct("<BQ")

#: ids of the retired from-scratch coders: a container led by one fails
#: with a migration hint rather than as an unknown id
_RETIRED = {2: "RLE", 3: "LZ77"}


def compress(data: bytes) -> bytes:
    """Deflate ``data``, or store it raw when deflate would not shrink it."""
    payload = zlib.compress(data, _LEVEL)
    wire_id = _ID_ZLIB
    if len(payload) >= len(data):
        wire_id, payload = _ID_RAW, data
    return _HEADER.pack(wire_id, len(data)) + payload


def decompress(blob: bytes) -> bytes:
    if len(blob) < _HEADER.size:
        raise TruncatedStreamError("lossless container header truncated")
    wire_id, size = _HEADER.unpack_from(blob, 0)
    payload = blob[_HEADER.size:]
    if wire_id == _ID_RAW:
        out = payload
    elif wire_id == _ID_ZLIB:
        out = _inflate(payload, size)
    elif wire_id in _RETIRED:
        raise CorruptBlobError(
            f"lossless section uses the retired {_RETIRED[wire_id]} coder "
            f"(id {wire_id}); decode it with an earlier release and re-compress"
        )
    else:
        raise CorruptBlobError(f"unknown lossless coder id {wire_id}")
    if len(out) != size:
        raise CorruptBlobError("lossless payload corrupt: size mismatch")
    return out


def _inflate(payload: bytes, size: int) -> bytes:
    """Inflate at most ``size + 1`` bytes, so a section that declares a
    small size but inflates to a large one costs no more than it declares.
    Bytes after the end of the deflate stream are corruption: a valid
    section never carries them."""
    if size >= sys.maxsize:
        raise CorruptBlobError(f"lossless section declares {size} bytes")
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(payload, size + 1)
    except zlib.error as exc:
        raise CorruptBlobError(f"zlib payload corrupt: {exc}") from None
    if len(out) == size and not inflater.eof:
        raise CorruptBlobError("zlib payload corrupt: stream does not end")
    if inflater.unused_data:
        raise CorruptBlobError("zlib payload corrupt: bytes after the stream end")
    return out
