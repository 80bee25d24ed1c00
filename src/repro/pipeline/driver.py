"""The engine-blob sections shared by the interpolation compressors.

``encode_engine_sections`` writes them.  ``decode_engine_blob`` /
``engine_decode_item`` are the one decode of SZ3's, QoZ's, HPEZ's
(global layout) and MGARD's engine blobs: index streams into the rows of
one buffer, the literals/anchors sections unpacked, and
:func:`~repro.compressors.interp_engine.decompress_volumes` over the
stack — a blob alone as a stack of one.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import decompress as lossless_decompress
from ..errors import CorruptBlobError
from ..utils.levels import anchor_shape

__all__ = [
    "encode_engine_sections",
    "decode_engine_blob",
    "engine_decode_item",
]


def encode_engine_sections(
    stream: np.ndarray,
    literals: np.ndarray,
    anchors: np.ndarray,
    *,
    entropy: str = "huffman",
    block_size: int | None = None,
) -> dict[str, bytes]:
    """Encode one volume of ``compress_volumes`` output into the canonical
    engine blob sections (the inverse of :func:`engine_decode_item`).

    One encode point shared by the ``_compress`` paths of SZ3, HPEZ
    (global layout) and MGARD; streamed segments are ``compress(slab)``
    blobs, so they take this path too.
    """
    from ..codecs import compress as lossless_compress
    from ..compressors.base import encode_index_stream

    return {
        "indices": encode_index_stream(
            stream, entropy=entropy, block_size=block_size
        ),
        "literals": lossless_compress(literals.tobytes()),
        "anchors": anchors.tobytes(),
    }


# -- shared engine-blob decode ------------------------------------------------


def decode_engine_blob(
    blobs: "list[Any]", stop_level: int = 0
) -> "list[np.ndarray]":
    """Decode engine blobs of one
    :func:`~repro.compressors.interp_engine.stack_key` as one stack; one
    blob decodes as a stack of one.

    Every index stream decodes into its row of one ``(k, L)`` int64
    buffer (``L`` = :func:`~repro.compressors.interp_engine.stream_length`;
    a stream of another length raises
    :class:`~repro.errors.CorruptBlobError` before anything is written),
    and :func:`~repro.compressors.interp_engine.decompress_volumes`
    inverts the buffer in place.  A full decode must consume each literal
    section exactly; ``stop_level`` truncates the schedule for resolution
    reduction (MGARD) and leaves the finer levels' literals unread.
    """
    from ..compressors.base import decode_index_stream
    from ..compressors.interp_engine import decompress_volumes, stream_length

    header = blobs[0].header
    length = stream_length(tuple(header["shape"]))
    buf = np.empty((len(blobs), length), dtype=np.int64)
    for b, row in zip(blobs, buf):
        decode_index_stream(b.sections["indices"], out=row)
    items = [engine_decode_item(b, row) for b, row in zip(blobs, buf)]
    volumes, used = decompress_volumes(items, buf, stop_level)
    if not stop_level and any(n != it[2].size for n, it in zip(used, items)):
        raise CorruptBlobError("literal stream size mismatch")
    return volumes


def engine_decode_item(
    blob: Any, stream: np.ndarray
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.dtype, float]:
    """One ``decompress_volumes`` work item from a parsed engine blob and
    its decoded index stream: ``(meta, stream, literals, anchors, shape,
    dtype, error_bound)``."""
    header = blob.header
    shape = tuple(header["shape"])
    dtype = np.dtype(header["dtype"])
    literals = np.frombuffer(
        lossless_decompress(blob.sections["literals"]), dtype=dtype
    )
    anchors = np.frombuffer(blob.sections["anchors"], dtype=dtype).reshape(
        anchor_shape(shape)
    )
    return (
        header["engine"], stream, literals, anchors, shape, dtype,
        header["error_bound"],
    )
