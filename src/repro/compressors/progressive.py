"""Progressive SZ3 variant: level-ordered sections with prefix decode.

``sz3_progressive`` emits the interpolation engine's entropy payload *per
level, coarse-first* — the IPComp/PSZ reordering — instead of one
monolithic index stream:

``RPRC | u32 hlen | header JSON | anchors | indices:L literals:L | ... | indices:1 literals:1``

The header carries a versioned ``progressive`` extension::

    {"version": 1,
     "levels": [{"level": L, "end": <payload-relative prefix end>,
                 "eb": <achievable max error of that prefix>}, ...]}

so any level-aligned byte prefix is decodable on its own: the levels whose
sections arrived decode exactly as the full decoder would (the schedule is
strictly coarse-to-fine, so their values are bit-identical), and the finer
levels are filled with predictions only
(:func:`~repro.compressors.interp_engine.predict_fill`).  ``eb`` is a
*guaranteed* bound on ``max|preview - original|``, derived at compress
time from the measured per-pass prediction residuals and the
interpolation kernels' Lipschitz constants — see :func:`_level_bounds`.

Full decode (all sections present) concatenates the per-level streams
back into the monolithic schedule-order stream, so the reconstruction is
bit-identical to what a plain ``sz3`` blob of the same data decodes to.

Module-level entry points (they need no compressor instance):

``decompress_prefix(prefix)``   decode any level-aligned byte prefix
``decode_to_level(blob, k)``    decode a full blob to a coarser preview
``level_table(blob)``           absolute per-level byte spans + bounds
``prefix_length(blob, k)``      bytes needed to decode through level ``k``
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..errors import CorruptBlobError, TruncatedStreamError, VersionError
from ..io.integrity import is_sealed, unseal
from ..utils.levels import anchor_shape
from .base import (
    Blob,
    CompressionState,
    _typed_faults,
    _validated_geometry,
    decode_index_stream,
    encode_index_stream,
)
from .interp_engine import (
    compress_volumes,
    decompress_volumes,
    predict_fill,
    stream_length,
)
from .sz3 import SZ3

__all__ = [
    "PROGRESSIVE_VERSION",
    "PrefixDecode",
    "SZ3Progressive",
    "decode_to_level",
    "decompress_prefix",
    "level_table",
    "prefix_length",
]

#: revision of the ``progressive`` header extension; readers reject
#: anything newer with a typed :class:`~repro.errors.VersionError`
PROGRESSIVE_VERSION = 1

#: max |coefficient| sum of the interpolation kernels per method — how much
#: a deviation in the source points can grow through one prediction.
#: linear: (a+b)/2 -> 1.0; cubic: (9(b+c)-(a+d))/16 -> 20/16 = 1.25 (its
#: boundary fallbacks — linear and nearest-copy — are both <= 1.0).
_LIPSCHITZ = {"cubic": 1.25}


def _lipschitz(method: str) -> float:
    return _LIPSCHITZ.get(method, 1.0)


def _level_bounds(
    meta: dict[str, Any],
    stats: "list[dict]",
    error_bound: float,
    slack: float,
) -> dict[int, float]:
    """Guaranteed max-error bound of the preview at each level.

    The preview that includes level ``k`` holds decoded values at levels
    ``>= k`` (within each level's quantizer bound) and prediction-only
    values below.  Walking the remaining passes in schedule order:

    * a pass's preview prediction differs from the full decoder's by at
      most ``C * M`` where ``C`` is the kernel's Lipschitz constant and
      ``M`` the worst deviation of any already-filled point from its fully
      decoded value, so its preview error is ``<= R + C * M`` with ``R``
      the measured max |original - prediction| of the pass;
    * those points then deviate from their decoded values by at most
      their preview error plus the level's quantizer bound, growing ``M``.

    ``slack`` absorbs float rounding (the recursion is exact-arithmetic).
    """
    methods = {int(k): v for k, v in meta["methods"].items()}
    factors = {int(k): float(v) for k, v in meta["level_eb_factors"].items()}

    def q(level: int) -> float:
        return error_bound * factors.get(level, 1.0)

    present = sorted({s["level"] for s in stats}, reverse=True)
    bounds: dict[int, float] = {}
    for k in present:
        err = max(q(m) for m in present if m >= k)
        deviation = 0.0
        for s in stats:  # schedule order: coarse levels first
            if s["level"] >= k:
                continue
            pass_err = s["max_residual"] + _lipschitz(methods[s["level"]]) * deviation
            err = max(err, pass_err)
            deviation = max(deviation, pass_err + q(s["level"]))
        bounds[k] = err * (1.0 + 1e-6) + slack
    return bounds


def _rounding_slack(data: np.ndarray) -> float:
    """Absolute float-rounding allowance added to every recorded bound."""
    if np.issubdtype(data.dtype, np.floating):
        eps = float(np.finfo(data.dtype).eps)
        extra = 0.0
    else:
        eps = float(np.finfo(np.float64).eps)
        extra = 1.0  # integer previews truncate the prediction cast
    absmax = float(np.abs(data).max()) if data.size else 0.0
    return 32.0 * eps * absmax + extra


class SZ3Progressive(SZ3):
    """SZ3 with level-ordered sections and a prefix-decode guarantee.

    Same engine, same reconstruction (bit-identical to ``sz3`` with
    ``predictor="interp"``), different wire layout: one entropy segment
    per interpolation level, coarse-first, plus the ``progressive``
    header extension mapping byte prefixes to achievable error bounds.
    The Lorenzo/regression frontends are not level-separable, so the
    predictor is pinned to the interpolation engine.
    """

    name = "sz3_progressive"
    #: shares SZ3's paper-table row; empty traits keep it out of Table I
    traits: dict[str, Any] = {}

    def __init__(
        self,
        error_bound: float,
        qp=None,
        predictor: str = "interp",
        interp: str = "auto",
        radius: int = 32768,
        huffman_block_size: int | None = None,
        entropy: str = "huffman",
        adaptive=None,
    ) -> None:
        if predictor != "interp":
            raise ValueError(
                "sz3_progressive is interpolation-only: level-ordered "
                f"sections need the level schedule (got predictor={predictor!r})"
            )
        super().__init__(
            error_bound,
            qp=qp,
            predictor="interp",
            interp=interp,
            radius=radius,
            huffman_block_size=huffman_block_size,
            entropy=entropy,
            adaptive=adaptive,
        )

    # -- compression --------------------------------------------------------

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        cfg = self._engine_config(data)
        stats: list[dict] = []
        (meta,), (stream,), (literals,), (anchors,) = compress_volumes(
            data[None], cfg, state, stats
        )[:4]
        order: list[int] = []
        for s in stats:
            if not order or order[-1] != s["level"]:
                order.append(s["level"])
        bounds = _level_bounds(
            meta, stats, self.error_bound, _rounding_slack(data)
        )
        sections: dict[str, bytes] = {"anchors": anchors.tobytes()}
        table: list[dict] = []
        end = len(sections["anchors"])
        spos = lpos = 0
        for lvl in order:
            n_idx = sum(s["indices"].size for s in stats if s["level"] == lvl)
            n_lit = sum(s["literals"] for s in stats if s["level"] == lvl)
            idx_sec = encode_index_stream(
                stream[spos:spos + n_idx],
                entropy=self.entropy, block_size=self.huffman_block_size,
            )
            lit_sec = lossless_compress(literals[lpos:lpos + n_lit].tobytes())
            spos += n_idx
            lpos += n_lit
            sections[f"indices:{lvl}"] = idx_sec
            sections[f"literals:{lvl}"] = lit_sec
            end += len(idx_sec) + len(lit_sec)
            table.append({"level": lvl, "end": end, "eb": bounds[lvl]})
        header: dict[str, Any] = {
            "predictor": "interp",
            "engine": meta,
            "progressive": {"version": PROGRESSIVE_VERSION, "levels": table},
        }
        if self.entropy != "huffman":
            header["entropy"] = self.entropy
        return header, sections

    # -- decompression ------------------------------------------------------

    def _decompress(self, blob: Blob) -> np.ndarray:
        lvls = _section_levels(blob)
        return _decode_blob_to_level(blob, min(lvls) if lvls else 1)

    def _decompress_many(self, blobs: "list[Blob]") -> "list[np.ndarray]":
        # per-level sections do not fit SZ3's stacked path: one blob at a time
        return [self._decompress(b) for b in blobs]

    def decompress_prefix(self, prefix: bytes) -> "PrefixDecode":
        """Instance-method convenience over :func:`decompress_prefix`."""
        return decompress_prefix(prefix)

    def decode_to_level(self, blob: bytes, level: int) -> np.ndarray:
        """Instance-method convenience over :func:`decode_to_level`."""
        return decode_to_level(blob, level)


# -- prefix parsing and decode ------------------------------------------------


@dataclass
class PrefixDecode:
    """Result of decoding a level-aligned byte prefix.

    ``array``     the error-bounded preview volume
    ``level``     the deepest level whose sections were fully present
    ``eb``        the recorded achievable bound of that preview
    ``consumed``  absolute bytes of the prefix actually used (the level's
                  recorded prefix length; trailing partial bytes ignored)
    """

    array: np.ndarray
    level: int
    eb: float
    consumed: int


def _parse_header(data: bytes) -> tuple[dict, list, int]:
    """Lenient header parse: ``(header, section_table, payload_start)``.

    Unlike :meth:`Blob.from_bytes` this only needs the header bytes to be
    present — sections may be truncated (that is the point of a prefix).
    """
    if data[:4] != b"RPRC":
        raise CorruptBlobError("not a repro compressed blob")
    if len(data) < 8:
        raise TruncatedStreamError("blob prefix shorter than its fixed header")
    (hlen,) = struct.unpack_from("<I", data, 4)
    if 8 + hlen > len(data):
        raise TruncatedStreamError(
            f"blob prefix holds {len(data) - 8} header bytes of {hlen}"
        )
    try:
        header = json.loads(data[8:8 + hlen].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptBlobError(f"blob header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or "sections" not in header:
        raise CorruptBlobError("blob header missing its section table")
    section_table = header.pop("sections")
    if not isinstance(section_table, list):
        raise CorruptBlobError("blob section table is not a list")
    return header, section_table, 8 + hlen


def _progressive_ext(header: dict) -> dict:
    """Validate and return the ``progressive`` header extension."""
    ext = header.get("progressive")
    if not isinstance(ext, dict):
        raise CorruptBlobError(
            f"blob from {header.get('compressor')!r} carries no progressive "
            "level table; only sz3_progressive blobs support prefix decode"
        )
    version = ext.get("version")
    if version != PROGRESSIVE_VERSION:
        raise VersionError(
            f"progressive extension version {version!r} is not supported "
            f"(this reader speaks {PROGRESSIVE_VERSION})"
        )
    levels = ext.get("levels")
    if not isinstance(levels, list):
        raise CorruptBlobError("progressive extension has no level list")
    prev_end = -1
    prev_level = None
    for e in levels:
        if (
            not isinstance(e, dict)
            or not isinstance(e.get("level"), int)
            or not isinstance(e.get("end"), int)
            or not isinstance(e.get("eb"), (int, float))
        ):
            raise CorruptBlobError(f"malformed progressive level entry {e!r}")
        if e["end"] <= prev_end:
            raise CorruptBlobError(
                f"progressive level offsets are not increasing at {e!r}"
            )
        if prev_level is not None and e["level"] >= prev_level:
            raise CorruptBlobError(
                f"progressive levels are not coarse-first at {e!r}"
            )
        prev_end = e["end"]
        prev_level = e["level"]
    return ext


def _section_levels(blob: Blob) -> "list[int]":
    """Levels with sections present, in section (coarse-first) order."""
    out = []
    for name in blob.sections:
        if name.startswith("indices:"):
            try:
                out.append(int(name.split(":", 1)[1]))
            except ValueError:
                raise CorruptBlobError(f"malformed level section {name!r}") from None
    return out


def _decode_blob_to_level(blob: Blob, level: int) -> np.ndarray:
    """Decode levels ``>= level`` exactly, prediction-fill the rest."""
    header = blob.header
    shape, dtype = _validated_geometry(header)
    meta = header["engine"]
    lvls = [l for l in _section_levels(blob) if l >= level]
    streams = [decode_index_stream(blob.sections[f"indices:{l}"]) for l in lvls]
    stream = (
        np.concatenate(streams) if streams else np.empty(0, dtype=np.int64)
    )
    lits = [
        np.frombuffer(
            lossless_decompress(blob.sections[f"literals:{l}"]), dtype=dtype
        )
        for l in lvls
    ]
    literals = np.concatenate(lits) if lits else np.empty(0, dtype=dtype)
    anchors = np.frombuffer(blob.sections["anchors"], dtype=dtype).reshape(
        anchor_shape(shape)
    )
    stop = level - 1 if level > 1 else 0
    if not stop and stream.size != stream_length(shape):
        raise CorruptBlobError("index stream size mismatch")
    (arr,), (used,) = decompress_volumes([(
        meta, stream, literals, anchors, shape, dtype,
        float(header["error_bound"]),
    )], stream[None], stop)
    if stop:
        predict_fill(arr, meta, stop)
    elif used != literals.size:
        raise CorruptBlobError("literal stream size mismatch")
    return arr


def level_table(blob: bytes) -> "list[dict]":
    """Absolute per-level byte spans of a progressive blob.

    Returns ``[{"level": k, "eb": bound, "end": absolute prefix length
    that makes level k decodable}, ...]`` coarse-first.  Works from the
    header alone, so callers holding only the first bytes of a blob (a
    range-serving gateway, the transfer planner) can compute spans
    without the payload.
    """
    data = bytes(blob)
    if is_sealed(data):
        data = unseal(data)
    header, _sections, payload_start = _parse_header(data)
    ext = _progressive_ext(header)
    return [
        {
            "level": int(e["level"]),
            "eb": float(e["eb"]),
            "end": payload_start + int(e["end"]),
        }
        for e in ext["levels"]
    ]


def prefix_length(blob: bytes, level: int) -> int:
    """Bytes of ``blob`` needed to decode through ``level``."""
    for e in level_table(blob):
        if e["level"] == level:
            return e["end"]
    raise ValueError(f"level {level} is not in the progressive level table")


def decompress_prefix(prefix: bytes) -> PrefixDecode:
    """Decode any level-aligned byte prefix of a progressive blob.

    The deepest level whose sections are fully contained in ``prefix``
    decodes exactly (bit-identical to the full decoder at those points);
    finer levels are prediction-filled.  The returned ``eb`` is the
    compress-time guarantee on ``max|array - original|``.  A prefix too
    short for even the coarsest level raises
    :class:`~repro.errors.TruncatedStreamError`.  Sealed (v1 checksum)
    blobs verify over their full bytes, so only a *complete* sealed blob
    can be prefix-decoded — serve ranges from the canonical framing.
    """
    data = bytes(prefix)
    if is_sealed(data):
        data = unseal(data)
    header, section_table, payload_start = _parse_header(data)
    ext = _progressive_ext(header)
    avail = len(data) - payload_start
    entries = [e for e in ext["levels"] if int(e["end"]) <= avail]
    if not entries:
        need = int(ext["levels"][0]["end"]) if ext["levels"] else 0
        raise TruncatedStreamError(
            f"prefix holds {avail} payload bytes; the coarsest level needs {need}"
        )
    entry = entries[-1]
    sections: dict[str, bytes] = {}
    off = payload_start
    for item in section_table:
        if (
            not isinstance(item, (list, tuple)) or len(item) != 2
            or not isinstance(item[0], str) or not isinstance(item[1], int)
            or item[1] < 0
        ):
            raise CorruptBlobError(f"malformed section entry {item!r}")
        name, size = item
        if off + size > len(data):
            break  # truncated section: not part of the decodable prefix
        sections[name] = data[off:off + size]
        off += size
    blob = Blob(dict(header), sections)
    with _typed_faults(SZ3Progressive.name):
        arr = _decode_blob_to_level(blob, int(entry["level"]))
    return PrefixDecode(
        array=arr,
        level=int(entry["level"]),
        eb=float(entry["eb"]),
        consumed=payload_start + int(entry["end"]),
    )


def decode_to_level(blob: bytes, level: int) -> np.ndarray:
    """Decode a complete progressive blob to a coarser preview.

    Levels ``>= level`` reconstruct exactly as the full decoder would;
    finer levels are prediction-filled.  ``decode_to_level(blob, 1)`` is
    bit-identical to ``decompress(blob)``.  A level missing from the
    blob's level table raises a plain ``ValueError`` before anything is
    decoded; a damaged blob, a level table that does not match the blob's
    sections included, raises :class:`~repro.errors.CorruptBlobError`.
    """
    data = bytes(blob)
    if is_sealed(data):
        data = unseal(data)
    b = Blob.from_bytes(data)
    ext = _progressive_ext(b.header)
    levels = [e["level"] for e in ext["levels"]]
    if level not in levels:
        msg = f"level {level} is not in the progressive level table ({levels})"
        # an intact table lists the levels of the blob's sections
        sections = _section_levels(b)
        if levels != sections:
            raise CorruptBlobError(
                f"{msg}, which does not match the blob's level sections "
                f"({sections})"
            )
        raise ValueError(msg)
    with _typed_faults(SZ3Progressive.name):
        return _decode_blob_to_level(b, int(level))
