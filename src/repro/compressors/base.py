"""Compressor framework: blob container, shared encode stages, base class.

Every compressor serializes to a self-describing blob:

``RPRC | u32 header_len | header JSON | section bytes...``

The JSON header carries dtype/shape/parameters plus the ordered list of
``(section name, size)`` pairs; sections hold the binary payloads (entropy
stream, literals, anchors, ...).  ``decompress`` on the registry dispatches on
the header's ``compressor`` field, so any blob can be decoded without knowing
which compressor produced it.
"""
from __future__ import annotations

import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..errors import CorruptBlobError, ReproError, TruncatedStreamError
from ..io.integrity import is_sealed, seal, unseal
from ..obs import add_bytes, span as stage
from ..pipeline.stages import StageContext, entropy_stage, entropy_stage_for_wire_id
from ..utils.validation import check_error_bound, check_ndarray

__all__ = [
    "Blob",
    "Codec",
    "Compressor",
    "CompressionState",
    "EngineFront",
    "encode_index_stream",
    "decode_index_stream",
]

_MAGIC = b"RPRC"

#: exception types a corrupted byte stream can surface from the decode stack
#: before the strict validators catch it; ``decompress`` converts these to
#: :class:`~repro.errors.CorruptBlobError` so callers see one typed family
_DECODE_FAULTS = (
    ValueError,
    KeyError,
    IndexError,
    OverflowError,
    TypeError,
    EOFError,
    struct.error,
    UnicodeDecodeError,
    json.JSONDecodeError,
)


@runtime_checkable
class Codec(Protocol):
    """The unified compressor surface of the repo.

    Every compressing object — registry compressors, the slab-parallel /
    temporal / PW_REL / QoI wrappers — satisfies this protocol:

    * ``compress(data, *, checksum=False, auto=False, adaptive=None)
      -> bytes`` returns a self-describing container.  The three knobs
      are the *uniform keyword-only set* every implementation accepts
      with the same defaults: ``checksum=True`` seals the canonical
      bytes in the v1 CRC32 integrity envelope
      (:mod:`repro.io.integrity`); ``auto=True`` runs the sampling
      auto-tuner where one exists (a no-op elsewhere); ``adaptive=``
      applies an :class:`~repro.core.AdaptiveConfig` (or its dict
      encoding) for this call on codecs whose pipeline supports adaptive
      quantization — codecs that cannot honor it raise ``ValueError``
      rather than silently ignoring the request.
    * ``decompress(blob) -> np.ndarray`` accepts both the canonical and
      the sealed framing of its own containers and round-trips the
      geometry without out-of-band arguments.
    * ``name`` identifies the codec (registry key or wrapper kind).

    ``isinstance(obj, Codec)`` checks attribute presence (the runtime
    protocol semantics); ``tools/check_api.py`` additionally lints the
    signatures of everything registered (keyword-only knobs, consistent
    defaults, no stray positional parameters).
    """

    name: str

    def compress(
        self,
        data: np.ndarray,
        *,
        checksum: bool = False,
        auto: bool = False,
        adaptive: Any = None,
    ) -> bytes:
        ...

    def decompress(self, blob: bytes) -> np.ndarray:
        ...


@dataclass
class CompressionState:
    """Optional debugging/characterization output of a compression run.

    ``index_volume``  per-point quantization index scattered back to the data
                      grid (anchors hold 0) — the array Figures 3-5 visualize.
    ``pred_volume``   per-point prediction (same layout), when collected.
    ``extras``        free-form per-compressor diagnostics.
    """

    index_volume: np.ndarray | None = None
    pred_volume: np.ndarray | None = None
    extras: dict[str, Any] = field(default_factory=dict)


class Blob:
    """Named-section container with a JSON header."""

    def __init__(self, header: dict[str, Any], sections: dict[str, bytes]) -> None:
        self.header = header
        self.sections = sections

    def to_bytes(self, checksum: bool = False) -> bytes:
        """Serialize; ``checksum=True`` wraps the canonical v0 bytes in the
        CRC32-carrying v1 envelope (see :mod:`repro.io.integrity`)."""
        names = list(self.sections)
        header = dict(self.header)
        header["sections"] = [[n, len(self.sections[n])] for n in names]
        hjson = json.dumps(header, separators=(",", ":")).encode()
        parts = [_MAGIC, struct.pack("<I", len(hjson)), hjson]
        parts.extend(self.sections[n] for n in names)
        raw = b"".join(parts)
        return seal(raw) if checksum else raw

    @staticmethod
    def from_bytes(data: bytes) -> "Blob":
        """Parse a blob, accepting both the v0 and the sealed v1 framing.

        Every structural defect raises a typed :mod:`repro.errors` exception;
        sealed blobs additionally get CRC32 verification before parsing.
        """
        if is_sealed(data):
            data = unseal(data)
        if data[:4] != _MAGIC:
            raise CorruptBlobError("not a repro compressed blob")
        if len(data) < 8:
            raise TruncatedStreamError("blob shorter than its fixed header")
        (hlen,) = struct.unpack_from("<I", data, 4)
        if 8 + hlen > len(data):
            raise TruncatedStreamError(
                f"blob header declares {hlen} bytes, only {len(data) - 8} present"
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
        off = 8 + hlen
        sections = {}
        for entry in section_table:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int)
                or entry[1] < 0
            ):
                raise CorruptBlobError(f"malformed section entry {entry!r}")
            name, size = entry
            if off + size > len(data):
                raise TruncatedStreamError(
                    f"section {name!r} declares {size} bytes past end of blob"
                )
            sections[name] = data[off:off + size]
            off += size
        if off != len(data):
            raise CorruptBlobError("trailing bytes in blob")
        return Blob(header, sections)


# ceiling on header-declared element counts: a tampered shape field must not
# drive a multi-terabyte allocation before the size cross-check can run
_MAX_DECODE_ELEMENTS = 1 << 34


def _validated_geometry(header: dict[str, Any]) -> tuple[tuple[int, ...], np.dtype]:
    """Strictly validate a blob header's shape/dtype before trusting them."""
    shape = header.get("shape")
    if (
        not isinstance(shape, list)
        or not shape
        or not all(isinstance(d, int) and d > 0 for d in shape)
    ):
        raise CorruptBlobError(f"blob header has invalid shape {shape!r}")
    total = 1
    for d in shape:
        total *= d
    if total > _MAX_DECODE_ELEMENTS:
        raise CorruptBlobError(
            f"blob header declares {total} elements (> {_MAX_DECODE_ELEMENTS} cap)"
        )
    try:
        dtype = np.dtype(header.get("dtype"))
    except (TypeError, ValueError) as exc:
        raise CorruptBlobError(f"blob header has invalid dtype: {exc}") from None
    if dtype.kind not in "fiu":
        raise CorruptBlobError(f"blob header dtype {dtype} is not numeric")
    return tuple(shape), dtype


@dataclass
class EngineFront:
    """Front-stage output of the streaming pipeline for engine compressors.

    Everything ``compress_volume`` produced for one slab — the quantization
    index stream after the QP/adaptive transforms, plus literals/anchors —
    before any entropy coding.  ``_stream_entropy`` turns it into a framed
    blob byte-identical to ``compress(slab)``.  ``anchors`` may be a view
    into the slab's scratch buffer, so the buffer must not be recycled
    until the entropy stage has sealed the segment.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    header: dict
    stream: np.ndarray
    literals: np.ndarray
    anchors: np.ndarray


class Compressor(ABC):
    """Error-bounded lossy compressor interface.

    Subclasses implement ``_compress``/``_decompress``; the public methods
    handle validation and blob framing.  ``name`` keys the registry and the
    header dispatch.
    """

    #: registry key, e.g. "sz3"
    name: str = ""
    #: qualitative traits for Table I
    traits: dict[str, Any] = {}
    #: whether the compressor honors a ``qp=`` config (quantization index
    #: prediction integrates with the quantization-index structure, so only
    #: prediction+quantization compressors can support it)
    supports_qp: bool = False
    #: Huffman block size for the index-stream entropy stage; ``None`` keeps
    #: the codec default.  Block-synchronous decode costs ``block_size``
    #: Python-level steps however many lanes run in lockstep, so short slab
    #: streams decode far faster with smaller blocks (at ~8 bytes of stored
    #: offset per extra block) — the slab-parallel wrapper tunes this down
    huffman_block_size: int | None = None
    #: entropy stage for the index streams — any key of
    #: :data:`repro.pipeline.stages.ENTROPY_STAGES` ("huffman", "range").
    #: The default keeps all serial container bytes frozen; assigning
    #: ``comp.entropy = "range"`` switches every index stream to the
    #: adaptive range coder (decode dispatches on the wire id, so no header
    #: change is needed)
    entropy: str = "huffman"
    #: :class:`~repro.core.autotune.TuningDecision` carried by instances
    #: returned from ``_tuned_for`` (None on untuned compressors)
    tuning_decision: Any = None
    #: decision of the most recent ``compress(auto=True)`` call (None when
    #: the last call was untuned or the compressor has no tuner)
    last_tuning: Any = None

    def __init__(self, error_bound: float, lossless_backend: str = "zlib") -> None:
        self.error_bound = check_error_bound(error_bound)
        self.lossless_backend = lossless_backend

    # -- public API ---------------------------------------------------------

    def compress(
        self,
        data: np.ndarray,
        *,
        state: CompressionState | None = None,
        checksum: bool = False,
        auto: bool = False,
        adaptive: Any = None,
    ) -> bytes:
        """Compress ``data`` to a self-describing blob (bytes).

        ``checksum=True`` seals the canonical bytes in the v1 integrity
        envelope; the payload is byte-identical either way.  ``state``
        optionally collects characterization output
        (:class:`CompressionState`).  ``auto=True`` runs the sampling
        auto-tuner first (:func:`repro.core.autotune.autotune`) and
        compresses with the tuned configuration; compressors without a
        tuner accept the knob as a no-op.  The chosen
        :class:`~repro.core.autotune.TuningDecision` is left in
        ``self.last_tuning``.  ``adaptive=`` overrides the adaptive
        quantization config for this call (a per-call counterpart of the
        constructor argument); compressors whose pipeline has no
        adaptive stage raise ``ValueError``.  All knobs are
        keyword-only — the :class:`Codec` protocol's surface.
        """
        data = check_ndarray(data)
        if adaptive is not None:
            return self._with_adaptive(adaptive).compress(
                data, state=state, checksum=checksum, auto=auto
            )
        if auto:
            tuned = self._tuned_for(data)
            self.last_tuning = getattr(tuned, "tuning_decision", None)
            if tuned is not self:
                return tuned.compress(data, state=state, checksum=checksum)
        else:
            self.last_tuning = None
        sp = stage("compress", compressor=self.name)
        with sp:
            header, sections = self._compress(data, state)
            out = self._frame_blob(
                data.shape, data.dtype, header, sections, checksum=checksum
            )
            sp.label(bytes_in=data.nbytes, bytes_out=len(out))
        return out

    def _frame_blob(
        self,
        shape: "tuple[int, ...]",
        dtype: Any,
        header: dict,
        sections: "dict[str, bytes]",
        checksum: bool = False,
    ) -> bytes:
        """Finalize a header/sections pair into self-describing blob bytes.

        The single framing point shared by ``compress`` and the streaming
        entropy stage, so a streamed segment is byte-identical to
        ``compress(slab)`` (golden-digest enforced)."""
        header.setdefault("compressor", self.name)
        header["dtype"] = np.dtype(dtype).str
        header["shape"] = list(shape)
        header["error_bound"] = self.error_bound
        return Blob(header, sections).to_bytes(checksum=checksum)

    def decompress(self, blob: bytes) -> np.ndarray:
        b, shape, dtype = self._parse_own_blob(blob)
        sp = stage("decompress", compressor=self.name)
        with sp:
            try:
                out = self._decompress(b)
            except ReproError:
                raise
            except _DECODE_FAULTS as exc:
                raise CorruptBlobError(
                    f"{self.name} blob failed to decode: {type(exc).__name__}: {exc}"
                ) from exc
            out = self._check_decoded_geometry(out, shape, dtype)
            sp.label(bytes_in=len(blob), bytes_out=out.nbytes)
        return out

    def _parse_own_blob(self, blob: bytes) -> "tuple[Blob, tuple[int, ...], np.dtype]":
        """Shared decode entry: unwrap the (possibly sealed) envelope, check
        the producing compressor, and strictly validate the geometry.

        Every public decode path — ``decompress``, ``decompress_many``, and
        per-compressor extras like MGARD's ``decompress_resolution`` — must
        come through here so sealed v1 blobs, tampered headers, and
        wrong-compressor dispatch behave identically everywhere.
        """
        b = Blob.from_bytes(blob)
        if b.header.get("compressor") != self.name:
            raise ValueError(
                f"blob was produced by {b.header.get('compressor')!r}, not {self.name!r}"
            )
        shape, dtype = _validated_geometry(b.header)
        return b, shape, dtype

    def _check_decoded_geometry(
        self, out: np.ndarray, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        if out.size != int(np.prod(shape)):
            raise CorruptBlobError(
                f"decoded {out.size} values, header shape {shape} needs "
                f"{int(np.prod(shape))}"
            )
        return out.reshape(shape).astype(dtype, copy=False)

    def decompress_many(self, blobs: "list[bytes]") -> "list[np.ndarray]":
        """Decompress several blobs with shared decode stages batched.

        Output is identical to ``[self.decompress(b) for b in blobs]``, but
        subclasses may override ``_decompress_many`` to amortize per-blob
        Python dispatch (joint Huffman lockstep decode, stacked QP inverse)
        — the hot path for slab-parallel containers.
        """
        parsed = [self._parse_own_blob(blob) for blob in blobs]
        with stage("decompress", compressor=self.name, batch=len(blobs)):
            try:
                outs = self._decompress_many([b for b, _, _ in parsed])
            except ReproError:
                raise
            except _DECODE_FAULTS as exc:
                raise CorruptBlobError(
                    f"{self.name} blob failed to decode: {type(exc).__name__}: {exc}"
                ) from exc
            results = [
                self._check_decoded_geometry(out, shape, dtype)
                for out, (_, shape, dtype) in zip(outs, parsed)
            ]
        return results

    # -- streaming API --------------------------------------------------------

    def compress_stream(
        self,
        data: np.ndarray,
        sink: Any,
        *,
        slab_bytes: int | None = None,
        workers: int | None = None,
        depth: int | None = None,
        checksum: bool = False,
    ):
        """Compress ``data`` (array or ``np.memmap``) into ``sink`` slab by
        slab with bounded memory.

        The volume is walked along the leading axis in ~``slab_bytes``
        tiles through the three-stage thread pipeline of
        :mod:`repro.streaming`; finished segments are flushed to ``sink``
        incrementally through a
        :class:`~repro.io.container.ContainerWriter`.  Every segment is
        byte-identical to ``compress(data[slab], checksum=checksum)``.
        Returns a :class:`~repro.streaming.StreamResult`.
        """
        from ..streaming import stream_compress

        return stream_compress(
            self,
            data,
            sink,
            slab_bytes=slab_bytes,
            workers=workers,
            depth=depth,
            checksum=checksum,
        )

    def decompress_stream(self, source: Any, *, batch: int = 8) -> np.ndarray:
        """Decode a streamed container (bytes, path, or seekable file)
        written by :meth:`compress_stream` back into one array."""
        from ..streaming import stream_decompress

        return stream_decompress(source, compressor=self, batch=batch)

    def _stream_front(self, slab: np.ndarray):
        """Streaming stage 1+2: predict + quantize + index transforms for
        one slab.

        Engine compressors override this to return an :class:`EngineFront`
        (stopping before entropy coding, so the entropy thread can overlap
        the next slab's prediction).  The default covers compressors
        without a separable entropy stage: the whole encode happens here
        and the entropy stage passes the bytes through.
        """
        return self.compress(slab)

    def _stream_entropy(self, front: Any, checksum: bool = False) -> bytes:
        """Streaming stage 3: entropy + lossless coding and blob framing.

        Must produce bytes identical to ``compress(slab,
        checksum=checksum)`` for the slab that produced ``front``.
        """
        if isinstance(front, (bytes, bytearray)):
            return seal(bytes(front)) if checksum else bytes(front)
        if isinstance(front, EngineFront):
            from ..pipeline.driver import encode_engine_sections

            sections = encode_engine_sections(
                front.stream,
                front.literals,
                front.anchors,
                lossless_backend=self.lossless_backend,
                entropy=self.entropy,
                block_size=self.huffman_block_size,
            )
            return self._frame_blob(
                front.shape, front.dtype, dict(front.header), sections, checksum
            )
        raise TypeError(
            f"unrecognized stream front payload {type(front).__name__!r}"
        )

    # -- subclass hooks -------------------------------------------------------

    def _with_adaptive(self, adaptive: Any) -> "Compressor":
        """Clone this compressor with ``adaptive`` applied (per-call knob).

        Only compressors whose constructor takes ``adaptive`` (i.e. whose
        pipeline contains the adaptive quantization stage) can honor the
        request; everything else rejects it loudly — silently compressing
        without the asked-for transform would corrupt an accuracy study.
        """
        import copy
        import inspect

        if "adaptive" not in inspect.signature(type(self).__init__).parameters:
            raise ValueError(
                f"compressor {self.name!r} does not support adaptive "
                "quantization; drop the adaptive= argument"
            )
        if isinstance(adaptive, dict):
            from ..core import AdaptiveConfig

            adaptive = AdaptiveConfig.from_dict(adaptive)
        clone = copy.copy(self)
        clone.adaptive = adaptive
        return clone

    def _tuned_for(self, data: np.ndarray) -> "Compressor":
        """Return a compressor tuned for ``data`` (``compress(auto=True)``).

        The default is the identity — every compressor accepts the ``auto``
        knob, and those without a sampling tuner simply run their fixed
        configuration.  Overrides return a *copy* carrying a
        ``tuning_decision`` so the original instance's settings survive.
        """
        return self

    @abstractmethod
    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        """Return (header fields, named sections)."""

    @abstractmethod
    def _decompress(self, blob: Blob) -> np.ndarray:
        """Reconstruct the array from a parsed blob."""

    def _decompress_many(self, blobs: "list[Blob]") -> "list[np.ndarray]":
        """Batched counterpart of ``_decompress``; default is the plain loop."""
        return [self._decompress(b) for b in blobs]


# -- shared encode stages -----------------------------------------------------


_STREAM_ALPHABET_CAP = 1 << 16

#: entropy stages never read the walk context in the framing below
_FRAMING_CTX = StageContext()

# range guard for the histogram median below: beyond this the bincount would
# cost more than the partition it replaces
_MEDIAN_RANGE_CAP = 1 << 21


def _int_median(values: np.ndarray, lo: int, hi: int) -> float:
    """Exact median of an integer array, histogram-based.

    Produces bit-identical results to ``np.median`` (the mean of the two
    middle order statistics, in float64) but via one bincount pass instead of
    a partial sort — index streams are radius-bounded, so the histogram is
    tiny next to the data.  Falls back to ``np.median`` for wide ranges.
    ``lo``/``hi`` are the array's min/max, computed once by the caller.
    """
    if hi - lo > _MEDIAN_RANGE_CAP:
        return float(np.median(values))
    counts = np.cumsum(np.bincount(values - lo))
    n = values.size
    v_lo = lo + int(np.searchsorted(counts, (n - 1) // 2 + 1))
    v_hi = lo + int(np.searchsorted(counts, n // 2 + 1))
    return (v_lo + v_hi) / 2.0


def encode_index_stream(
    indices: np.ndarray,
    backend: str = "zlib",
    entropy: str = "huffman",
    block_size: int | None = None,
) -> bytes:
    """Entropy stage shared by the SZ-family ports: offset-shift the signed
    index stream to non-negative codes, entropy-code, then apply the
    lossless backend (the paper's Huffman + ZSTD pipeline; ``entropy="range"``
    selects the adaptive range coder, mirroring SZ3's arithmetic option).

    Codes beyond a 2^16 alphabet (possible for extreme outlier indices) are
    replaced by an escape symbol and stored fixed-width on the side — the
    same alphabet cap real SZ applies via its quantizer capacity — so the
    Huffman frequency table stays bounded regardless of the value range.

    ``block_size`` overrides the Huffman codec's block length; it is stored
    in the container header, so decoders adapt automatically.
    """
    from ..codecs.fixed import encode_fixed

    coder = entropy_stage(entropy)(block_size)
    indices = np.ascontiguousarray(indices).ravel().astype(np.int64, copy=False)
    if coder.bounded_alphabet:
        # center the alphabet window on the median so heavy-tailed streams
        # keep their bulk in-alphabet; only genuine outliers escape
        # (two-sided, zigzag fixed-width)
        if indices.size:
            lo = int(indices.min())
            hi = int(indices.max())
            offset = int(_int_median(indices, lo, hi)) - (_STREAM_ALPHABET_CAP // 2 - 1)
        else:
            lo = hi = 0
            offset = 0
        codes = indices - offset
        esc = _STREAM_ALPHABET_CAP - 1
        if lo - offset >= 0 and hi - offset < esc:
            # whole stream fits the alphabet window: no escape scan needed
            esc_vals = np.empty(0, dtype=np.int64)
            esc_mask = None
        else:
            esc_mask = (codes < 0) | (codes >= esc)
            esc_vals = codes[esc_mask]
        escapes = encode_fixed(
            np.where(esc_vals >= 0, 2 * esc_vals, -2 * esc_vals - 1).astype(np.uint64)
        )
        if esc_mask is not None and esc_mask.any():
            codes = np.where(esc_mask, esc, codes)
    else:
        # unbounded-alphabet coders take the signed stream as-is: no window,
        # no escapes (zigzag of an empty stream is the empty escape block)
        offset = 0
        codes = indices
        escapes = encode_fixed(np.empty(0, np.uint64))
    with stage("huffman"):
        coded = coder.forward(_FRAMING_CTX, codes)
    with stage("lossless"):
        payload = lossless_compress(coded, backend)
    add_bytes("huffman", len(coded))
    add_bytes("lossless", len(payload))
    return (
        struct.pack("<BqQ", coder.wire_id, offset, len(payload))
        + payload
        + lossless_compress(escapes, backend)
    )


def decode_index_stream(data: bytes) -> np.ndarray:
    return decode_index_streams([data])[0]


def decode_index_streams(datas: "list[bytes]") -> "list[np.ndarray]":
    """Decode several index streams, batching the Huffman stage.

    All Huffman-coded members are decoded in one joint lockstep loop
    (:meth:`HuffmanCodec.decode_many`), so the Python-level decode cost is
    paid once for the whole batch — the hot path for slab-parallel
    containers, where N short streams would otherwise cost far more than
    one long one.  Validation and output match ``decode_index_stream``
    applied per stream.
    """
    from ..codecs.fixed import decode_fixed

    head = struct.calcsize("<BqQ")
    parsed = []
    for data in datas:
        if len(data) < head:
            raise TruncatedStreamError(
                f"index stream header needs {head} bytes, have {len(data)}"
            )
        entropy_id, offset, plen = struct.unpack_from("<BqQ", data, 0)
        if head + plen > len(data):
            raise TruncatedStreamError(
                f"index stream declares {plen} payload bytes, only "
                f"{len(data) - head} present"
            )
        parsed.append((entropy_id, offset, plen, data))
    with stage("lossless"):
        payloads = [
            lossless_decompress(data[head:head + plen])
            for (_, _, plen, data) in parsed
        ]
    for (_, _, plen, _) in parsed:
        add_bytes("lossless", plen)
    codes_list: "list[np.ndarray | None]" = [None] * len(parsed)
    with stage("huffman"):
        # group by wire id and hand each group to its stage's batched decode
        # (Huffman runs one joint lockstep loop over its whole group)
        by_wire_id: dict[int, list[int]] = {}
        for i, (eid, _, _, _) in enumerate(parsed):
            by_wire_id.setdefault(eid, []).append(i)
        for eid, members in by_wire_id.items():
            coder = entropy_stage_for_wire_id(eid)
            decoded = coder.decode_many([payloads[i] for i in members])
            for i, codes in zip(members, decoded):
                codes_list[i] = codes
    for payload in payloads:
        add_bytes("huffman", len(payload))
    out = []
    esc = _STREAM_ALPHABET_CAP - 1
    for (eid, offset, plen, data), codes in zip(parsed, codes_list):
        escapes = decode_fixed(lossless_decompress(data[head + plen:]))
        esc_mask = codes == esc
        if int(esc_mask.sum()) != escapes.size:
            raise CorruptBlobError("index stream escape count mismatch")
        if escapes.size:
            u = escapes.astype(np.int64)
            codes[esc_mask] = np.where(u % 2 == 0, u // 2, -(u + 1) // 2)
        out.append(codes + offset)
    return out
