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

import contextlib
import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..codecs import (
    HuffmanCodec,
    RangeCodec,
    compress as lossless_compress,
    decompress as lossless_decompress,
)
from ..codecs.huffman import IndexWindow
from ..errors import CorruptBlobError, ReproError, TruncatedStreamError
from ..io.integrity import is_sealed, seal, unseal
from ..obs import add_bytes, span as stage
from ..utils.validation import check_error_bound, check_ndarray

__all__ = [
    "Blob",
    "Codec",
    "Compressor",
    "CompressionState",
    "encode_index_stream",
    "decode_index_stream",
]

_MAGIC = b"RPRC"

#: exception types a corrupted byte stream can surface from the decode stack
#: before the strict validators catch it; :func:`_typed_faults` converts
#: these to :class:`~repro.errors.CorruptBlobError` so callers see one typed
#: family
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


@contextlib.contextmanager
def _typed_faults(name: str):
    """Raise the :data:`_DECODE_FAULTS` of the block as
    :class:`~repro.errors.CorruptBlobError`: the wrapper every public
    decode entry point (``decompress``, ``decompress_many``, MGARD's
    ``decompress_resolution``, the progressive previews) runs its decode
    in."""
    try:
        yield
    except ReproError:
        raise
    except _DECODE_FAULTS as exc:
        raise CorruptBlobError(
            f"{name} blob failed to decode: {type(exc).__name__}: {exc}"
        ) from exc


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
      encoding) for this call on codecs that support adaptive
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
    ``extras``        free-form per-compressor diagnostics; the engine
                      compressors add ``index_volume_qp`` (the index after
                      QP) and, outside HPEZ's block mode, ``pass_levels``
                      (the level that coded each point).

    Filled only when a caller passes one to ``Compressor.compress(data,
    state=...)`` — the ``characterize`` CLI, the Figure 3-5 benchmarks and
    tests: the compressor fills it during that one call.  The engine
    (:func:`~repro.compressors.interp_engine.compress_volumes`, the blob's
    volume as a stack of one) allocates the volumes only then, and
    scatters them after its pass loop from its per-pass views of the
    index stream, inverting the index transforms for ``index_volume``.
    The auto-tuners' trial runs pass none.
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
    except (TypeError, ValueError, SyntaxError) as exc:
        # numpy parses a comma in a dtype string with ast.literal_eval
        raise CorruptBlobError(f"blob header has invalid dtype: {exc}") from None
    if dtype.kind not in "fiu":
        raise CorruptBlobError(f"blob header dtype {dtype} is not numeric")
    return tuple(shape), dtype


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
    #: Huffman block size for the index-stream entropy coder; ``None`` keeps
    #: the codec default.  It is written into each container header (decode
    #: reads it from there), so it sets container bytes: the slab-parallel
    #: wrapper's smaller value (``parallel.SLAB_HUFFMAN_BLOCK``) stays for
    #: that reason
    huffman_block_size: int | None = None
    #: entropy coder for the index streams — any key of
    #: :data:`ENTROPY_WIRE_IDS` ("huffman", "range").
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

    def __init__(self, error_bound: float) -> None:
        self.error_bound = check_error_bound(error_bound)

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
        constructor argument); compressors whose constructor takes no
        ``adaptive`` raise ``ValueError``.  All knobs are
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
            header.setdefault("compressor", self.name)
            header["dtype"] = data.dtype.str
            header["shape"] = list(data.shape)
            header["error_bound"] = self.error_bound
            out = Blob(header, sections).to_bytes(checksum=checksum)
            sp.label(bytes_in=data.nbytes, bytes_out=len(out))
        return out

    def decompress(self, blob: bytes) -> np.ndarray:
        b, shape, dtype = self._parse_own_blob(blob)
        sp = stage("decompress", compressor=self.name)
        with sp:
            with _typed_faults(self.name):
                out = self._decompress(b)
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
            raise CorruptBlobError(
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
        """Decompress several blobs; output is identical to
        ``[self.decompress(b) for b in blobs]``.

        Subclasses may override ``_decompress_many`` to decode blobs of one
        geometry as a stack (SZ3 decodes their index streams into one
        buffer and inverts it in place through
        :func:`~repro.compressors.interp_engine.decompress_volumes`) — the
        slab-parallel and gateway batch decode path.  Streamed containers
        decode one segment per job through :meth:`decompress` instead.
        """
        parsed = [self._parse_own_blob(blob) for blob in blobs]
        with stage("decompress", compressor=self.name, batch=len(blobs)):
            with _typed_faults(self.name):
                outs = self._decompress_many([b for b, _, _ in parsed])
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
        checksum: bool = False,
    ):
        """Compress ``data`` (array or ``np.memmap``) into ``sink`` slab by
        slab with bounded memory.

        The volume is walked along the leading axis in ~``slab_bytes``
        tiles, each one :meth:`compress` job on the worker threads of
        :func:`~repro.streaming.stream_compress`; finished segments are
        flushed to ``sink`` in slab order through a
        :class:`~repro.io.container.ContainerWriter`.  Every segment is
        byte-identical to ``compress(data[slab], checksum=checksum)``.
        Returns a :class:`~repro.streaming.StreamResult`.
        """
        from ..streaming import stream_compress

        return stream_compress(
            self, data, sink, slab_bytes=slab_bytes, checksum=checksum
        )

    def decompress_stream(self, source: Any) -> np.ndarray:
        """Decode a streamed container (bytes, path, or seekable file)
        written by :meth:`compress_stream` back into one array.

        Each segment decodes through :meth:`decompress` as its own job on
        the worker threads of :func:`~repro.streaming.stream_decompress`.
        """
        from ..streaming import stream_decompress

        return stream_decompress(source, compressor=self)

    # -- subclass hooks -------------------------------------------------------

    def _with_adaptive(self, adaptive: Any) -> "Compressor":
        """Clone this compressor with ``adaptive`` applied (per-call knob).

        Only compressors whose constructor takes ``adaptive`` can honor the
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


#: the index-stream entropy coders by name, each with the wire byte that
#: leads its streams and on which decode dispatches
ENTROPY_WIRE_IDS = {"huffman": 0, "range": 1}

#: wire byte of the retired static rANS coder: an index stream led by it
#: fails with a migration hint rather than as an unknown byte
_RANS_WIRE_ID = 2


def _zigzag(values: np.ndarray) -> np.ndarray:
    """int64 -> uint64, small magnitudes to small codes: ``2v`` for
    ``v >= 0``, ``-2v - 1`` below (modulo 2**64)."""
    return np.where(values >= 0, 2 * values, -2 * values - 1).astype(np.uint64)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`_zigzag` on the int64 bit patterns of its codes."""
    u = codes.view(np.uint64)
    return ((u >> 1) ^ -(u & 1)).view(np.int64)


def encode_index_stream(
    indices: np.ndarray,
    entropy: str = "huffman",
    block_size: int | None = None,
) -> bytes:
    """Entropy stage shared by the SZ-family ports: offset-shift the signed
    index stream to non-negative codes, entropy-code, then apply the
    lossless stage (the paper's Huffman + ZSTD pipeline; ``entropy="range"``
    selects the adaptive range coder, mirroring SZ3's arithmetic option).

    Codes beyond a 2^16 alphabet (possible for extreme outlier indices) are
    replaced by an escape symbol and stored fixed-width on the side — the
    same alphabet cap real SZ applies via its quantizer capacity — so the
    Huffman frequency table stays bounded regardless of the value range.

    ``block_size`` overrides the Huffman codec's block length; it is stored
    in the container header, so decoders adapt automatically.

    The window is centred on the stream's median, so heavy-tailed streams
    keep their bulk in the alphabet and only genuine outliers escape (two
    sided, zigzag fixed-width).  :meth:`HuffmanCodec.encode` chooses the
    window and codes the stream through it
    (:class:`~repro.codecs.huffman.IndexWindow`); where the C kernels load
    that takes one histogram of the stream and no pass here.  A stream
    whose median lies within 32767 of the int64 minimum cannot be
    windowed and raises ``ValueError``.
    """
    from ..codecs.fixed import encode_fixed

    if entropy not in ENTROPY_WIRE_IDS:
        raise ValueError(f"entropy must be one of {tuple(ENTROPY_WIRE_IDS)}")
    indices = np.ascontiguousarray(indices).ravel().astype(np.int64, copy=False)
    if entropy == "huffman":
        coder = HuffmanCodec(block_size) if block_size else HuffmanCodec()
        window = IndexWindow()
        with stage("huffman"):
            coded = coder.encode(indices, window=window)
        offset, esc_vals = window.offset, window.escaped
    else:
        # the range coder takes the signed stream as-is: no window, no
        # escapes (zigzag of an empty stream is the empty escape block)
        with stage("huffman"):
            coded = RangeCodec().encode(indices)
        offset, esc_vals = 0, np.empty(0, dtype=np.int64)
    with stage("lossless"):
        payload = lossless_compress(coded)
    add_bytes("huffman", len(coded))
    add_bytes("lossless", len(payload))
    return (
        struct.pack("<BqQ", ENTROPY_WIRE_IDS[entropy], offset, len(payload))
        + payload
        + lossless_compress(encode_fixed(_zigzag(esc_vals)))
    )


def _decode_escapes(section: bytes) -> np.ndarray:
    """The escaped values' codes of an index stream, in stream order."""
    from ..codecs.fixed import decode_fixed

    return _unzigzag(decode_fixed(lossless_decompress(section)))


def decode_index_stream(data: bytes, out: "np.ndarray | None" = None) -> np.ndarray:
    """Invert :func:`encode_index_stream`: undo the lossless stage,
    decode the codes with the entropy coder the leading wire byte names,
    and put the escaped outliers back.

    With ``out`` (a writable C-contiguous int64 array, e.g. one row of a
    stacked decode's index buffer) the codes decode straight into it; a
    stream of another length raises
    :class:`~repro.errors.CorruptBlobError` before anything is written.
    A Huffman stream's escapes section is read first: the decode adds the
    offset and puts the escaped values back as it writes the symbols
    (:class:`~repro.codecs.huffman.IndexWindow`), so no pass over the
    stream is made here.
    """
    head = struct.calcsize("<BqQ")
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
    with stage("lossless"):
        payload = lossless_decompress(data[head:head + plen])
    add_bytes("lossless", plen)
    huffman = entropy_id == ENTROPY_WIRE_IDS["huffman"]
    if huffman:
        try:
            escaped = _decode_escapes(data[head + plen:])
        except ReproError:
            # a stream damaged in both sections raises its payload's error,
            # as it did when the payload decoded before the escapes
            HuffmanCodec().decode(payload, out)
            raise
    with stage("huffman"):
        if huffman:
            # the container header carries its own block size
            codes = HuffmanCodec().decode(
                payload, out, window=IndexWindow(offset, escaped)
            )
        elif entropy_id == ENTROPY_WIRE_IDS["range"]:
            codes = RangeCodec().decode(payload)
            if out is not None:
                if codes.size != out.size:
                    raise CorruptBlobError(
                        f"range stream holds {codes.size} symbols, "
                        f"{out.size} expected"
                    )
                out[...] = codes
                codes = out
        elif entropy_id == _RANS_WIRE_ID:
            raise CorruptBlobError(
                f"index stream uses the retired rANS entropy coder (wire id "
                f"{entropy_id}); decode it with an earlier release and re-compress"
            )
        else:
            raise CorruptBlobError(f"unknown entropy stage id {entropy_id}")
    add_bytes("huffman", len(payload))
    if not huffman:
        # the range coder writes no escapes: its 65535 is an index
        if _decode_escapes(data[head + plen:]).size:
            raise CorruptBlobError("index stream escape count mismatch")
        if offset:
            np.add(codes, offset, out=codes)
    return codes
