"""Spec-driven decode helpers shared by the interpolation compressors.

``spec_for_blob`` turns a parsed container header back into the
:class:`~repro.pipeline.spec.PipelineSpec` that produced it (the header
fields are the spec's canonical on-disk encoding — see
:mod:`repro.pipeline.spec`), so decoders dispatch by walking the spec's
stage ids instead of chains of per-compressor ``if`` tests.

``decode_engine_blob`` / ``engine_decode_item`` collapse the
literals/anchors section unpacking that SZ3, HPEZ and MGARD each used to
reimplement around :func:`~repro.compressors.interp_engine.decompress_volume`.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import decompress as lossless_decompress
from ..utils.levels import anchor_slices
from .builders import pipeline
from .spec import PipelineSpec, StageSpec
from .stages import entropy_stage_for_wire_id

__all__ = [
    "spec_for_blob",
    "encode_engine_sections",
    "decode_engine_blob",
    "engine_decode_item",
]


def encode_engine_sections(
    stream: np.ndarray,
    literals: np.ndarray,
    anchors: np.ndarray,
    *,
    lossless_backend: str,
    entropy: str = "huffman",
    block_size: int | None = None,
) -> dict[str, bytes]:
    """Encode ``compress_volume`` output into the canonical engine blob
    sections (the inverse of :func:`_engine_sections`).

    One encode point shared by the in-memory ``_compress`` paths of SZ3,
    HPEZ and MGARD and by the streaming entropy stage
    (``Compressor._stream_entropy``), which is what makes streamed
    segments byte-identical to in-memory blobs.
    """
    from ..codecs import compress as lossless_compress
    from ..compressors.base import encode_index_stream

    return {
        "indices": encode_index_stream(
            stream, lossless_backend, entropy=entropy, block_size=block_size
        ),
        "literals": lossless_compress(literals.tobytes(), lossless_backend),
        "anchors": anchors.tobytes(),
    }


def spec_for_blob(
    header: dict[str, Any], sections: dict[str, bytes] | None = None
) -> PipelineSpec:
    """Derive the pipeline spec a blob was produced with from its header.

    The header's ``compressor`` name selects the registered pipeline and
    its ``derive`` hook maps the remaining fields (``predictor``,
    ``mode``, the engine meta's ``qp`` dict) onto stage params.  When
    ``sections`` are given, the entropy stage is refined from the wire id
    byte leading the index stream — the one spec datum that lives in a
    section rather than the header; an unknown or retired byte raises
    :class:`~repro.errors.CorruptBlobError`, as decode would.
    """
    name = header.get("compressor")
    spec = pipeline(name).derive(header)
    if sections:
        keys = ["indices", "coeffs", "core"]
        # progressive blobs split the index stream per level; every level
        # uses the same entropy stage, so the first section is authoritative
        keys[:0] = (k for k in sections if k.startswith("indices:"))
        for key in keys:
            data = sections.get(key)
            if data:
                cls = entropy_stage_for_wire_id(data[0])
                if not spec.has_stage(cls.stage_id):
                    spec = _swap_entropy_stage(spec, cls.stage_id)
                break
    return spec


def _swap_entropy_stage(spec: PipelineSpec, stage_id: str) -> PipelineSpec:
    from .stages import ENTROPY_STAGES

    entropy_ids = {cls.stage_id for cls in ENTROPY_STAGES.values()}
    stages = tuple(
        StageSpec(stage_id, dict(s.params)) if s.stage in entropy_ids else s
        for s in spec.stages
    )
    return PipelineSpec(spec.name, stages)


# -- shared engine-blob decode ------------------------------------------------


def _engine_sections(
    blob: Any, stream: "np.ndarray | None"
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.dtype]:
    """Unpack an engine-produced blob's sections into
    ``(meta, stream, literals, anchors, shape, dtype)``."""
    from ..compressors.base import decode_index_stream

    header = blob.header
    shape = tuple(header["shape"])
    dtype = np.dtype(header["dtype"])
    if stream is None:
        stream = decode_index_stream(blob.sections["indices"])
    literals = np.frombuffer(
        lossless_decompress(blob.sections["literals"]), dtype=dtype
    )
    a_shape = tuple(
        len(range(*sl.indices(n))) for sl, n in zip(anchor_slices(shape), shape)
    )
    anchors = np.frombuffer(blob.sections["anchors"], dtype=dtype).reshape(a_shape)
    return header["engine"], stream, literals, anchors, shape, dtype


def decode_engine_blob(
    blob: Any,
    stream: "np.ndarray | None" = None,
    stop_level: int = 0,
) -> np.ndarray:
    """Decode a blob whose payload came from ``compress_volume``.

    ``stream`` may carry an already entropy-decoded index stream (the
    batched path decodes all streams jointly first); ``stop_level``
    truncates the schedule for resolution reduction (MGARD).
    """
    from ..compressors.interp_engine import decompress_volume

    meta, stream, literals, anchors, shape, dtype = _engine_sections(blob, stream)
    return decompress_volume(
        meta, stream, literals, anchors, shape, dtype,
        blob.header["error_bound"], stop_level=stop_level,
    )


def engine_decode_item(
    blob: Any, stream: np.ndarray
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.dtype, float]:
    """One ``decompress_volumes`` work item from a parsed blob + its
    pre-decoded index stream."""
    meta, stream, literals, anchors, shape, dtype = _engine_sections(blob, stream)
    return (
        meta, stream, literals, anchors, shape, dtype,
        blob.header["error_bound"],
    )
