"""Compressor registry: name-based construction and blob dispatch.

The registry is a *view over the pipeline registrations*
(:mod:`repro.pipeline.builders`): the listed names, their order, the
implementation classes, and the capability queries are all derived from
the registered :class:`~repro.pipeline.spec.PipelineSpec` builders, so a
compressor cannot be registered without declaring its stage chain — and
the listings below can never drift from it.
"""
from __future__ import annotations

from importlib import import_module
from typing import Any

import numpy as np

from ..pipeline import pipeline, pipeline_spec, registered_pipelines
from .base import Blob, Compressor

__all__ = [
    "COMPRESSORS",
    "get_compressor",
    "decompress_any",
    "decompress_many",
    "available_compressors",
    "supports_qp",
    "traits_table",
]


def _resolve_class(name: str) -> type[Compressor]:
    """Import the implementation class from the pipeline's ``cls_path``."""
    module_name, _, cls_name = pipeline(name).cls_path.partition(":")
    return getattr(import_module(module_name), cls_name)


#: every registered compressor, in pipeline registration order
COMPRESSORS = registered_pipelines()
#: the four interpolation-based compressors QP integrates with — i.e. the
#: pipelines whose spec starts from the interpolation prediction stage
INTERP_COMPRESSORS = tuple(
    name for name in COMPRESSORS if pipeline_spec(name).has_stage("interp_predict")
)


def available_compressors() -> tuple[str, ...]:
    return registered_pipelines()


def _lookup(name: str) -> type[Compressor]:
    """Resolve a registry name to its class — the single place the
    unknown-name error is raised, shared by every registry entry point."""
    reg = registered_pipelines()
    if name not in reg:
        raise KeyError(f"unknown compressor {name!r}; available: {tuple(reg)}")
    return _resolve_class(name)


def supports_qp(name: str) -> bool:
    """Whether the named compressor honors a ``qp=`` config.

    Spec introspection — "does the registered pipeline contain a ``qp``
    stage?" — so wrappers (parallel slabs, temporal, QoI) route QP by what
    the pipeline declares instead of keeping hardcoded name lists in sync.
    """
    _lookup(name)  # keep the unknown-name contract
    return pipeline_spec(name).has_stage("qp")


def constructor_accepts(name: str, param: str) -> bool:
    """Whether the named compressor's constructor accepts ``param``.

    Lets wrappers (e.g. the parallel slab compressor) offer tuning kwargs
    only to bases that understand them, without hardcoded name lists.
    """
    import inspect

    return param in inspect.signature(_lookup(name).__init__).parameters


def get_compressor(name: str, error_bound: float, **kwargs: Any) -> Compressor:
    """Construct a compressor by registry name."""
    return _lookup(name)(error_bound, **kwargs)


def _dispatch_key(blob: bytes) -> tuple[str, float]:
    """Validated ``(compressor, error_bound)`` from a blob header.

    A tampered header — unknown compressor name, missing or non-numeric
    error bound — raises :class:`~repro.errors.CorruptBlobError` rather
    than ``KeyError``/``TypeError``, so archive readers can treat every
    bad-bytes failure uniformly.
    """
    from ..errors import CorruptBlobError

    b = Blob.from_bytes(blob)
    name = b.header.get("compressor")
    if name not in registered_pipelines():
        raise CorruptBlobError(f"blob names unknown compressor {name!r}")
    eb = b.header.get("error_bound")
    if not isinstance(eb, (int, float)) or not eb > 0:
        raise CorruptBlobError(f"blob has invalid error bound {eb!r}")
    return name, float(eb)


def decompress_any(blob: bytes) -> np.ndarray:
    """Decompress any repro blob (v0 or sealed v1) by header dispatch.

    The blob is self-describing: the decoder reads every setting it needs
    (entropy stage, Huffman block size, lossless framing, predictor) from
    the blob itself.  Header validation matches :func:`_dispatch_key`:
    tampered headers raise :class:`~repro.errors.CorruptBlobError`.
    """
    name, eb = _dispatch_key(blob)
    return get_compressor(name, eb).decompress(blob)


def decompress_many(blobs: "list[bytes]") -> "list[np.ndarray]":
    """Batched :func:`decompress_any` — same validation and output, but
    runs of consecutive blobs sharing one (compressor, error bound) go
    through ``Compressor.decompress_many``, which stacks the per-pass
    decode stages of equal slabs."""
    keys = [_dispatch_key(blob) for blob in blobs]
    out: "list[np.ndarray]" = []
    i = 0
    while i < len(blobs):
        j = i
        while j < len(blobs) and keys[j] == keys[i]:
            j += 1
        out.extend(get_compressor(*keys[i]).decompress_many(blobs[i:j]))
        i = j
    return out


def traits_table() -> list[dict[str, Any]]:
    """Qualitative characteristics of the compressors (paper Table I)."""
    rows = []
    for name in INTERP_COMPRESSORS:
        traits = _resolve_class(name).traits
        if not traits:
            continue  # re-framed variants (sz3_progressive) share a row above
        row = {"compressor": name.upper()}
        row.update(traits)
        rows.append(row)
    return rows
