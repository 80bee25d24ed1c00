"""Compressor registry: name-based construction and blob dispatch.

:data:`_CLASSES` is the one table of compressors: each registry name maps
to the ``module:Class`` that implements it, in listing order.  The
implementation modules import lazily, on the first construction.
"""
from __future__ import annotations

from importlib import import_module
from typing import Any

import numpy as np

from ..core.config import AdaptiveConfig, QPConfig
from ..errors import CorruptBlobError, ReproError
from .base import Blob, Compressor, _validated_geometry

__all__ = [
    "COMPRESSORS",
    "get_compressor",
    "base_compressor",
    "decompress_any",
    "decompress_many",
    "available_compressors",
    "supports_qp",
    "traits_table",
]

#: registry name -> implementing ``module:Class`` (relative to this package)
_CLASSES = {
    "mgard": ".mgard:MGARD",
    "sz3": ".sz3:SZ3",
    "qoz": ".qoz:QoZ",
    "hpez": ".hpez:HPEZ",
    "zfp": ".zfp:ZFP",
    "tthresh": ".tthresh:TTHRESH",
    "sperr": ".sperr:SPERR",
    "sz3_progressive": ".progressive:SZ3Progressive",
}

#: every registered compressor, in listing order
COMPRESSORS = tuple(_CLASSES)
#: the interpolation-based compressors QP integrates with (Algorithm 1)
INTERP_COMPRESSORS = ("mgard", "sz3", "qoz", "hpez", "sz3_progressive")


def available_compressors() -> tuple[str, ...]:
    return COMPRESSORS


def _lookup(name: str) -> type[Compressor]:
    """Resolve a registry name to its class — the single place the
    unknown-name error is raised, shared by every registry entry point."""
    if name not in COMPRESSORS:  # a tuple: unhashable names are unknown too
        raise KeyError(f"unknown compressor {name!r}; available: {COMPRESSORS}")
    module_name, _, cls_name = _CLASSES[name].partition(":")
    return getattr(import_module(module_name, __package__), cls_name)


def supports_qp(name: str) -> bool:
    """Whether the named compressor honors a ``qp=`` config: its
    constructor takes one."""
    return constructor_accepts(name, "qp")


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


def base_compressor(
    name: str,
    error_bound: float,
    *,
    qp: QPConfig | None = None,
    adaptive: AdaptiveConfig | dict | None = None,
    **kwargs: Any,
) -> Compressor:
    """The base compressor of a wrapper, the gateway, the CLI or a sweep,
    under the one ``qp``/``adaptive`` policy they all share.

    ``qp`` reaches every base whose constructor takes one; on any other
    base ``None`` or a disabled config is dropped and an enabled one
    raises ``ValueError``, so no "+QP" result is measured without QP.
    ``adaptive`` raises ``ValueError`` on a base whose constructor takes
    none.  Other ``kwargs`` go to the constructor unchanged.
    """
    if adaptive is not None:
        if not constructor_accepts(name, "adaptive"):
            raise ValueError(
                f"compressor {name!r} does not support adaptive "
                "quantization; drop the adaptive= argument"
            )
        kwargs["adaptive"] = adaptive
    if supports_qp(name):
        if qp is not None:
            kwargs["qp"] = qp
    elif qp is not None and qp.enabled:
        raise ValueError(
            f"compressor {name!r} does not support quantization index "
            "prediction; drop the qp argument or pick one of the "
            "prediction+quantization bases"
        )
    return get_compressor(name, error_bound, **kwargs)


def _dispatch_key(blob: bytes) -> tuple[str, float, "np.dtype | None"]:
    """Validated ``(compressor, error_bound, pw_rel dtype)`` from a blob
    header; the dtype is ``None`` except on a PW_REL blob, whose decoded
    ``log(data)`` is returned as ``exp`` in that dtype.

    A tampered header — unknown compressor name, missing or non-numeric
    error bound, unreadable ``pw_rel_dtype`` — raises
    :class:`~repro.errors.CorruptBlobError` rather than
    ``KeyError``/``TypeError``, so archive readers can treat every
    bad-bytes failure uniformly.
    """
    b = Blob.from_bytes(blob)
    name = b.header.get("compressor")
    if name not in COMPRESSORS:
        raise CorruptBlobError(f"blob names unknown compressor {name!r}")
    eb = b.header.get("error_bound")
    if not isinstance(eb, (int, float)) or not eb > 0:
        raise CorruptBlobError(f"blob has invalid error bound {eb!r}")
    # every header fault surfaces here, before the run this blob joins
    # decodes, so decompress_many raises faults in blob order
    _validated_geometry(b.header)
    if "pw_rel" not in b.header:
        return name, float(eb), None
    raw = b.header.get("pw_rel_dtype")
    try:
        pw_dtype = np.dtype(raw) if isinstance(raw, str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy may literal_eval it
        pw_dtype = None
    if pw_dtype is None or pw_dtype.kind not in "fiu":
        raise CorruptBlobError(f"blob has invalid pw_rel_dtype {raw!r}")
    return name, float(eb), pw_dtype


def _pw_rel_data(logs: np.ndarray, dtype: np.dtype, eb: float) -> np.ndarray:
    """``exp`` of a PW_REL blob's decoded ``log(data)``, in the data's
    dtype.  Real data decodes to finite logs within ``eb`` of the data's,
    which the dtype holds; anything else is a corrupt payload.  Values
    past the dtype's maximum (data within ``eb`` of it) clip to it, which
    only moves them closer to the data."""
    info = np.finfo(dtype) if dtype.kind == "f" else np.iinfo(dtype)
    if logs.size and not (
        np.isfinite(logs).all() and logs.max() <= np.log(info.max) + eb
    ):
        raise CorruptBlobError(
            f"PW_REL payload decodes to log values outside what {dtype} holds"
        )
    return np.minimum(np.exp(logs), info.max).astype(dtype)


def _decode_run(key: tuple, blobs: "list[bytes]") -> "list[np.ndarray]":
    """Decode blobs sharing one dispatch key as one batch."""
    name, eb, pw_dtype = key
    outs = get_compressor(name, eb).decompress_many(blobs)
    if pw_dtype is None:
        return outs
    return [_pw_rel_data(out, pw_dtype, eb) for out in outs]


def decompress_any(blob: bytes) -> np.ndarray:
    """Decompress any repro blob (v0 or sealed v1) by header dispatch.

    The blob is self-describing: the decoder reads every setting it needs
    (entropy stage, Huffman block size, lossless framing, predictor) from
    the blob itself.  Header validation matches :func:`_dispatch_key`:
    tampered headers raise :class:`~repro.errors.CorruptBlobError`.  A
    PW_REL blob decodes back to the data, in the data's dtype.
    """
    name, eb, pw_dtype = _dispatch_key(blob)
    out = get_compressor(name, eb).decompress(blob)
    return out if pw_dtype is None else _pw_rel_data(out, pw_dtype, eb)


def decompress_many(blobs: "list[bytes]") -> "list[np.ndarray]":
    """Batched :func:`decompress_any` — same validation and output, but
    runs of consecutive blobs sharing one dispatch key go through
    ``Compressor.decompress_many``, which stacks the per-pass decode
    stages of equal slabs.  A run decodes before a bad header after it
    is raised, so an earlier blob's payload fault comes first."""
    out: "list[np.ndarray]" = []
    run: "list[bytes]" = []
    key = None
    for blob in blobs:
        try:
            next_key = _dispatch_key(blob)
        except ReproError:
            if run:  # the earlier blobs' faults come first
                _decode_run(key, run)
            raise
        if run and next_key != key:
            out.extend(_decode_run(key, run))
            run = []
        key = next_key
        run.append(blob)
    if run:
        out.extend(_decode_run(key, run))
    return out


def traits_table() -> list[dict[str, Any]]:
    """Qualitative characteristics of the compressors (paper Table I)."""
    rows = []
    for name in INTERP_COMPRESSORS:
        traits = _lookup(name).traits
        if not traits:
            continue  # re-framed variants (sz3_progressive) share a row above
        row = {"compressor": name.upper()}
        row.update(traits)
        rows.append(row)
    return rows
