#!/usr/bin/env python
"""API-surface lint: every compressor must satisfy the ``Codec`` protocol.

The :class:`repro.compressors.Codec` protocol pins the unified surface

    name: str
    compress(data, *, checksum=False, auto=False, adaptive=None) -> bytes
    decompress(blob) -> np.ndarray

``isinstance`` against a ``runtime_checkable`` Protocol only proves the
attributes *exist*; this lint additionally inspects the signatures so a
conforming-by-name but incompatible-by-shape implementation (a positional
``checksum``, a required extra argument, a missing keyword) fails loudly in
CI instead of at a call site.

Checked objects: one instance of every registered compressor
(``repro.compressors.COMPRESSORS``) plus the wrapper compressors
(parallel / temporal / pointwise-relative / QoI-preserving).

The lint also holds every *registered pipeline* to the stage-pipeline
contract (:func:`check_pipeline`): every stage id resolves to a registered
stage type, every stage builds from its spec params and exposes the
``forward``/``inverse`` pair, the explicit ``to_header``/``from_header``
encoding round-trips and enforces the version-bump rule (an unknown
version is a typed :class:`~repro.errors.VersionError`, never a silent
parse), the ``cls_path`` resolves to a class whose ``name`` matches the
registration, and the registry's ``supports_qp`` answer agrees with the
spec.

Run directly (``python tools/check_api.py``, exit 0/1) or through the test
suite (``tests/test_codec_api.py`` imports :func:`check_all`).
"""
from __future__ import annotations

import inspect
import sys
from typing import Any

sys.path.insert(0, "src")


def _candidates() -> dict[str, Any]:
    """name -> instance for every object the lint holds to the Codec bar."""
    from repro.compressors import COMPRESSORS, get_compressor
    from repro.modes import PointwiseRelativeCompressor
    from repro.parallel import ParallelCompressor
    from repro.qoi import QoIPreservingCompressor, SquareQoI
    from repro.temporal import TemporalCompressor

    out: dict[str, Any] = {
        name: get_compressor(name, 1e-3) for name in COMPRESSORS
    }
    out["parallel[sz3]"] = ParallelCompressor("sz3", 1e-3)
    out["temporal"] = TemporalCompressor("sz3", 1e-3)
    out["pw_rel"] = PointwiseRelativeCompressor("sz3", 1e-3)
    out["qoi[sz3]"] = QoIPreservingCompressor("sz3", SquareQoI(), tau=1e-3)
    return out


def check_codec(obj: Any) -> list[str]:
    """Return the list of Codec-protocol violations for ``obj`` (empty = ok)."""
    from repro.compressors import Codec

    problems: list[str] = []
    if not isinstance(obj, Codec):
        missing = [a for a in ("name", "compress", "decompress") if not hasattr(obj, a)]
        problems.append(f"does not satisfy Codec (missing: {missing})")
        return problems

    if not isinstance(obj.name, str) or not obj.name:
        problems.append(f"name must be a non-empty str, got {obj.name!r}")

    problems += _check_compress_sig(obj)
    problems += _check_decompress_sig(obj)
    return problems


def _check_compress_sig(obj: Any) -> list[str]:
    problems: list[str] = []
    try:
        sig = inspect.signature(obj.compress)
    except (TypeError, ValueError):
        return ["compress: signature not introspectable"]
    params = list(sig.parameters.values())
    if not params or params[0].kind not in (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    ):
        problems.append("compress: first parameter must accept data positionally")
        return problems
    # the uniform knob set: same names, same kinds, same defaults everywhere
    for knob, default in (("checksum", False), ("auto", False), ("adaptive", None)):
        p = sig.parameters.get(knob)
        if p is None:
            problems.append(f"compress: missing keyword-only {knob!r} parameter")
            continue
        if p.kind is not inspect.Parameter.KEYWORD_ONLY:
            problems.append(f"compress: {knob!r} must be keyword-only")
        if p.default is not default:
            problems.append(
                f"compress: {knob!r} must default to {default!r}, got {p.default!r}"
            )
    for p in params[1:]:
        if p.kind in (inspect.Parameter.VAR_KEYWORD, inspect.Parameter.VAR_POSITIONAL):
            continue
        if p.kind is not inspect.Parameter.KEYWORD_ONLY:
            problems.append(
                f"compress: extra parameter {p.name!r} must be keyword-only"
            )
        if p.default is inspect.Parameter.empty:
            problems.append(f"compress: extra parameter {p.name!r} must have a default")
    return problems


def _check_decompress_sig(obj: Any) -> list[str]:
    problems: list[str] = []
    try:
        sig = inspect.signature(obj.decompress)
    except (TypeError, ValueError):
        return ["decompress: signature not introspectable"]
    params = list(sig.parameters.values())
    if not params or params[0].kind not in (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    ):
        problems.append("decompress: first parameter must accept the blob positionally")
        return problems
    for p in params[1:]:
        if p.kind in (inspect.Parameter.VAR_KEYWORD, inspect.Parameter.VAR_POSITIONAL):
            continue
        if p.default is inspect.Parameter.empty:
            problems.append(
                f"decompress: extra parameter {p.name!r} must have a default"
            )
    return problems


def check_pipeline(name: str) -> list[str]:
    """Return the stage-pipeline-contract violations for a registered
    pipeline (empty = ok)."""
    from repro.compressors import supports_qp
    from repro.errors import PipelineSpecError, UnknownStageError, VersionError
    from repro.pipeline import PipelineSpec, pipeline, pipeline_spec, resolve_stage
    from repro.pipeline.spec import SPEC_HEADER_VERSION

    problems: list[str] = []
    try:
        spec = pipeline_spec(name)
    except Exception as exc:  # noqa: BLE001 - lint reports, never crashes
        return [f"spec builder failed: {exc!r}"]

    # every stage id resolvable, every stage buildable with a forward/inverse pair
    for s in spec.stages:
        try:
            resolve_stage(s.stage)
        except UnknownStageError as exc:
            problems.append(f"stage {s.stage!r} does not resolve: {exc}")
            continue
        try:
            stage = s.build()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"stage {s.stage!r} failed to build from params: {exc!r}")
            continue
        if getattr(stage, "stage_id", None) != s.stage:
            problems.append(f"stage {s.stage!r}: built object claims id "
                            f"{getattr(stage, 'stage_id', None)!r}")
        for method in ("forward", "inverse"):
            if not callable(getattr(stage, method, None)):
                problems.append(f"stage {s.stage!r}: missing callable {method!r}")

    # explicit header encoding round-trips and enforces the version-bump rule
    encoded = spec.to_header()
    try:
        if PipelineSpec.from_header(encoded) != spec:
            problems.append("to_header/from_header round-trip changed the spec")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"from_header rejected its own encoding: {exc!r}")
    bumped = dict(encoded, version=SPEC_HEADER_VERSION + 1)
    try:
        PipelineSpec.from_header(bumped)
        problems.append("from_header accepted an unsupported spec version")
    except VersionError:
        pass
    try:
        PipelineSpec.from_header(dict(encoded, version="1"))
        problems.append("from_header accepted a non-integer spec version")
    except PipelineSpecError:
        pass

    # registration metadata: cls_path resolves to the matching class, and the
    # registry's capability view agrees with the spec
    try:
        module_name, _, cls_name = pipeline(name).cls_path.partition(":")
        import importlib

        cls = getattr(importlib.import_module(module_name), cls_name)
        if getattr(cls, "name", None) != name:
            problems.append(
                f"cls_path class names itself {getattr(cls, 'name', None)!r}"
            )
    except Exception as exc:  # noqa: BLE001
        problems.append(f"cls_path does not resolve: {exc!r}")
    if supports_qp(name) != spec.has_stage("qp"):
        problems.append("supports_qp() disagrees with the spec's qp stage")

    return problems


def check_adaptive_stage() -> list[str]:
    """Contract violations for the adaptive-quantize stage (empty = ok).

    Four families of checks:

    * ``AdaptiveConfig`` encoding round-trips, and malformed untrusted
      headers (out-of-range bits, non-int fields, unknown keys) raise the
      typed :class:`~repro.errors.CorruptBlobError` — never a silent parse.
    * The adaptive spec *variant* (an engine pipeline re-derived with an
      ``adaptive`` header block) swaps exactly the quantize stage id and
      still honours the version-bump rule.
    * The stage constructor validates its reserved-index parameters up
      front, so a bad header fails at build time, not mid-decode.
    * A small numeric encode/decode round-trip: the global bound holds and
      reserved-index (hard) points meet the tightened bound.
    """
    import numpy as np

    from repro.core.config import ADAPTIVE_MAX_BITS, AdaptiveConfig
    from repro.errors import CorruptBlobError, VersionError
    from repro.pipeline import PipelineSpec
    from repro.pipeline.builders import sz3_pipeline
    from repro.pipeline.spec import SPEC_HEADER_VERSION
    from repro.quantize import AdaptiveLinearQuantizer

    problems: list[str] = []

    # -- config encoding round-trip + typed rejection -------------------------
    cfg = AdaptiveConfig(bits=3, threshold=2)
    if AdaptiveConfig.from_dict(cfg.to_dict()) != cfg:
        problems.append("AdaptiveConfig to_dict/from_dict round-trip changed it")
    for bad in (
        {"bits": 0, "threshold": 4},
        {"bits": ADAPTIVE_MAX_BITS + 1, "threshold": 4},
        {"bits": 2, "threshold": 0},
        {"bits": "2", "threshold": 4},
        {"bits": 2, "threshold": 4, "mystery": 1},
        "not-a-dict",
    ):
        try:
            AdaptiveConfig.from_dict(bad)
            problems.append(f"from_dict accepted malformed header {bad!r}")
        except CorruptBlobError:
            pass

    # -- spec variant: only the quantize stage id changes, versioning holds ---
    base = sz3_pipeline()
    variant = sz3_pipeline(adaptive=cfg.to_dict())
    base_ids = [s.stage for s in base.stages]
    var_ids = [s.stage for s in variant.stages]
    swapped = [
        (a, b) for a, b in zip(base_ids, var_ids) if a != b
    ]
    if swapped != [("quantize", "adaptive_quantize")] or len(base_ids) != len(var_ids):
        problems.append(
            f"adaptive variant changed stages {swapped} (expected exactly "
            "quantize -> adaptive_quantize)"
        )
    q = variant.stage("adaptive_quantize")
    if q.params.get("adaptive_bits") != cfg.bits or q.params.get("threshold") != cfg.threshold:
        problems.append(f"adaptive stage params {q.params} do not carry the config")
    encoded = variant.to_header()
    try:
        if PipelineSpec.from_header(encoded) != variant:
            problems.append("adaptive spec to_header/from_header changed the spec")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"adaptive spec from_header rejected its encoding: {exc!r}")
    try:
        PipelineSpec.from_header(dict(encoded, version=SPEC_HEADER_VERSION + 1))
        problems.append("adaptive spec from_header accepted an unsupported version")
    except VersionError:
        pass

    # -- constructor validates reserved-index parameters up front -------------
    for kwargs in ({"bits": 0}, {"bits": ADAPTIVE_MAX_BITS + 1}, {"threshold": 0}):
        try:
            AdaptiveLinearQuantizer(1e-3, **kwargs)
            problems.append(f"AdaptiveLinearQuantizer accepted {kwargs}")
        except ValueError:
            pass

    # -- numeric round-trip: global + tightened bounds ------------------------
    rng = np.random.default_rng(7)
    values = rng.normal(size=257).astype(np.float32)
    preds = values + rng.normal(scale=2e-2, size=values.size).astype(np.float32)
    eb = 1e-3
    quant = AdaptiveLinearQuantizer(eb, bits=cfg.bits, threshold=cfg.threshold)
    res = quant.quantize(values, preds)
    recon = quant.dequantize(res.indices, preds, literals=res.literals)
    err = np.abs(recon.astype(np.float64) - values.astype(np.float64))
    if not np.all(err <= eb * (1 + 1e-12)):
        problems.append(f"roundtrip global bound violated: max err {err.max():.3e}")
    hard = (np.abs(res.indices) >= cfg.threshold) & (res.indices != quant.sentinel)
    if hard.any() and not np.all(err[hard] <= quant.tight_bound * (1 + 1e-12)):
        problems.append(
            f"hard points exceed tightened bound {quant.tight_bound:.3e}"
        )
    if not np.array_equal(recon, res.decoded):
        problems.append("dequantize(indices) != encode-side decoded (bit drift)")
    return problems


def check_pipelines() -> dict[str, list[str]]:
    """``pipeline[name]`` -> violations for every registered pipeline."""
    from repro.pipeline import registered_pipelines

    return {
        f"pipeline[{name}]": check_pipeline(name)
        for name in registered_pipelines()
    }


def check_streaming() -> list[str]:
    """Streaming-surface lint (empty = ok).

    Holds the streaming mode to its contracts: the incremental
    ``ContainerWriter``/``ContainerReader`` round-trip with strictly
    monotone, contiguous offsets and typed truncation/corruption errors;
    ``compress_stream``/``decompress_stream`` signature conformance across
    every registered compressor (mirroring the Codec bar: data+sink
    positional, extras defaulted); a streamed-vs-in-memory byte-identity
    spot check; and the stage graph fully partitioned onto the streaming
    front/entropy thread stages (``STREAM_STAGE_GROUPS``).
    """
    import io

    import numpy as np

    from repro.compressors import COMPRESSORS, get_compressor
    from repro.errors import IntegrityError, TruncatedStreamError
    from repro.io.container import ContainerReader, ContainerWriter
    from repro.pipeline.builders import pipeline_spec, registered_pipelines
    from repro.pipeline.stages import STREAM_STAGE_GROUPS

    problems: list[str] = []

    # -- writer/reader round-trip + offset monotonicity ---------------------
    segments = [b"alpha-segment", b"bravo!", b"charlie-segment-3"]
    sink = io.BytesIO()
    with ContainerWriter(sink, axis=0, meta={"k": "v"}) as w:
        for seg in segments:
            w.append(seg)
    raw = sink.getvalue()
    try:
        r = ContainerReader(raw)
        if [r.segment(i) for i in range(len(r))] != segments:
            problems.append("container: segments did not round-trip")
        if r.meta.get("k") != "v":
            problems.append("container: meta did not round-trip")
        offs = r.offsets()
        if offs != sorted(set(offs)) or any(
            offs[i][0] + offs[i][1] != offs[i + 1][0] for i in range(len(offs) - 1)
        ):
            problems.append(f"container: offsets not monotone/contiguous: {offs}")
    except Exception as exc:  # pragma: no cover - lint reporting
        problems.append(f"container: round-trip raised {type(exc).__name__}: {exc}")
    try:
        ContainerReader(raw[:-9])
        problems.append("container: truncated stream must raise TruncatedStreamError")
    except TruncatedStreamError:
        pass
    corrupt = bytearray(raw)
    corrupt[len(segments[0]) // 2 + 8] ^= 0xFF  # flip a payload byte
    try:
        ContainerReader(bytes(corrupt)).segment(0)
        problems.append("container: corrupt segment must raise IntegrityError")
    except IntegrityError:
        pass

    # -- compress_stream / decompress_stream signatures ---------------------
    for name in COMPRESSORS:
        comp = get_compressor(name, 1e-3)
        for attr in ("compress_stream", "decompress_stream"):
            if not callable(getattr(comp, attr, None)):
                problems.append(f"{name}: missing {attr}")
                continue
            sig = inspect.signature(getattr(comp, attr))
            params = list(sig.parameters.values())
            positional = [
                p for p in params
                if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                              inspect.Parameter.POSITIONAL_OR_KEYWORD)
            ]
            need = 2 if attr == "compress_stream" else 1
            if len(positional) < need:
                problems.append(
                    f"{name}: {attr} must take {need} positional parameter(s)"
                )
            for p in params[need:]:
                if p.kind in (inspect.Parameter.VAR_KEYWORD,
                              inspect.Parameter.VAR_POSITIONAL):
                    continue
                if p.default is inspect.Parameter.empty:
                    problems.append(
                        f"{name}: {attr} extra parameter {p.name!r} must "
                        f"have a default"
                    )

    # -- streamed segment byte-identity spot check --------------------------
    rng = np.random.default_rng(11)
    data = np.cumsum(rng.normal(size=(24, 10, 8)), axis=0).astype(np.float32)
    comp = get_compressor("sz3", 1e-3)
    sink = io.BytesIO()
    comp.compress_stream(data, sink, slab_bytes=8 * 10 * 8 * 4)
    r = ContainerReader(sink.getvalue())
    from repro.streaming import plan_slabs

    slabs = plan_slabs(data.shape, data.dtype, 8 * 10 * 8 * 4)
    for i, sl in enumerate(slabs):
        if r.segment(i) != comp.compress(np.ascontiguousarray(data[sl])):
            problems.append(f"sz3: streamed segment {i} != compress(slab)")
    if not np.array_equal(
        comp.decompress_stream(sink.getvalue()),
        np.concatenate(
            [comp.decompress(comp.compress(np.ascontiguousarray(data[sl])))
             for sl in slabs]
        ),
    ):
        problems.append("sz3: decompress_stream != per-slab decompress")

    # -- every pipeline stage claimed by exactly one streaming group --------
    claimed = STREAM_STAGE_GROUPS["front"] | STREAM_STAGE_GROUPS["entropy"]
    overlap = STREAM_STAGE_GROUPS["front"] & STREAM_STAGE_GROUPS["entropy"]
    if overlap:
        problems.append(f"STREAM_STAGE_GROUPS groups overlap: {sorted(overlap)}")
    for pname in registered_pipelines():
        for s in pipeline_spec(pname).stages:
            if s.stage not in claimed:
                problems.append(
                    f"pipeline {pname!r}: stage {s.stage!r} not claimed by "
                    f"any STREAM_STAGE_GROUPS group"
                )
    return problems


def check_public_api() -> list[str]:
    """Frozen top-level surface lint (empty = ok).

    ``repro.__all__`` is a contract: exactly the promoted names, each
    present and of the promised kind.  Anything else reaching the top
    level is private-by-convention and must *not* creep into ``__all__``
    without a deliberate API-freeze change here.
    """
    import repro

    problems: list[str] = []
    frozen = [
        "AdaptiveConfig", "Codec", "PipelineSpec",
        "compress", "decompress", "open_archive", "serve", "__version__",
    ]
    if sorted(repro.__all__) != sorted(frozen):
        problems.append(
            f"repro.__all__ changed: {sorted(repro.__all__)} != {sorted(frozen)}"
        )
    for name in frozen:
        if not hasattr(repro, name):
            problems.append(f"repro.{name} is promised by __all__ but missing")
    for fn in ("compress", "decompress", "open_archive", "serve"):
        if hasattr(repro, fn) and not callable(getattr(repro, fn)):
            problems.append(f"repro.{fn} must be callable")
    # the one-call compress exposes the same knob set as the Codec protocol
    if hasattr(repro, "compress"):
        sig = inspect.signature(repro.compress)
        for knob, default in (("checksum", False), ("auto", False),
                              ("adaptive", None)):
            p = sig.parameters.get(knob)
            if p is None or p.kind is not inspect.Parameter.KEYWORD_ONLY \
                    or p.default is not default:
                problems.append(
                    f"repro.compress: keyword-only {knob}={default!r} required"
                )
    return problems


def check_service() -> list[str]:
    """Service wire-schema lint (empty = ok).

    Pins the gateway's request/reply contract so it cannot silently
    drift: every message kind encode/decode round-trips through the
    ``RSV1`` framing; a bumped schema revision is a typed
    :class:`~repro.errors.VersionError`; truncated and trailing-byte
    frames are typed rejections; and the error taxonomy's ``reason``
    tags (the wire error codes) are unique and frozen.
    """
    import numpy as np

    from repro import errors
    from repro.service import (
        SCHEMA_VERSION,
        ArchiveGetRequest,
        ArchivePutRequest,
        CompressRequest,
        DecompressRequest,
        JobSpec,
        RangeGetRequest,
        ServiceReply,
        decode_message,
        encode_message,
    )

    problems: list[str] = []
    arr = np.arange(24, dtype=np.float32).reshape(4, 6)
    spec = JobSpec(compressor="sz3", error_bound=1e-3, auto=True)
    messages = [
        CompressRequest.from_array("t", arr, spec),
        DecompressRequest(tenant="t", blob=b"\x01\x02"),
        ArchivePutRequest.from_array("t", "entry", arr, spec),
        ArchiveGetRequest(tenant="t", name="entry"),
        RangeGetRequest(tenant="t", name="entry", level=3, start=128),
        RangeGetRequest(tenant="t", name="entry"),
        ServiceReply(request_id="r", op="compress", result=b"xyz",
                     meta={"n": 1}),
        ServiceReply(request_id="r", op="compress", ok=False,
                     error="quota", message="over quota"),
    ]
    for msg in messages:
        frame = encode_message(msg)
        try:
            back = decode_message(frame)
        except Exception as exc:  # noqa: BLE001 - lint reports, never crashes
            problems.append(f"{type(msg).__name__}: decode raised {exc!r}")
            continue
        if type(back) is not type(msg):
            problems.append(
                f"{type(msg).__name__}: decoded as {type(back).__name__}"
            )
            continue
        if encode_message(back) != frame:
            problems.append(
                f"{type(msg).__name__}: re-encode is not byte-identical"
            )

    # spec round-trip + batch-key stability
    if JobSpec.from_dict(spec.to_dict()) != spec:
        problems.append("JobSpec to_dict/from_dict round-trip changed it")
    if spec.batch_key != JobSpec.from_dict(spec.to_dict()).batch_key:
        problems.append("JobSpec batch_key is not stable across round-trip")

    # schema pinning and framing rejections are typed
    frame = encode_message(messages[0])
    import json as _json
    import struct as _struct

    (hlen,) = _struct.unpack_from("<I", frame, 4)
    header = _json.loads(frame[8:8 + hlen].decode())
    header["schema"] = SCHEMA_VERSION + 1
    hb = _json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bumped = frame[:4] + _struct.pack("<I", len(hb)) + hb + frame[8 + hlen:]
    try:
        decode_message(bumped)
        problems.append("decode accepted an unsupported schema revision")
    except errors.VersionError:
        pass
    try:
        decode_message(frame[:-1])
        problems.append("decode accepted a truncated payload")
    except errors.TruncatedStreamError:
        pass
    try:
        decode_message(frame + b"x")
        problems.append("decode accepted trailing bytes")
    except errors.CorruptBlobError:
        pass
    try:
        decode_message(b"NOPE" + frame[4:])
        problems.append("decode accepted a wrong magic")
    except errors.CorruptBlobError:
        pass

    # the error taxonomy's wire codes are unique and frozen
    taxonomy = {
        errors.ServiceError: "service",
        errors.AdmissionError: "admission",
        errors.RateLimitedError: "rate_limited",
        errors.QuotaExceededError: "quota",
        errors.QueueFullError: "queue_full",
        errors.ServiceClosedError: "closed",
        errors.ServiceRequestError: "bad_request",
        errors.TenantAccessError: "forbidden",
    }
    for cls, reason in taxonomy.items():
        if cls.reason != reason:
            problems.append(
                f"{cls.__name__}.reason changed: {cls.reason!r} != {reason!r}"
            )
    reasons = [cls.reason for cls in taxonomy]
    if len(set(reasons)) != len(reasons):
        problems.append(f"duplicate error reason tags: {sorted(reasons)}")
    return problems


def check_progressive() -> list[str]:
    """Progressive-spec lint (empty = ok).

    Holds ``sz3_progressive`` blobs to the level-ordered wire contract:

    * the ``progressive`` header extension's level table is strictly
      coarse-first with strictly increasing byte offsets, the last offset
      exactly the blob end, and :func:`level_table` reads back what
      ``_compress`` wrote (header round-trip);
    * an unknown extension version is a typed
      :class:`~repro.errors.VersionError`, never a silent parse — the
      same bump rule every other versioned header obeys;
    * decoding the full prefix chain (the first ``offset[k]`` bytes for
      the final level ``k=1``) is bit-identical to ``decompress`` *and*
      to plain ``sz3``'s interp reconstruction (the reordering is wire
      layout only);
    * every recorded per-level bound holds for its prefix preview.
    """
    import numpy as np

    from repro.compressors import get_compressor
    from repro.compressors.base import Blob
    from repro.compressors.progressive import (
        decompress_prefix,
        level_table,
    )
    from repro.errors import CorruptBlobError, TruncatedStreamError, VersionError

    problems: list[str] = []
    rng = np.random.default_rng(17)
    data = np.cumsum(
        np.cumsum(rng.normal(size=(14, 12, 10)), axis=0), axis=1
    ).astype(np.float32)
    eb = 1e-3 * float(data.max() - data.min())
    comp = get_compressor("sz3_progressive", eb)
    blob = comp.compress(data)

    # -- table structure + header round-trip ---------------------------------
    table = level_table(blob)
    if not table:
        return ["progressive blob has an empty level table"]
    levels = [e["level"] for e in table]
    ends = [e["end"] for e in table]
    if levels != sorted(levels, reverse=True) or len(set(levels)) != len(levels):
        problems.append(f"level indices not strictly coarse-first: {levels}")
    if ends != sorted(set(ends)):
        problems.append(f"level offsets not strictly increasing: {ends}")
    if ends[-1] != len(blob):
        problems.append(
            f"final level offset {ends[-1]} != blob length {len(blob)}"
        )
    parsed = Blob.from_bytes(blob)
    ext = parsed.header.get("progressive", {})
    header_levels = [e["level"] for e in ext.get("levels", [])]
    if header_levels != levels:
        problems.append(
            f"level_table() levels {levels} != header levels {header_levels}"
        )

    # -- version-bump rule ----------------------------------------------------
    tampered = Blob(dict(parsed.header), dict(parsed.sections))
    tampered.header = dict(tampered.header)
    tampered.header["progressive"] = dict(ext, version=ext.get("version", 1) + 1)
    try:
        decompress_prefix(tampered.to_bytes())
        problems.append("decompress_prefix accepted an unknown extension version")
    except VersionError:
        pass
    no_ext = Blob(
        {k: v for k, v in parsed.header.items() if k != "progressive"},
        dict(parsed.sections),
    )
    try:
        level_table(no_ext.to_bytes())
        problems.append("level_table parsed a blob with no progressive extension")
    except CorruptBlobError:
        pass

    # -- prefix/full decode parity at the final level -------------------------
    full = comp.decompress(blob)
    chain = decompress_prefix(blob[: ends[-1]])
    if chain.level != levels[-1]:
        problems.append(
            f"full prefix decoded at level {chain.level}, expected {levels[-1]}"
        )
    if not np.array_equal(chain.array, full):
        problems.append("full prefix chain is not bit-identical to decompress()")
    plain = get_compressor("sz3", eb, predictor="interp")
    if not np.array_equal(full, plain.decompress(plain.compress(data))):
        problems.append(
            "sz3_progressive reconstruction differs from plain sz3 interp"
        )

    # -- per-level bounds hold; short prefixes are typed ----------------------
    for e in table:
        preview = decompress_prefix(blob[: e["end"]])
        err = float(np.abs(preview.array.astype(np.float64) - data).max())
        if err > preview.eb:
            problems.append(
                f"level {e['level']} preview error {err:.3e} exceeds the "
                f"recorded bound {preview.eb:.3e}"
            )
    try:
        decompress_prefix(blob[: max(ends[0] - 1, 0)])
        problems.append("a prefix below the coarsest level must raise typed")
    except TruncatedStreamError:
        pass
    return problems


def check_all() -> dict[str, list[str]]:
    """name -> violations for every candidate (empty dict values = all clean)."""
    out = {name: check_codec(obj) for name, obj in _candidates().items()}
    out.update(check_pipelines())
    out["stage[adaptive_quantize]"] = check_adaptive_stage()
    out["streaming"] = check_streaming()
    out["public-api"] = check_public_api()
    out["service"] = check_service()
    out["progressive"] = check_progressive()
    return out


def main() -> int:
    results = check_all()
    bad = 0
    for name in sorted(results):
        problems = results[name]
        if problems:
            bad += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"     - {p}")
        else:
            print(f"ok   {name}")
    total = len(results)
    print(f"{total - bad}/{total} API-surface checks pass "
          f"(Codec + pipeline + surface lint)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
