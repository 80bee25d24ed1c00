"""Named pipeline builders: every registered compressor as a PipelineSpec.

This module is the single source of truth for *which* compressors exist:
``compressors.registry`` derives its ``COMPRESSORS`` /
``INTERP_COMPRESSORS`` tuples and its capability queries (``supports_qp``
= "does the pipeline contain a ``qp`` stage?") from the registrations
here, so a new pipeline cannot silently miss the registry lists.

Each registration carries

* a builder producing the compressor's default :class:`PipelineSpec`,
* ``cls_path`` (``module:Class``) so the registry can construct the
  implementation without this module importing :mod:`repro.compressors`
  (the compressors import the pipeline layer, not the reverse), and
* a ``derive`` hook mapping a blob *header* to the spec that produced it
  (see :func:`repro.pipeline.driver.spec_for_blob`), which is how decode
  dispatch walks the spec instead of per-compressor ``if`` ladders.

Registration order defines registry order (kept identical to the
pre-pipeline tuples so every user-visible listing is unchanged).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .spec import PipelineSpec, StageSpec

__all__ = [
    "RegisteredPipeline",
    "register_pipeline",
    "registered_pipelines",
    "pipeline",
    "pipeline_spec",
]


@dataclass(frozen=True)
class RegisteredPipeline:
    name: str
    cls_path: str
    build: Callable[..., PipelineSpec]
    derive: Callable[[dict], PipelineSpec]


_PIPELINES: dict[str, RegisteredPipeline] = {}


def register_pipeline(
    name: str,
    cls_path: str,
    derive: Callable[[dict], PipelineSpec] | None = None,
) -> Callable[[Callable[..., PipelineSpec]], Callable[..., PipelineSpec]]:
    """Decorator: register ``fn`` as the named pipeline's spec builder."""

    def deco(fn: Callable[..., PipelineSpec]) -> Callable[..., PipelineSpec]:
        if name in _PIPELINES:
            raise ValueError(f"pipeline {name!r} already registered")
        _PIPELINES[name] = RegisteredPipeline(
            name=name,
            cls_path=cls_path,
            build=fn,
            derive=derive if derive is not None else (lambda header: fn()),
        )
        return fn

    return deco


def registered_pipelines() -> tuple[str, ...]:
    """Registered pipeline names, in registration order."""
    return tuple(_PIPELINES)


def pipeline(name: str) -> RegisteredPipeline:
    if name not in _PIPELINES:
        raise KeyError(
            f"unknown pipeline {name!r}; available: {tuple(_PIPELINES)}"
        )
    return _PIPELINES[name]


def pipeline_spec(name: str, **kwargs: Any) -> PipelineSpec:
    """Build the named pipeline's spec (default params unless overridden)."""
    return pipeline(name).build(**kwargs)


# -- shared stage stacks ------------------------------------------------------


def _qp_params(qp: dict | None) -> dict[str, Any]:
    return {"config": dict(qp)} if qp else {}


def _quantize_spec(adaptive: dict | None) -> StageSpec:
    """The quantize link of the chain: the classic ``quantize`` stage, or
    the ``adaptive_quantize`` variant when an adaptive config is present.
    Stage-id change, never a silent param change — existing specs (and
    their headers/digests) are untouched when ``adaptive`` is None."""
    if not adaptive:
        return StageSpec("quantize", {})
    return StageSpec(
        "adaptive_quantize",
        {
            "adaptive_bits": adaptive["bits"],
            "threshold": adaptive["threshold"],
        },
    )


def _interp_stack(
    *,
    interp: str = "auto",
    layout: str = "global",
    qp: dict | None = None,
    adaptive: dict | None = None,
    entropy: str = "huffman",
    backend: str = "zlib",
) -> tuple[StageSpec, ...]:
    """The shared engine's stage chain: predict → quantize → index
    transforms → entropy → lossless (Algorithm 1's insertion point for QP
    is between quantization and entropy coding)."""
    return (
        StageSpec("interp_predict", {"interp": interp, "layout": layout}),
        _quantize_spec(adaptive),
        StageSpec("qp", _qp_params(qp)),
        StageSpec(entropy, {}),
        StageSpec("lossless", {"backend": backend}),
    )


def _engine_qp(header: dict) -> dict | None:
    engine = header.get("engine")
    if isinstance(engine, dict):
        qp = engine.get("qp")
        if isinstance(qp, dict):
            return qp
    return None


def _engine_adaptive(header: dict) -> dict | None:
    engine = header.get("engine")
    if isinstance(engine, dict):
        adaptive = engine.get("adaptive")
        if isinstance(adaptive, dict):
            # validates bits/threshold with typed errors before the values
            # reach stage construction
            from ..core.config import AdaptiveConfig

            return AdaptiveConfig.from_dict(adaptive).to_dict()
    return None


# -- the seven registered compressors (registration order = registry order) --


def _derive_mgard(header: dict) -> PipelineSpec:
    return mgard_pipeline(
        qp=_engine_qp(header), adaptive=_engine_adaptive(header)
    )


@register_pipeline("mgard", "repro.compressors.mgard:MGARD", derive=_derive_mgard)
def mgard_pipeline(
    qp: dict | None = None, adaptive: dict | None = None
) -> PipelineSpec:
    return PipelineSpec(
        "mgard",
        _interp_stack(
            interp="linear", layout="multidim", qp=qp, adaptive=adaptive
        ),
    )


def _derive_sz3(header: dict) -> PipelineSpec:
    return sz3_pipeline(
        predictor=header.get("predictor", "interp"),
        qp=_engine_qp(header),
        adaptive=_engine_adaptive(header),
        entropy=header.get("entropy", "huffman"),
    )


@register_pipeline("sz3", "repro.compressors.sz3:SZ3", derive=_derive_sz3)
def sz3_pipeline(
    predictor: str = "interp",
    interp: str = "auto",
    qp: dict | None = None,
    adaptive: dict | None = None,
    entropy: str = "huffman",
) -> PipelineSpec:
    """SZ3's three frontends are three stage chains over shared tails; the
    ``predictor`` header field selects which one a blob used."""
    if predictor == "lorenzo":
        stages = (
            StageSpec("lorenzo_predict", {}),
            StageSpec(entropy, {}),
            StageSpec("lossless", {}),
        )
    elif predictor == "regression":
        stages = (
            StageSpec("regression_predict", {}),
            StageSpec("quantize", {}),
            StageSpec(entropy, {}),
            StageSpec("lossless", {}),
        )
    else:
        stages = _interp_stack(
            interp=interp, qp=qp, adaptive=adaptive, entropy=entropy
        )
    return PipelineSpec("sz3", stages)


def _derive_qoz(header: dict) -> PipelineSpec:
    return qoz_pipeline(
        qp=_engine_qp(header), adaptive=_engine_adaptive(header)
    )


@register_pipeline("qoz", "repro.compressors.qoz:QoZ", derive=_derive_qoz)
def qoz_pipeline(
    qp: dict | None = None, adaptive: dict | None = None
) -> PipelineSpec:
    return PipelineSpec("qoz", _interp_stack(qp=qp, adaptive=adaptive))


def _derive_hpez(header: dict) -> PipelineSpec:
    return hpez_pipeline(
        layout=header.get("mode", "global"),
        qp=_engine_qp(header),
        adaptive=_engine_adaptive(header),
    )


@register_pipeline("hpez", "repro.compressors.hpez:HPEZ", derive=_derive_hpez)
def hpez_pipeline(
    layout: str = "global",
    qp: dict | None = None,
    adaptive: dict | None = None,
) -> PipelineSpec:
    return PipelineSpec(
        "hpez", _interp_stack(layout=layout, qp=qp, adaptive=adaptive)
    )


@register_pipeline("zfp", "repro.compressors.zfp:ZFP")
def zfp_pipeline() -> PipelineSpec:
    return PipelineSpec(
        "zfp",
        (
            StageSpec("zfp_transform", {}),
            StageSpec("huffman", {}),
            StageSpec("lossless", {}),
        ),
    )


@register_pipeline("tthresh", "repro.compressors.tthresh:TTHRESH")
def tthresh_pipeline() -> PipelineSpec:
    return PipelineSpec(
        "tthresh",
        (
            StageSpec("tucker", {}),
            StageSpec("quantize", {}),
            StageSpec("huffman", {}),
            StageSpec("lossless", {}),
        ),
    )


def _derive_sperr(header: dict) -> PipelineSpec:
    from ..compressors.sperr import reject_retired_coder

    reject_retired_coder(header)
    qp = header.get("qp")
    return sperr_pipeline(qp=qp if isinstance(qp, dict) else None)


@register_pipeline("sperr", "repro.compressors.sperr:SPERR", derive=_derive_sperr)
def sperr_pipeline(qp: dict | None = None) -> PipelineSpec:
    return PipelineSpec(
        "sperr",
        (
            StageSpec("cdf97", {}),
            StageSpec("quantize", {}),
            StageSpec("qp", _qp_params(qp)),
            StageSpec("huffman", {}),
            StageSpec("lossless", {}),
        ),
    )


def _derive_sz3_progressive(header: dict) -> PipelineSpec:
    return sz3_progressive_pipeline(
        qp=_engine_qp(header),
        adaptive=_engine_adaptive(header),
        entropy=header.get("entropy", "huffman"),
    )


@register_pipeline(
    "sz3_progressive",
    "repro.compressors.progressive:SZ3Progressive",
    derive=_derive_sz3_progressive,
)
def sz3_progressive_pipeline(
    interp: str = "auto",
    qp: dict | None = None,
    adaptive: dict | None = None,
    entropy: str = "huffman",
) -> PipelineSpec:
    """Level-ordered SZ3: same interp stage chain, but the entropy and
    lossless stages run once per interpolation level (coarse-first) so any
    level-aligned byte prefix decodes — see
    :mod:`repro.compressors.progressive`."""
    return PipelineSpec(
        "sz3_progressive",
        _interp_stack(interp=interp, qp=qp, adaptive=adaptive, entropy=entropy),
    )
