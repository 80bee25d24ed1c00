"""Concrete pipeline stages wrapping the existing kernels.

Every stage type satisfies the :class:`Stage` protocol —
``forward(ctx, payload)`` / ``inverse(ctx, payload)`` — and registers
itself under a stable id (:func:`repro.pipeline.spec.register_stage`), so
:class:`~repro.pipeline.spec.PipelineSpec` entries resolve to these
classes by name.  The payload types are stage-specific (arrays, byte
strings, ``(values, prediction)`` pairs); the :class:`StageContext`
carries the cross-cutting state a walk threads through the stages
(current level, quantizer sentinel, interpolation method, output dtype).

This module must stay importable without :mod:`repro.compressors` —
``compressors.base`` wires its entropy framing through the stage registry
here, so anything from that package is imported lazily inside methods.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..codecs import (
    HuffmanCodec,
    compress as lossless_compress,
    decompress as lossless_decompress,
)
from ..core.config import AdaptiveConfig, QPConfig
from ..core.qp import qp_forward, qp_inverse, qp_inverse_multi
from ..errors import CorruptBlobError
from ..obs import metric_count, span as obs_span
from ..predictors.interpolation import predict_midpoints
from ..quantize.adaptive import AdaptiveLinearQuantizer
from ..quantize.linear import LinearQuantizer
from .spec import register_stage

__all__ = [
    "Stage",
    "StageContext",
    "InterpPredict",
    "LorenzoPredict",
    "RegressionPredict",
    "LinearQuantize",
    "AdaptiveLinearQuantize",
    "QPTransform",
    "HuffmanEncode",
    "RangeEncode",
    "LosslessBackend",
    "ZFPTransform",
    "TuckerFactorize",
    "CDF97Transform",
    "ENTROPY_STAGES",
    "STREAM_STAGE_GROUPS",
    "entropy_stage",
    "entropy_stage_for_wire_id",
]


@dataclass
class StageContext:
    """Mutable per-walk state shared across stage invocations."""

    level: int = 0
    sentinel: int = 0
    method: str = "linear"
    dtype: Any = None


@runtime_checkable
class Stage(Protocol):
    """The stage surface: a registered id plus a forward/inverse pair.

    ``inverse(ctx, forward(ctx, payload))`` round-trips the payload for
    transform-type stages; for lossy stages (quantize) the pair is the
    encode/decode relationship instead of exact inversion.
    """

    stage_id: str

    def forward(self, ctx: StageContext, payload: Any) -> Any:
        ...

    def inverse(self, ctx: StageContext, payload: Any) -> Any:
        ...


# -- prediction frontends -----------------------------------------------------


@register_stage("interp_predict")
class InterpPredict:
    """Multilevel interpolation prediction (SZ3/QoZ/HPEZ/MGARD frontend).

    ``forward(ctx, (arr, p))`` predicts pass ``p``'s target subgrid from
    the already-decoded neighbours in ``arr`` using ``ctx.method``; the
    engine driver owns the closed predict→quantize→overwrite loop, so
    prediction is its own inverse (the decoder sees identical inputs).
    """

    def __init__(self, interp: str = "auto", layout: str = "global") -> None:
        self.interp = interp
        self.layout = layout

    @staticmethod
    def pass_prediction(arr: np.ndarray, p: Any, method: str) -> np.ndarray:
        """Average of 1-D interpolations along each prediction axis, in the
        natural orientation of the pass's target subgrid."""
        shape = arr.shape
        pred_sum: np.ndarray | None = None
        for a in p.axes:
            known = arr[p.known_for(a)]
            n_targets = len(range(*p.target[a].indices(shape[a])))
            pred_a = predict_midpoints(np.moveaxis(known, a, 0), n_targets, method)
            pred_a = np.moveaxis(pred_a, 0, a)
            pred_sum = pred_a if pred_sum is None else pred_sum + pred_a
        assert pred_sum is not None
        if len(p.axes) > 1:
            pred_sum = pred_sum / len(p.axes)
        return pred_sum

    @staticmethod
    def pass_prediction_stacked(
        arr_st: np.ndarray, p: Any, method: str
    ) -> np.ndarray:
        """:meth:`pass_prediction` over a stack of volumes ``(N, *shape)``.

        The pass geometry addresses the per-volume axes, so every index is
        lifted by one; ``predict_midpoints`` treats all trailing axes as
        batch, which now includes the stack axis.
        """
        shape = arr_st.shape[1:]
        pred_sum: np.ndarray | None = None
        for a in p.axes:
            known = arr_st[(slice(None),) + p.known_for(a)]
            n_targets = len(range(*p.target[a].indices(shape[a])))
            pred_a = predict_midpoints(
                np.moveaxis(known, a + 1, 0), n_targets, method
            )
            pred_a = np.moveaxis(pred_a, 0, a + 1)
            pred_sum = pred_a if pred_sum is None else pred_sum + pred_a
        assert pred_sum is not None
        if len(p.axes) > 1:
            pred_sum = pred_sum / len(p.axes)
        return pred_sum

    @classmethod
    def choose(cls, arr: np.ndarray, p: Any) -> tuple[str, np.ndarray]:
        """Auto interpolation selection: smaller L1 residual on this pass
        wins (SZ3's per-level linear-vs-cubic tuning).  Also returns the
        winning method's prediction for ``p`` so the caller can reuse it
        instead of recomputing the identical array."""
        actual = arr[p.target]
        best_method, best_err, best_pred = "linear", None, None
        for method in ("linear", "cubic"):
            pred = cls.pass_prediction(arr, p, method)
            err = float(np.abs(actual - pred).sum())
            if best_err is None or err < best_err:
                best_method, best_err, best_pred = method, err, pred
        assert best_pred is not None
        return best_method, best_pred

    def forward(self, ctx: StageContext, payload: Any) -> np.ndarray:
        arr, p = payload
        return self.pass_prediction(arr, p, ctx.method)

    inverse = forward


@register_stage("lorenzo_predict")
class LorenzoPredict:
    """Dual-quantization Lorenzo predictor (SZ3's alternate frontend)."""

    def __init__(self, error_bound: float = 0.0, radius: int = 32768) -> None:
        self.error_bound = error_bound
        self.radius = radius

    def forward(self, ctx: StageContext, data: np.ndarray) -> Any:
        from ..predictors.lorenzo import lorenzo_encode

        result, _ = lorenzo_encode(
            data, self.error_bound, self.radius, want_recon=False
        )
        return result

    def inverse(self, ctx: StageContext, result: Any) -> np.ndarray:
        from ..predictors.lorenzo import lorenzo_decode

        return lorenzo_decode(result, self.error_bound, ctx.dtype)


@register_stage("regression_predict")
class RegressionPredict:
    """SZ2-style per-block plane regression predictor."""

    def forward(self, ctx: StageContext, block: np.ndarray) -> Any:
        from ..predictors.regression import fit_plane, plane_prediction

        coeffs = fit_plane(block)
        return coeffs, plane_prediction(block.shape, coeffs).astype(block.dtype)

    def inverse(self, ctx: StageContext, payload: Any) -> np.ndarray:
        from ..predictors.regression import plane_prediction

        bshape, coeffs = payload
        return plane_prediction(bshape, coeffs).astype(ctx.dtype)


# -- quantization -------------------------------------------------------------


@register_stage("quantize")
class LinearQuantize:
    """Linear-scaling quantization with per-level error bounds.

    Owns the per-level :class:`~repro.quantize.linear.LinearQuantizer`
    construction every schedule walk used to duplicate: the quantizer for
    ``ctx.level`` uses ``error_bound * level_eb_factors.get(level, 1.0)``
    and is cached for the walk's lifetime.
    """

    def __init__(
        self,
        error_bound: float = 0.0,
        radius: int = 32768,
        level_eb_factors: dict[int, float] | None = None,
    ) -> None:
        self.error_bound = error_bound
        self.radius = radius
        self.level_eb_factors = dict(level_eb_factors or {})
        self._per_level: dict[int, LinearQuantizer] = {}

    @property
    def sentinel(self) -> int:
        """Unpredictable-value marker (level-independent: ``-radius``)."""
        return -self.radius

    def for_level(self, level: int) -> LinearQuantizer:
        q = self._per_level.get(level)
        if q is None:
            eb = self.error_bound * self.level_eb_factors.get(level, 1.0)
            q = LinearQuantizer(eb, self.radius)
            self._per_level[level] = q
        return q

    def forward(self, ctx: StageContext, payload: Any) -> Any:
        values, pred = payload
        return self.for_level(ctx.level).quantize(values, pred)

    def inverse(self, ctx: StageContext, payload: Any) -> np.ndarray:
        indices, pred, literals = payload
        return self.for_level(ctx.level).dequantize(indices, pred, literals)


@register_stage("adaptive_quantize")
class AdaptiveLinearQuantize:
    """Reserved-index adaptive quantization (tightened bound at hard points).

    Same shape as :class:`LinearQuantize` — per-level quantizer cache,
    ``(values, pred)`` forward / ``(indices, pred, literals)`` inverse —
    but the per-level quantizer is an
    :class:`~repro.quantize.adaptive.AdaptiveLinearQuantizer` that
    tightens the effective bound by ``2**adaptive_bits`` wherever the
    coarse index magnitude reaches ``threshold``, signalled in-band via
    the reserved index range (see :mod:`repro.quantize.adaptive` for the
    wire encoding).  A separate stage id keeps existing specs, headers,
    and golden digests byte-frozen: adaptivity is a new spec variant.
    """

    def __init__(
        self,
        error_bound: float = 0.0,
        radius: int = 32768,
        adaptive_bits: int = 2,
        threshold: int = 4,
        level_eb_factors: dict[int, float] | None = None,
    ) -> None:
        # validate early — specs are built from untrusted headers
        AdaptiveConfig(bits=adaptive_bits, threshold=threshold)
        self.error_bound = error_bound
        self.radius = radius
        self.adaptive_bits = int(adaptive_bits)
        self.threshold = int(threshold)
        self.level_eb_factors = dict(level_eb_factors or {})
        self._per_level: dict[int, AdaptiveLinearQuantizer] = {}

    @property
    def sentinel(self) -> int:
        return -self.radius

    def for_level(self, level: int) -> AdaptiveLinearQuantizer:
        q = self._per_level.get(level)
        if q is None:
            eb = self.error_bound * self.level_eb_factors.get(level, 1.0)
            q = AdaptiveLinearQuantizer(
                eb, self.radius, bits=self.adaptive_bits, threshold=self.threshold
            )
            self._per_level[level] = q
        return q

    def forward(self, ctx: StageContext, payload: Any) -> Any:
        values, pred = payload
        quant = self.for_level(ctx.level)
        result = quant.quantize(values, pred)
        metric_count("quantize.adaptive_points", quant.last_adaptive)
        metric_count("quantize.points", int(np.asarray(values).size))
        return result

    def inverse(self, ctx: StageContext, payload: Any) -> np.ndarray:
        indices, pred, literals = payload
        return self.for_level(ctx.level).dequantize(indices, pred, literals)


# -- index-stream transforms --------------------------------------------------


@register_stage("qp")
class QPTransform:
    """Adaptive quantization index prediction (the paper's contribution).

    A pure transform on one pass's index array: the engine walks its
    index-transform stages without knowing any is QP.  The wrapped kernels
    already no-op outside the configured case/levels, so the stage is
    always present in QP-capable pipelines and its config decides
    activity.  ``inverse_multi`` batches the wavefront inverse across a
    stack of equal-schedule volumes (the slab-parallel decode path).
    """

    #: engine-meta key this transform round-trips its config through
    meta_key = "qp"

    def __init__(self, config: QPConfig | dict | None = None) -> None:
        if isinstance(config, dict):
            config = QPConfig.from_dict(config)
        self.config = config or QPConfig.disabled()

    def forward(self, ctx: StageContext, q: np.ndarray) -> np.ndarray:
        with obs_span("qp"):
            return qp_forward(q, ctx.sentinel, self.config, ctx.level)

    def inverse(self, ctx: StageContext, q: np.ndarray) -> np.ndarray:
        with obs_span("qp"):
            return qp_inverse(q, ctx.sentinel, self.config, ctx.level)

    def inverse_multi(
        self, ctx: StageContext, qs: "list[np.ndarray]"
    ) -> np.ndarray:
        with obs_span("qp"):
            return qp_inverse_multi(qs, ctx.sentinel, self.config, ctx.level)


# -- entropy coding -----------------------------------------------------------


@register_stage("huffman")
class HuffmanEncode:
    """Block-wise canonical Huffman over a bounded symbol alphabet.

    ``bounded_alphabet`` tells the index-stream framing to apply its
    median-centered offset window + escape mechanism before coding.
    Spans are owned by the framing layer (``compressors.base``), which
    times the whole entropy group — including the joint multi-stream
    lockstep decode — as one ``huffman`` stage.
    """

    wire_id = 0
    bounded_alphabet = True

    def __init__(self, block_size: int | None = None) -> None:
        self.block_size = block_size

    def _codec(self) -> HuffmanCodec:
        return HuffmanCodec(self.block_size) if self.block_size else HuffmanCodec()

    def forward(self, ctx: StageContext, codes: np.ndarray) -> bytes:
        return self._codec().encode(codes)

    def inverse(self, ctx: StageContext, payload: bytes) -> np.ndarray:
        return self._codec().decode_many([payload])[0]

    @staticmethod
    def decode_many(payloads: "list[bytes]") -> "list[np.ndarray]":
        """Joint lockstep decode: one Python-level block loop for the
        whole batch (headers carry each stream's own block size)."""
        return HuffmanCodec().decode_many(payloads)


@register_stage("range")
class RangeEncode:
    """Adaptive binary range coder (SZ3's arithmetic-coding option).

    Zigzag binarization handles signed values of any magnitude natively,
    so no alphabet window or escapes are needed (``bounded_alphabet``)."""

    wire_id = 1
    bounded_alphabet = False

    def __init__(self, block_size: int | None = None) -> None:
        # accepted for interface symmetry with HuffmanEncode; unused
        self.block_size = block_size

    def forward(self, ctx: StageContext, codes: np.ndarray) -> bytes:
        from ..codecs.rangecoder import RangeCodec

        return RangeCodec().encode(codes)

    def inverse(self, ctx: StageContext, payload: bytes) -> np.ndarray:
        from ..codecs.rangecoder import RangeCodec

        return RangeCodec().decode(payload)

    @staticmethod
    def decode_many(payloads: "list[bytes]") -> "list[np.ndarray]":
        from ..codecs.rangecoder import RangeCodec

        return [RangeCodec().decode(p) for p in payloads]


#: entropy stages by name — the only stages with a wire id, i.e. valid for
#: the index-stream framing's leading dispatch byte
ENTROPY_STAGES: dict[str, type] = {
    "huffman": HuffmanEncode,
    "range": RangeEncode,
}

#: wire id of the retired static rANS stage: an index stream led by it fails
#: with a migration hint rather than as an unknown id
_RANS_WIRE_ID = 2


def entropy_stage(name: str) -> type:
    """Entropy stage type by name; ``ValueError`` keeps the historical
    ``encode_index_stream`` contract for unknown names."""
    if name not in ENTROPY_STAGES:
        raise ValueError(f"entropy must be one of {tuple(ENTROPY_STAGES)}")
    return ENTROPY_STAGES[name]


def entropy_stage_for_wire_id(wire_id: int) -> type:
    """Entropy stage type for an index stream's leading wire byte; an
    unknown or retired byte raises :class:`~repro.errors.CorruptBlobError`."""
    for cls in ENTROPY_STAGES.values():
        if cls.wire_id == wire_id:
            return cls
    if wire_id == _RANS_WIRE_ID:
        raise CorruptBlobError(
            f"index stream uses the retired rANS entropy coder (wire id "
            f"{wire_id}); decode it with an earlier release and re-compress"
        )
    raise CorruptBlobError(f"unknown entropy stage id {wire_id}")


#: how the fine-grained stage graph partitions onto the streaming thread
#: pipeline (``repro.streaming``): *front* stages run per slab in the
#: producer threads (predict + quantize + index transforms, i.e. everything
#: up to the engine's ``(stream, literals, anchors)`` seam), *entropy*
#: stages run in the dedicated coder thread that overlaps the next slab's
#: front work.  Every registered stage that appears in a compressor
#: pipeline must be claimed by exactly one group — the streaming-surface
#: lint (``tools/check_api.py::check_streaming``) enforces this, so adding
#: a stage forces a decision about where it executes in streaming mode.
STREAM_STAGE_GROUPS: dict[str, frozenset[str]] = {
    "front": frozenset(
        {
            "interp_predict",
            "lorenzo_predict",
            "regression_predict",
            "quantize",
            "adaptive_quantize",
            "qp",
            "zfp_transform",
            "tucker",
            "cdf97",
        }
    ),
    "entropy": frozenset({"huffman", "range", "lossless"}),
}


# -- byte-stream backend ------------------------------------------------------


@register_stage("lossless")
class LosslessBackend:
    """Named lossless byte-stream backend (zlib/lz77/raw/...)."""

    def __init__(self, backend: str = "zlib") -> None:
        self.backend = backend

    def forward(self, ctx: StageContext, data: bytes) -> bytes:
        return lossless_compress(data, self.backend)

    def inverse(self, ctx: StageContext, data: bytes) -> bytes:
        return lossless_decompress(data)


# -- transform-family frontends ----------------------------------------------
#
# The non-interpolation compressors decorrelate with a transform instead of
# a predictor; wrapping those kernels keeps every registered pipeline's
# stages resolvable (the ``tools/check_api.py`` pipeline lint) and gives
# new pipelines reusable building blocks.  Kernel imports are lazy — the
# kernels live in compressor modules that import ``compressors.base``,
# which imports this module.


@register_stage("zfp_transform")
class ZFPTransform:
    """ZFP's integer lifting transform over ``(nblocks, 4**ndim)`` blocks."""

    def forward(self, ctx: StageContext, payload: Any) -> np.ndarray:
        from ..compressors.zfp import _forward_transform

        blocks, ndim = payload
        return _forward_transform(blocks, ndim)

    def inverse(self, ctx: StageContext, payload: Any) -> np.ndarray:
        from ..compressors.zfp import _inverse_transform

        blocks, ndim = payload
        return _inverse_transform(blocks, ndim)


@register_stage("tucker")
class TuckerFactorize:
    """Tucker (HOSVD) mode products: core ↔ tensor against fixed factors."""

    def forward(self, ctx: StageContext, payload: Any) -> np.ndarray:
        from ..compressors.tthresh import _mode_multiply

        tensor, factors = payload
        for mode, u in enumerate(factors):
            tensor = _mode_multiply(tensor, u.T, mode)
        return tensor

    def inverse(self, ctx: StageContext, payload: Any) -> np.ndarray:
        from ..compressors.tthresh import _mode_multiply

        core, factors = payload
        for mode, u in enumerate(factors):
            core = _mode_multiply(core, u, mode)
        return core


@register_stage("cdf97")
class CDF97Transform:
    """Multi-level separable CDF 9/7 wavelet transform (SPERR frontend)."""

    def __init__(self, levels: int = 3) -> None:
        self.levels = levels

    def forward(self, ctx: StageContext, data: np.ndarray) -> np.ndarray:
        from ..compressors.sperr import cdf97_forward

        return cdf97_forward(data, self.levels)

    def inverse(self, ctx: StageContext, coeffs: np.ndarray) -> np.ndarray:
        from ..compressors.sperr import cdf97_inverse

        return cdf97_inverse(coeffs, self.levels)
