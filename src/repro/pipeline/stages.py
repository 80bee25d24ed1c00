"""The stages the interpolation engine and the blob framing call.

Each stage wraps one kernel family: interpolation prediction, linear and
adaptive quantization, QP (the paper's index transform, applied between
quantization and entropy coding), and the Huffman and range entropy
coders the index-stream framing picks by wire id.  Lorenzo and
regression prediction keep ``forward``/``inverse`` wrappers of their
kernels.  The payload types are stage-specific (arrays, byte strings,
``(values, prediction)`` pairs); the :class:`StageContext` carries the
state a walk threads through the stages (current level, quantizer
sentinel, output dtype).

This module must stay importable without :mod:`repro.compressors` —
``compressors.base`` wires its entropy framing through the stages here,
so anything from that package is imported lazily inside methods.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..codecs import HuffmanCodec
from ..core.config import AdaptiveConfig, QPConfig
from ..core.qp import qp_forward, qp_inverse, qp_inverse_multi
from ..errors import CorruptBlobError
from ..obs import metric_count, span as obs_span
from ..predictors.interpolation import predict_midpoints
from ..quantize.adaptive import AdaptiveLinearQuantizer
from ..quantize.linear import LinearQuantizer

__all__ = [
    "StageContext",
    "InterpPredict",
    "LorenzoPredict",
    "RegressionPredict",
    "LinearQuantize",
    "AdaptiveLinearQuantize",
    "QPTransform",
    "HuffmanEncode",
    "RangeEncode",
    "ENTROPY_STAGES",
    "entropy_stage",
    "entropy_stage_for_wire_id",
]


@dataclass
class StageContext:
    """Mutable per-walk state shared across stage invocations."""

    level: int = 0
    sentinel: int = 0
    dtype: Any = None


# -- prediction frontends -----------------------------------------------------


class InterpPredict:
    """Multilevel interpolation prediction (SZ3/QoZ/HPEZ/MGARD frontend).

    Each pass predicts its target subgrid from the already-decoded
    neighbours; the engine owns the closed predict→quantize→overwrite
    loop, so the decoder sees identical inputs and runs the same
    prediction.
    """

    @staticmethod
    def pass_prediction(arr: np.ndarray, p: Any, method: str) -> np.ndarray:
        """Pass ``p``'s prediction of one volume: :meth:`pass_prediction_stacked`
        over the volume as a stack of one."""
        return InterpPredict.pass_prediction_stacked(arr[None], p, method)[0]

    @staticmethod
    def pass_prediction_stacked(
        arr_st: np.ndarray, p: Any, method: str
    ) -> np.ndarray:
        """Average of 1-D interpolations along each prediction axis of pass
        ``p``, for each volume of the stack ``arr_st`` (``(N, *shape)``),
        in the natural orientation of the pass's target subgrid
        (C-contiguous).

        The pass geometry addresses the per-volume axes, so every index is
        lifted by one; ``predict_midpoints`` treats every other axis as
        batch, which includes the stack axis.
        """
        shape = arr_st.shape[1:]
        pred_sum: np.ndarray | None = None
        for a in p.axes:
            known = arr_st[(slice(None),) + p.known_for(a)]
            n_targets = len(range(*p.target[a].indices(shape[a])))
            pred_a = predict_midpoints(known, n_targets, method, a + 1)
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

    def inverse(
        self, ctx: StageContext, payload: Any, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Dequantize ``(indices, pred, literals)``; with ``out`` (the
        pass's target view of the working array) the values land there."""
        indices, pred, literals = payload
        return self.for_level(ctx.level).dequantize(indices, pred, literals, out)


class AdaptiveLinearQuantize:
    """Reserved-index adaptive quantization (tightened bound at hard points).

    Same shape as :class:`LinearQuantize` — per-level quantizer cache,
    ``(values, pred)`` forward / ``(indices, pred, literals)`` inverse —
    but the per-level quantizer is an
    :class:`~repro.quantize.adaptive.AdaptiveLinearQuantizer` that
    tightens the effective bound by ``2**adaptive_bits`` wherever the
    coarse index magnitude reaches ``threshold``, signalled in-band via
    the reserved index range (see :mod:`repro.quantize.adaptive` for the
    wire encoding).  A separate class keeps existing headers and golden
    digests byte-frozen: the engine picks it only when an adaptive config
    is present.
    """

    def __init__(
        self,
        error_bound: float = 0.0,
        radius: int = 32768,
        adaptive_bits: int = 2,
        threshold: int = 4,
        level_eb_factors: dict[int, float] | None = None,
    ) -> None:
        # validate early: the values may come from an untrusted header
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

    def inverse(
        self, ctx: StageContext, payload: Any, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        indices, pred, literals = payload
        return self.for_level(ctx.level).dequantize(indices, pred, literals, out)


# -- index-stream transforms --------------------------------------------------


class QPTransform:
    """Adaptive quantization index prediction (the paper's contribution).

    A pure transform on one pass's index array, which the engine applies
    between quantization and entropy coding.  The wrapped kernels already
    no-op outside the configured case/levels, so the engine always calls
    it and its config decides activity.  ``inverse_multi`` inverts one pass of every volume of a
    stacked decode (:func:`~repro.compressors.interp_engine.decompress_volumes`)
    in place: it takes the ``(k,) + layout`` view of the stack's index
    buffer, whose parts are C-contiguous, and returns it.
    """

    def __init__(self, config: QPConfig | None = None) -> None:
        self.config = config or QPConfig.disabled()

    def forward(self, ctx: StageContext, q: np.ndarray) -> np.ndarray:
        with obs_span("qp"):
            return qp_forward(q, ctx.sentinel, self.config, ctx.level)

    def inverse(self, ctx: StageContext, q: np.ndarray) -> np.ndarray:
        with obs_span("qp"):
            return qp_inverse(q, ctx.sentinel, self.config, ctx.level)

    def inverse_multi(self, ctx: StageContext, qs: np.ndarray) -> np.ndarray:
        with obs_span("qp"):
            return qp_inverse_multi(qs, ctx.sentinel, self.config, ctx.level)


# -- entropy coding -----------------------------------------------------------


class HuffmanEncode:
    """Block-wise canonical Huffman over a bounded symbol alphabet.

    ``bounded_alphabet`` tells the index-stream framing to apply its
    median-centered offset window + escape mechanism before coding.
    Spans are owned by the framing layer (``compressors.base``), which
    times each stream's entropy decode as one ``huffman`` stage.
    """

    wire_id = 0
    bounded_alphabet = True

    def __init__(self, block_size: int | None = None) -> None:
        self.block_size = block_size

    def _codec(self) -> HuffmanCodec:
        return HuffmanCodec(self.block_size) if self.block_size else HuffmanCodec()

    def forward(self, ctx: StageContext, codes: np.ndarray) -> bytes:
        return self._codec().encode(codes)

    def inverse(
        self, ctx: StageContext, payload: bytes, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        # the container header carries its own block size
        return HuffmanCodec().decode(payload, out)


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

    def inverse(
        self, ctx: StageContext, payload: bytes, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        from ..codecs.rangecoder import RangeCodec

        values = RangeCodec().decode(payload)
        if out is None:
            return values
        if values.size != out.size:
            raise CorruptBlobError(
                f"range stream holds {values.size} symbols, {out.size} expected"
            )
        out[...] = values
        return out


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
