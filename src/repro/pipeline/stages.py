"""The stage classes the interpolation engine calls and the benchmark
tracer hooks.

:class:`InterpPredict` is the engine's interpolation prediction and
:class:`QPTransform` the paper's index transform, applied between
quantization and entropy coding; :class:`LorenzoPredict` and
:class:`RegressionPredict` wrap SZ3's alternate predictors in
``forward``/``inverse``.  The :class:`StageContext` carries the state a
walk threads through them (current level, quantizer sentinel, output
dtype).  The quantizers (:mod:`repro.quantize`) and the entropy coders
(:mod:`repro.codecs`) have no stage class: the engine walks and the
index-stream framing call them directly.

This module must stay importable without :mod:`repro.compressors`, whose
engine imports it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.config import QPConfig
from ..core.qp import qp_forward, qp_inverse, qp_inverse_multi
from ..obs import span as obs_span
from ..predictors.interpolation import predict_midpoints

__all__ = [
    "StageContext",
    "InterpPredict",
    "LorenzoPredict",
    "RegressionPredict",
    "QPTransform",
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
