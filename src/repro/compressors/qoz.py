"""QoZ-like compressor: SZ3 plus quality-oriented auto-tuning.

QoZ extends SZ3 with (a) exact anchor-point storage (inherited from the shared
engine), (b) per-level error bounds ``eb_l = eb / min(alpha**(l-1), beta)`` so
coarse levels — whose values seed every interpolation below them — are coded
more precisely, and (c) sampling-based auto-tuning of ``(alpha, beta)``
against a rate–distortion score.  QoZ never switches to Lorenzo, which the
paper uses to explain its steadier QP overhead.
"""
from __future__ import annotations

import numpy as np

from ..core.autotune import score_run
from ..core.config import AdaptiveConfig, QPConfig
from .interp_engine import EngineConfig, level_error_bounds
from .sz3 import SZ3, _center_sample

__all__ = ["QoZ"]

_ALPHA_CANDIDATES = (1.0, 1.25, 1.5, 2.0)
_BETA_CANDIDATES = (1.5, 2.0, 3.0, 4.0)


class QoZ(SZ3):
    """QoZ-like compressor (quality-oriented SZ3 successor)."""

    name = "qoz"
    traits = {
        "speed": "high",
        "ratio": "medium",
        "resolution_reduction": False,
        "gpu": True,
        "qoi": False,
        "quality_oriented": True,
    }

    def __init__(
        self,
        error_bound: float,
        qp: QPConfig | None = None,
        alpha: float | str = "auto",
        beta: float | str = "auto",
        interp: str = "auto",
        radius: int = 32768,
        lossless_backend: str = "zlib",
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        super().__init__(
            error_bound,
            qp=qp,
            predictor="interp",  # QoZ does not make the Lorenzo switch
            interp=interp,
            radius=radius,
            lossless_backend=lossless_backend,
            adaptive=adaptive,
        )
        self.alpha = alpha
        self.beta = beta

    def _engine_config(self, data: np.ndarray) -> EngineConfig:
        from ..utils.levels import num_levels

        levels = num_levels(data.shape)
        alpha, beta = self._tune(data, levels)
        return EngineConfig(
            error_bound=self.error_bound,
            radius=self.radius,
            interp=self.interp,
            axis_order=self.axis_order,
            level_eb_factors=level_error_bounds(self.error_bound, levels, alpha, beta),
            qp=self.qp,
            adaptive=self.adaptive,
        )

    def _tune(self, data: np.ndarray, levels: int) -> tuple[float, float]:
        return tune_level_eb(
            data,
            self.error_bound,
            levels,
            alpha=self.alpha,
            beta=self.beta,
            interp=self.interp,
            radius=self.radius,
        )


def tune_level_eb(
    data: np.ndarray,
    error_bound: float,
    levels: int,
    alpha: float | str = "auto",
    beta: float | str = "auto",
    interp: str = "auto",
    radius: int = 32768,
) -> tuple[float, float]:
    """Pick (alpha, beta) maximizing ``psnr - 6.02 * bits_per_point`` on a
    central sample (QoZ's quality-metric-oriented auto-tuner, also inherited
    by HPEZ), scored by the joint tuner's
    :func:`~repro.core.autotune.score_run`."""
    if alpha != "auto" and beta != "auto":
        return float(alpha), float(beta)
    alphas = _ALPHA_CANDIDATES if alpha == "auto" else (float(alpha),)
    betas = _BETA_CANDIDATES if beta == "auto" else (float(beta),)
    sample = _center_sample(data, 32)
    value_range = float(sample.max() - sample.min()) or 1.0
    best, best_score = (alphas[0], betas[0]), -np.inf
    for a in alphas:
        for b in betas:
            if a == 1.0 and b != betas[0]:
                continue  # alpha=1 makes beta irrelevant
            cfg = EngineConfig(
                error_bound=error_bound,
                radius=radius,
                interp=interp,
                level_eb_factors=level_error_bounds(error_bound, levels, a, b),
                qp=QPConfig.disabled(),
            )
            score = score_run(sample, cfg, value_range)[0]
            if score > best_score:
                best, best_score = (a, b), score
    return best
