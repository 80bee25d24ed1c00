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

from ..core.config import AdaptiveConfig, QPConfig
from .interp_engine import EngineConfig, compress_volume, level_error_bounds
from .sz3 import SZ3, _center_sample

__all__ = ["QoZ"]

_ALPHA_CANDIDATES = (1.0, 1.25, 1.5, 2.0)
_BETA_CANDIDATES = (1.5, 2.0, 3.0, 4.0)
# equal-slope rate-distortion weight: ~6.02 dB of PSNR per bit/point
_RD_SLOPE = 6.02


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
    by HPEZ)."""
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
            from ..core.characterize import shannon_entropy
            from ..metrics.errors import psnr_estimate
            from .base import CompressionState

            st = CompressionState()
            _, stream, literals, _ = compress_volume(sample, cfg, st)
            bpp = (
                shannon_entropy(stream) * stream.size + 32.0 * literals.size
            ) / sample.size
            psnr = psnr_estimate(sample, st.extras["decoded"], value_range)
            score = psnr - _RD_SLOPE * bpp
            if score > best_score:
                best, best_score = (a, b), score
    return best
