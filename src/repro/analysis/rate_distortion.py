"""Rate–distortion sweeps: the machinery behind Figures 10–15."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compressors import base_compressor
from ..core.config import QPConfig
from ..metrics import EvalResult, evaluate

__all__ = ["RDPoint", "rd_sweep", "qp_comparison", "max_cr_gain"]

#: the paper sweeps value-range-relative error bounds around this ladder
DEFAULT_REL_BOUNDS = (1e-2, 1e-3, 1e-4, 1e-5)


@dataclass
class RDPoint:
    """One point of a rate-distortion curve (bit-rate vs PSNR)."""

    rel_bound: float
    base: EvalResult
    qp: EvalResult

    @property
    def cr_gain(self) -> float:
        """Relative CR increase of +QP over the base at identical PSNR."""
        return self.qp.cr / self.base.cr - 1.0


def rd_sweep(
    compressor: str,
    data: np.ndarray,
    rel_bounds: tuple[float, ...] = DEFAULT_REL_BOUNDS,
    qp: QPConfig | None = None,
    **kwargs,
) -> list[EvalResult]:
    """Evaluate one compressor over a ladder of value-range-relative bounds."""
    value_range = float(data.max() - data.min()) or 1.0
    results = []
    for rb in rel_bounds:
        comp = base_compressor(compressor, rb * value_range, qp=qp, **kwargs)
        results.append(evaluate(comp, data, label=compressor + ("+QP" if qp and qp.enabled else "")))
    return results


def qp_comparison(
    compressor: str,
    data: np.ndarray,
    rel_bounds: tuple[float, ...] = DEFAULT_REL_BOUNDS,
    qp: QPConfig | None = None,
    **kwargs,
) -> list[RDPoint]:
    """Base vs +QP rate-distortion pairs — the paper's left-shift curves.

    The PSNR of each pair must match exactly (QP never alters the data);
    this is asserted."""
    qp = qp or QPConfig()
    base = rd_sweep(compressor, data, rel_bounds, qp=None, **kwargs)
    plus = rd_sweep(compressor, data, rel_bounds, qp=qp, **kwargs)
    points = []
    for rb, b, q in zip(rel_bounds, base, plus):
        if abs(b.psnr - q.psnr) > 1e-9 and np.isfinite(b.psnr):
            raise AssertionError(
                f"QP changed PSNR on {compressor} at {rb}: {b.psnr} vs {q.psnr}"
            )
        points.append(RDPoint(rel_bound=rb, base=b, qp=q))
    return points


def max_cr_gain(points: list[RDPoint]) -> tuple[float, float]:
    """(best relative CR gain, PSNR at that point) — the annotation the paper
    attaches to each rate-distortion figure."""
    best = max(points, key=lambda p: p.cr_gain)
    return best.cr_gain, best.base.psnr
