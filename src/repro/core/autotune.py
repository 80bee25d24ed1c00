"""Sampling-based auto-tuning: QP configs and the joint compressor tuner.

The paper fixes QP's best configuration offline (2-D, Case III, levels 1-2)
by exploring Figures 7-9 once.  :func:`autotune_qp` makes that exploration
*online* and per-field: candidate configs are scored on a sampled sub-volume
by the entropy reduction they achieve on the actual index arrays, and the
winner is returned — including the option of disabling QP where it would
hurt (the paper's Hurricane/HPEZ cases).

:func:`autotune` generalizes this into the HPEZ-style joint sampling tuner
(arXiv:2311.12133): it compresses a few strided blocks of the dataset and
runs a coordinate-descent search over interpolation method, axis order,
per-level error-bound scaling (QoZ's alpha/beta), the adaptive-quantizer
``adaptive_bits``, and the QP config, scoring every trial with the same
rate–distortion objective QoZ uses (``psnr - 6.02 * bits_per_point``).
The winner is returned as a :class:`TuningDecision`; compressors apply it
via their ``auto=True`` compress knob.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.characterize import shannon_entropy
from ..core.config import AdaptiveConfig, QPConfig
from ..obs import metric_count, span as obs_span

__all__ = [
    "autotune",
    "autotune_qp",
    "sample_blocks",
    "TuningDecision",
    "DEFAULT_CANDIDATES",
]

DEFAULT_CANDIDATES: tuple[QPConfig, ...] = (
    QPConfig.disabled(),
    QPConfig(dimension="2d", condition="III", max_level=2),
    QPConfig(dimension="2d", condition="II", max_level=2),
    QPConfig(dimension="1d-top", condition="III", max_level=2),
    QPConfig(dimension="1d-left", condition="III", max_level=2),
    QPConfig(dimension="2d", condition="III", max_level=1),
)


def autotune_qp(
    data: np.ndarray,
    error_bound: float,
    candidates: tuple[QPConfig, ...] = DEFAULT_CANDIDATES,
    sample_side: int = 48,
    radius: int = 32768,
) -> QPConfig:
    """Pick the candidate QP config with the lowest estimated coded size on
    a central sample of ``data`` (compressed with the plain engine).

    The score is the Shannon entropy of the QP-transformed index stream —
    the quantity QP minimizes by design (Section V-A) — so one engine run
    produces the index arrays and every candidate is scored by pure integer
    transforms on them.
    """
    from ..compressors.interp_engine import EngineConfig, compress_volume
    from ..compressors.sz3 import _center_sample
    from ..core.qp import qp_forward
    from ..utils.levels import level_passes, num_levels, pass_sizes

    sample = _center_sample(data, sample_side)
    cfg = EngineConfig(error_bound=error_bound, radius=radius)
    _, stream, _, _ = compress_volume(sample, cfg)

    # rebuild the per-pass structure of the stream to re-apply each candidate
    shape = sample.shape
    sentinel = -radius
    passes = []
    pos = 0
    for level in range(num_levels(shape), 0, -1):
        for p in level_passes(shape, level):
            psize = pass_sizes(shape, p)
            n = int(np.prod(psize))
            moved = [psize[a] for a in _moved_axes(len(shape), p.axis)]
            passes.append((level, stream[pos:pos + n].reshape(moved)))
            pos += n

    best_cfg, best_bits = candidates[0], np.inf
    for cand in candidates:
        parts = [
            np.ascontiguousarray(qp_forward(q, sentinel, cand, level)).ravel()
            for level, q in passes
        ]
        merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
        bits = shannon_entropy(merged) * max(merged.size, 1)
        if bits < best_bits:
            best_cfg, best_bits = cand, bits
    return best_cfg


def _moved_axes(ndim: int, primary: int) -> list[int]:
    axes = list(range(ndim))
    axes.remove(primary)
    return [primary] + axes


# -- joint sampling tuner -----------------------------------------------------

# the RD slope QoZ's tuner uses: ~6.02 dB of PSNR per bit/point
_RD_SLOPE = 6.02
#: coordinate-descent grids (kept small: the tuner's cost model is
#: ``trials x blocks`` engine runs over ``block_side**ndim`` points)
_INTERP_GRID = ("linear", "cubic")
_ALPHA_GRID = (1.0, 1.25, 1.5, 2.0)
_BETA_GRID = (2.0, 3.0)
_ADAPTIVE_BITS_GRID = (0, 1, 2, 3)


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of one :func:`autotune` run (serializable via ``to_dict``)."""

    interp: str
    structure: str
    axis_order: tuple[int, ...] | None
    alpha: float
    beta: float
    adaptive_bits: int
    adaptive_threshold: int
    qp: dict | None
    score: float
    adaptive_fraction: float
    n_blocks: int
    block_side: int

    def adaptive_config(self) -> AdaptiveConfig | None:
        if not self.adaptive_bits:
            return None
        return AdaptiveConfig(
            bits=self.adaptive_bits, threshold=self.adaptive_threshold
        )

    def qp_config(self) -> QPConfig:
        return QPConfig.from_dict(self.qp) if self.qp else QPConfig.disabled()

    def to_dict(self) -> dict:
        return {
            "interp": self.interp,
            "structure": self.structure,
            "axis_order": list(self.axis_order) if self.axis_order else None,
            "alpha": self.alpha,
            "beta": self.beta,
            "adaptive_bits": self.adaptive_bits,
            "adaptive_threshold": self.adaptive_threshold,
            "qp": self.qp,
            "score": self.score,
            "adaptive_fraction": self.adaptive_fraction,
            "n_blocks": self.n_blocks,
            "block_side": self.block_side,
        }


def sample_blocks(
    data: np.ndarray,
    block_side: int = 32,
    max_blocks: int = 3,
    rng: np.random.Generator | None = None,
) -> "list[np.ndarray]":
    """Strided sample blocks spanning the volume's main diagonal.

    Block starts are evenly spaced per axis with a small seeded jitter so
    repeated runs with one ``rng`` are reproducible (tests seed it from
    ``conftest``'s deterministic RNG); duplicates collapse.  Always returns
    at least one block; tiny inputs yield the whole array.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    take = tuple(min(n, block_side) for n in data.shape)
    spans = tuple(n - t for n, t in zip(data.shape, take))
    if not any(spans):
        return [np.ascontiguousarray(data[tuple(slice(0, t) for t in take)])]
    blocks: list[np.ndarray] = []
    seen: set[tuple[int, ...]] = set()
    for i in range(max_blocks):
        frac = i / max(max_blocks - 1, 1)
        start = []
        for span, t in zip(spans, take):
            jitter = int(rng.integers(0, max(t // 4, 1)))
            start.append(min(span, max(0, int(frac * span) - jitter)))
        key = tuple(start)
        if key in seen:
            continue
        seen.add(key)
        blocks.append(np.ascontiguousarray(
            data[tuple(slice(s, s + t) for s, t in zip(key, take))]
        ))
    return blocks


def autotune(
    data: np.ndarray,
    error_bound: float,
    *,
    radius: int = 32768,
    block_side: int = 32,
    max_blocks: int = 3,
    rng: np.random.Generator | None = None,
    fixed: dict | None = None,
    qp_candidates: tuple[QPConfig, ...] = DEFAULT_CANDIDATES,
    adaptive_threshold: int = 4,
) -> TuningDecision:
    """Jointly tune interp / axis order / per-level eb / adaptive_bits / QP.

    Coordinate descent over one knob at a time, each trial a full engine
    compression of every sample block scored by ``psnr - 6.02 * bpp``
    (bits from the index-stream entropy plus a 32-bit literal penalty).
    ``fixed`` pins knobs a compressor does not expose — e.g. MGARD pins
    ``{"interp": "linear", "structure": "multidim", "level_eb_factors":
    <its allocation>}`` and only QP + adaptivity are searched.
    """
    from ..compressors.base import CompressionState
    from ..compressors.interp_engine import (
        EngineConfig,
        compress_volume,
        level_error_bounds,
    )
    from ..metrics.errors import psnr_estimate
    from ..utils.levels import num_levels

    fixed = dict(fixed or {})
    blocks = sample_blocks(data, block_side, max_blocks, rng)
    metric_count("autotune.blocks", len(blocks))
    value_range = float(data.max() - data.min()) or 1.0
    factors_fn = fixed.get("level_eb_factors")

    current = {
        "interp": fixed.get("interp", "linear"),
        "structure": fixed.get("structure", "sequential"),
        "axis_order": fixed.get("axis_order"),
        "alpha": float(fixed.get("alpha", 1.0)),
        "beta": float(fixed.get("beta", 1.0)),
        "adaptive_bits": int(fixed.get("adaptive_bits", 0)),
        "qp": fixed.get("qp", QPConfig.disabled()),
    }

    def _trial(params: dict) -> tuple[float, float]:
        """RD score of one parameter set over all blocks, plus the fraction
        of points the adaptive quantizer tightened."""
        metric_count("autotune.trials")
        score = 0.0
        adaptive_pts = 0
        total_pts = 0
        bits = int(params["adaptive_bits"])
        for block in blocks:
            levels = num_levels(block.shape)
            if factors_fn is not None:
                factors = factors_fn(levels)
            else:
                factors = level_error_bounds(
                    error_bound, levels, params["alpha"], params["beta"]
                )
            cfg = EngineConfig(
                error_bound=error_bound,
                radius=radius,
                interp=params["interp"],
                structure=params["structure"],
                axis_order=params["axis_order"],
                level_eb_factors=factors,
                qp=params["qp"],
                adaptive=(
                    AdaptiveConfig(bits=bits, threshold=adaptive_threshold)
                    if bits else None
                ),
            )
            st = CompressionState()
            _, stream, literals, _ = compress_volume(block, cfg, st)
            bpp = (
                shannon_entropy(stream) * stream.size + 32.0 * literals.size
            ) / block.size
            psnr = psnr_estimate(block, st.extras["decoded"], value_range)
            score += psnr - _RD_SLOPE * bpp
            if bits:
                idx = st.index_volume
                adaptive_pts += int(np.count_nonzero(
                    (np.abs(idx) >= adaptive_threshold) & (idx != -radius)
                ))
            total_pts += block.size
        return score, (adaptive_pts / total_pts if total_pts else 0.0)

    with obs_span("autotune"):
        best_score, best_fraction = _trial(current)

        def _descend(key: str, candidates) -> None:
            nonlocal best_score, best_fraction
            for cand in candidates:
                if cand == current[key]:
                    continue
                trial = dict(current)
                trial[key] = cand
                score, fraction = _trial(trial)
                if score > best_score:
                    best_score, best_fraction = score, fraction
                    current[key] = cand

        ndim = data.ndim
        if "interp" not in fixed:
            _descend("interp", _INTERP_GRID)
        if "axis_order" not in fixed and "structure" not in fixed and ndim > 1:
            _descend("axis_order", (None, tuple(reversed(range(ndim)))))
        if factors_fn is None and "alpha" not in fixed:
            pairs = [
                (a, b)
                for a in _ALPHA_GRID
                for b in (_BETA_GRID if a != 1.0 else _BETA_GRID[:1])
            ]
            best_pair = (current["alpha"], current["beta"])
            for a, b in pairs:
                if (a, b) == best_pair:
                    continue
                trial = dict(current)
                trial["alpha"], trial["beta"] = a, b
                score, fraction = _trial(trial)
                if score > best_score:
                    best_score, best_fraction = score, fraction
                    best_pair = (a, b)
            current["alpha"], current["beta"] = best_pair
        if "adaptive_bits" not in fixed:
            _descend("adaptive_bits", _ADAPTIVE_BITS_GRID)
        if "qp" not in fixed:
            _descend("qp", qp_candidates)

    qp_cfg: QPConfig = current["qp"]
    return TuningDecision(
        interp=current["interp"],
        structure=current["structure"],
        axis_order=(
            tuple(current["axis_order"]) if current["axis_order"] else None
        ),
        alpha=current["alpha"],
        beta=current["beta"],
        adaptive_bits=int(current["adaptive_bits"]),
        adaptive_threshold=int(adaptive_threshold),
        qp=qp_cfg.to_dict() if qp_cfg.enabled else None,
        score=float(best_score),
        adaptive_fraction=float(best_fraction),
        n_blocks=len(blocks),
        block_side=int(block_side),
    )
