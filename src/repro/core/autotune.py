"""The joint sampling auto-tuner and the RD scorer it shares with QoZ.

The paper fixes QP's best configuration offline (2-D, Case III, levels 1-2)
by exploring Figures 7-9 once.  :func:`autotune` makes that choice online
and per field, together with the engine knobs around it — the HPEZ-style
joint sampling tuner (arXiv:2311.12133).  It compresses a few strided
blocks of the dataset and runs a coordinate-descent search over
interpolation method, axis order, per-level error-bound scaling (QoZ's
alpha/beta), the adaptive-quantizer ``adaptive_bits``, and the QP config,
including the option of disabling QP where it would hurt (the paper's
Hurricane/HPEZ cases).  Every trial is scored by :func:`score_run`, the
rate–distortion objective QoZ uses (``psnr - 6.02 * bits_per_point``),
which QoZ's own alpha/beta tuner calls too.

QP is lossless on the quantization indices, so a QP candidate changes
neither the decoded values nor the literals: every engine trial runs with
QP off, and QP — the QP step's candidates, or a pinned config — is scored
by running the QP stage over the trial's per-pass index arrays (the pass
views of :func:`~repro.compressors.interp_engine.compress_volumes`)
instead of compressing the blocks again.  The winner is returned as a
:class:`TuningDecision`; compressors apply it via their ``auto=True``
compress knob.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.characterize import shannon_entropy
from ..core.config import AdaptiveConfig, QPConfig
from ..obs import metric_count, span as obs_span

__all__ = [
    "autotune",
    "score_run",
    "sample_blocks",
    "BlockRun",
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


# -- the RD scorer ------------------------------------------------------------

# the RD slope QoZ's tuner uses: ~6.02 dB of PSNR per bit/point
_RD_SLOPE = 6.02


@dataclass(frozen=True)
class BlockRun:
    """What the RD score needs of one engine run over one block besides
    its index stream, so the stream can be re-scored on its own."""

    psnr: float
    n_literals: int
    n_points: int

    def score(self, stream: np.ndarray) -> float:
        """``psnr - 6.02 * bpp``, with bits from the index-stream entropy
        plus a 32-bit penalty per literal."""
        bits = shannon_entropy(stream) * stream.size + 32.0 * self.n_literals
        return self.psnr - _RD_SLOPE * (bits / self.n_points)


def score_run(stack: np.ndarray, cfg, value_range: float):
    """Compress the equal blocks ``stack[i]`` with engine config ``cfg`` in
    one engine run and score each block.

    Returns ``(scores, runs, passes)``: per block the RD score and the
    :class:`BlockRun` it came from, and the run's ``(level, indices)``
    pass views (:func:`~repro.compressors.interp_engine.compress_volumes`;
    ``indices[i]`` is block ``i``'s pass as streamed, which with ``cfg``'s
    QP off — every tuner trial — is the quantizer's indices).
    PSNR is measured against ``value_range`` (:func:`autotune` passes the
    whole field's range, not the block's), from the block's
    :func:`~repro.metrics.errors.mse_rows` entry, bit-equal to its own
    ``mse``.  An exactly reconstructed block (a flat land mask, a
    saturated plateau) scores as an error at the dtype's resolution,
    ``-20 log10(eps)`` (138 dB for float32), not as ``+inf``, which would
    tie every trial.
    """
    from ..compressors.interp_engine import compress_volumes
    from ..metrics.errors import mse_rows

    _, streams, literals, _, decoded, passes = compress_volumes(stack, cfg)
    errs = mse_rows(stack, decoded).tolist()
    n_points = stack[0].size
    scores, runs = [], []
    for err, lits, stream in zip(errs, literals, streams):
        if err:
            psnr = 20.0 * np.log10(value_range / np.sqrt(err))
        else:
            psnr = -20.0 * np.log10(np.finfo(stack.dtype).eps)
        run = BlockRun(psnr, lits.size, n_points)
        scores.append(run.score(stream))
        runs.append(run)
    return scores, runs, passes


# -- joint sampling tuner -----------------------------------------------------

#: coordinate-descent grids (kept small: the tuner's cost model is one
#: engine run per trial over ``blocks x block_side**ndim`` points)
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

    Coordinate descent over one knob at a time.  Each trial compresses
    the stacked sample blocks in one engine run and sums the blocks'
    :func:`score_run` scores — except in the QP step, which scores each
    candidate by running the QP stage over the incumbent's per-pass index
    arrays: that gives the index stream, and so the score, a full engine
    run with the candidate would.  ``fixed`` pins knobs a compressor does
    not expose — e.g. MGARD pins ``{"interp": "linear", "structure":
    "multidim", "level_eb_factors": <its allocation>}`` and only QP +
    adaptivity are searched.
    """
    from ..compressors.interp_engine import EngineConfig, level_error_bounds
    from ..pipeline.stages import QPTransform, StageContext
    from ..utils.levels import num_levels

    fixed = dict(fixed or {})
    blocks = sample_blocks(data, block_side, max_blocks, rng)
    metric_count("autotune.blocks", len(blocks))
    # every block takes the same extent per axis, so they stack
    stack = np.stack(blocks)
    levels = num_levels(stack.shape[1:])
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

    def _qp_score(view: tuple, qp: QPConfig) -> float:
        """The summed RD score of a trial's blocks with ``qp`` run over
        its QP-off pass views: QP is lossless on the indices, so PSNR and
        literals stay the trial's and only the index streams change."""
        runs, passes = view
        transform = QPTransform(qp)
        ctx = StageContext(sentinel=-radius)
        score = 0.0
        for i, run in enumerate(runs):
            parts = [np.empty(0, dtype=np.int64)]  # a block may have no passes
            for level, q in passes:
                ctx.level = level
                parts.append(transform.forward(ctx, q[i]).ravel())
            score += run.score(np.concatenate(parts))
        return score

    def _trial(params: dict) -> tuple[float, float, tuple]:
        """One engine run of a parameter set over the stacked blocks, with
        QP off: the summed RD score (a pinned QP config scored on the pass
        views, as the QP step scores), the fraction of points the adaptive
        quantizer tightened, and the view the QP step re-scores — each
        block's :class:`BlockRun` and the run's ``(level, indices)``
        passes."""
        metric_count("autotune.trials")
        bits = int(params["adaptive_bits"])
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
            qp=QPConfig.disabled(),
            adaptive=(
                AdaptiveConfig(bits=bits, threshold=adaptive_threshold)
                if bits else None
            ),
        )
        scores, runs, passes = score_run(stack, cfg, value_range)
        if params["qp"].enabled:
            score = _qp_score((runs, passes), params["qp"])
        else:
            score = 0.0
            for block_score in scores:  # one fixed order: the sum is compared
                score += block_score
        adaptive_pts = sum(
            int(np.count_nonzero(
                (np.abs(q) >= adaptive_threshold) & (q != -radius)
            ))
            for _, q in passes
        ) if bits else 0
        fraction = adaptive_pts / stack.size if stack.size else 0.0
        return score, fraction, (runs, passes)

    def _qp_trial(params: dict) -> tuple[float, float, tuple]:
        """Score ``params["qp"]`` on the incumbent's view; the adaptive
        fraction stays the incumbent's."""
        metric_count("autotune.trials")
        return _qp_score(best_view, params["qp"]), best_fraction, best_view

    with obs_span("autotune"):
        best_score, best_fraction, best_view = _trial(current)

        def _descend(steps, trial=_trial) -> None:
            """Try each step (a dict of knob values) against the incumbent
            in turn; a step that scores higher becomes the incumbent."""
            nonlocal best_score, best_fraction, best_view
            for step in steps:
                if all(current[k] == v for k, v in step.items()):
                    continue
                score, fraction, view = trial({**current, **step})
                if score > best_score:
                    best_score, best_fraction, best_view = score, fraction, view
                    current.update(step)

        ndim = data.ndim
        if "interp" not in fixed:
            _descend({"interp": m} for m in _INTERP_GRID)
        if "axis_order" not in fixed and "structure" not in fixed and ndim > 1:
            _descend(
                {"axis_order": order}
                for order in (None, tuple(reversed(range(ndim))))
            )
        if factors_fn is None:
            # every factor is 1/min(alpha**(l-1), beta), so a step with
            # alpha or beta at 1 leaves all of them at 1 — the incumbent's
            # exact engine run (alpha and beta start at 1 unless pinned);
            # a pinned knob keeps its value and only the other one varies
            alphas = (current["alpha"],) if "alpha" in fixed else _ALPHA_GRID
            betas = (current["beta"],) if "beta" in fixed else _BETA_GRID
            _descend(
                {"alpha": a, "beta": b}
                for a in alphas if a != 1.0
                for b in betas if b != 1.0
            )
        if "adaptive_bits" not in fixed:
            _descend({"adaptive_bits": b} for b in _ADAPTIVE_BITS_GRID)
        if "qp" not in fixed:
            _descend(({"qp": c} for c in qp_candidates), _qp_trial)

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
