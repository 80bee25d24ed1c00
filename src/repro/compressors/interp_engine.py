"""Shared multilevel interpolation compression engine.

SZ3, QoZ and HPEZ are thin wrappers over this engine; they differ only in the
:class:`EngineConfig` they construct (level structure, per-level error bounds,
interpolation method selection, axis order, QP settings).  MGARD expresses its
hierarchical decomposition as the *multidim* structure of the same engine.

The engine is the driver for the stage objects in
:mod:`repro.pipeline.stages`: per pass it invokes the prediction stage,
the quantization stage, overwrites the working array with decoded values
(so later passes predict from what the decompressor will see), walks the
config's index-transform stages over the pass's index array (QP's
Algorithm 1 insertion point — the engine itself no longer special-cases
any transform), and appends the result to the index stream.  Decompression
replays the identical pass schedule with each stage inverted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.config import AdaptiveConfig, QPConfig
from ..obs import span as stage
from ..pipeline.stages import (
    AdaptiveLinearQuantize,
    InterpPredict,
    LinearQuantize,
    QPTransform,
    StageContext,
)
from ..quantize.linear import LinearQuantizer
from ..utils.levels import (
    MDPass,
    Pass,
    anchor_slices,
    level_passes,
    level_passes_multidim,
    num_levels,
    pass_sizes,
)
from .base import CompressionState

__all__ = [
    "EngineConfig",
    "compress_volume",
    "decompress_volume",
    "decompress_volumes",
    "level_error_bounds",
    "predict_fill",
]

# thin aliases: the prediction kernels moved into the InterpPredict stage
# (repro.pipeline.stages); these names remain the engine's public surface
_pass_prediction = InterpPredict.pass_prediction
_pass_prediction_stacked = InterpPredict.pass_prediction_stacked
_choose_method_pred = InterpPredict.choose


def _choose_method(arr: np.ndarray, p: Pass | MDPass) -> str:
    return InterpPredict.choose(arr, p)[0]


@dataclass
class EngineConfig:
    """Parameters of one engine run (serialized into the blob header)."""

    error_bound: float
    radius: int = 32768
    interp: str = "auto"  # "linear" | "cubic" | "auto" (choose per level)
    structure: str = "sequential"  # or "multidim" (HPEZ)
    axis_order: tuple[int, ...] | None = None
    level_eb_factors: dict[int, float] = field(default_factory=dict)  # QoZ tuning
    qp: QPConfig = field(default_factory=QPConfig.disabled)
    #: reserved-index adaptive quantization; ``None`` keeps the classic
    #: quantize stage (and the existing wire bytes) exactly as before
    adaptive: AdaptiveConfig | None = None
    #: optional per-level scheme auto-tuner (HPEZ): called with
    #: (arr, level, cfg), returns {"structure": ..., "axis_order": ...};
    #: not serialized — the chosen schemes are recorded in the blob meta.
    scheme_selector: Any = None
    #: per-level schemes fixed up-front (populated from the blob meta on
    #: decompression, or by the selector during compression)
    level_schemes: dict[int, dict] = field(default_factory=dict)

    def eb_for_level(self, level: int) -> float:
        return self.error_bound * self.level_eb_factors.get(level, 1.0)

    def scheme_for_level(self, level: int) -> tuple[str, tuple[int, ...] | None]:
        scheme = self.level_schemes.get(level)
        if scheme is None:
            return self.structure, self.axis_order
        order = scheme.get("axis_order")
        return scheme["structure"], tuple(order) if order else None

    # -- stage construction --------------------------------------------------

    def predict_stage(self) -> InterpPredict:
        return InterpPredict(self.interp)

    def quantize_stage(self) -> "LinearQuantize | AdaptiveLinearQuantize":
        if self.adaptive is not None:
            return AdaptiveLinearQuantize(
                self.error_bound,
                self.radius,
                adaptive_bits=self.adaptive.bits,
                threshold=self.adaptive.threshold,
                level_eb_factors=self.level_eb_factors,
            )
        return LinearQuantize(self.error_bound, self.radius, self.level_eb_factors)

    def index_transforms(self) -> tuple:
        """Index-stream transform stages applied between quantization and
        entropy coding, in forward order.  The engine walks these
        generically; QP is currently the only registered index transform
        (each wrapped kernel no-ops outside its configured case/levels)."""
        return (QPTransform(self.qp),)

    @classmethod
    def from_meta(cls, meta: dict[str, Any], error_bound: float) -> "EngineConfig":
        """Rebuild the decode-side config from the blob's engine meta."""
        return cls(
            error_bound=error_bound,
            radius=int(meta["radius"]),
            structure=meta["structure"],
            axis_order=tuple(meta["axis_order"]) if meta["axis_order"] else None,
            level_schemes={
                int(k): v for k, v in meta.get("level_schemes", {}).items()
            },
            level_eb_factors={
                int(k): float(v) for k, v in meta["level_eb_factors"].items()
            },
            qp=QPConfig.from_dict(meta["qp"]),
            adaptive=(
                AdaptiveConfig.from_dict(meta["adaptive"])
                if meta.get("adaptive") is not None
                else None
            ),
        )


def level_error_bounds(eb: float, levels: int, alpha: float, beta: float) -> dict[int, float]:
    """QoZ-style per-level error-bound factors: level ``l`` uses
    ``eb / min(alpha**(l-1), beta)`` so coarse levels are encoded more
    precisely (their errors propagate through the interpolation)."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be >= 1")
    return {l: 1.0 / min(alpha ** (l - 1), beta) for l in range(1, levels + 1)}


def _passes_for_level(
    shape: tuple[int, ...], level: int, cfg: EngineConfig
) -> list[Pass | MDPass]:
    structure, axis_order = cfg.scheme_for_level(level)
    if structure == "multidim":
        return level_passes_multidim(shape, level)
    return level_passes(shape, level, axis_order)


def trial_level_bits(
    arr: np.ndarray, level: int, cfg: EngineConfig, scheme: dict
) -> float:
    """Estimated coded size (entropy bits + literal penalty) of one level
    under a candidate scheme, evaluated on a scratch copy of the working
    array.  Used by HPEZ's per-level scheme auto-tuner."""
    from dataclasses import replace

    from ..core.characterize import shannon_entropy

    # A level at stride s only ever touches the stride-s subgrid, and its
    # passes are exactly the level-1 passes of that subgrid (same values,
    # same schedule, same quantizer) — so the scratch copy can shrink from
    # the full array to the affected region, an 8x memory/copy saving per
    # trial in 3-D at level 2 and more above.
    s = 1 << (level - 1)
    if s > 1:
        work = arr[tuple(slice(None, None, s) for _ in arr.shape)].copy()
        pass_level = 1
    else:
        work = arr.copy()
        pass_level = level
    probe = replace(
        cfg,
        structure=scheme["structure"],
        axis_order=scheme.get("axis_order"),
        level_schemes={},
        scheme_selector=None,
    )
    quantizer = LinearQuantizer(probe.eb_for_level(level), probe.radius)
    passes = _passes_for_level(work.shape, pass_level, probe)
    if not passes:
        return 0.0
    method = _choose_method(work, passes[0]) if probe.interp == "auto" else probe.interp
    bits = 0.0
    for p in passes:
        pred = _pass_prediction(work, p, method)
        view = work[p.target]
        res = quantizer.quantize(view, pred)
        view[...] = res.decoded
        bits += shannon_entropy(res.indices) * res.indices.size
        bits += 8.0 * work.dtype.itemsize * res.literals.size
    return bits


def compress_volume(
    data: np.ndarray,
    cfg: EngineConfig,
    state: CompressionState | None = None,
    level_stats: "list[dict] | None" = None,
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray]:
    """Run the interpolation pipeline over ``data``.

    Returns ``(meta, index_stream, literals, anchors)``: ``meta`` holds
    everything the decompressor needs (levels, chosen methods, transform
    configs), ``index_stream`` is the concatenated (transform-applied)
    quantization indices of every pass in schedule order, ``literals`` the
    unpredictable values in the same order, and ``anchors`` the exact
    coarsest-grid values.

    ``level_stats``, when a list, collects one dict per pass in schedule
    order — ``{"level", "indices", "literals", "max_residual"}`` — where
    ``indices`` is the pass's index array before the index transforms,
    interpolation axis first (the layout the transforms see),
    ``literals`` the pass's literal count, and ``max_residual`` the largest
    |original - prediction| of the pass in float64.  The progressive
    compressor uses these to split the streams at level boundaries and to
    derive per-level achievable error bounds; the auto-tuner re-scores
    index transforms on ``indices`` without another engine run.  The wire
    bytes are unaffected.
    """
    arr = data.copy()
    shape = arr.shape
    levels = num_levels(shape)
    anchors = arr[anchor_slices(shape)].copy()

    predictor = cfg.predict_stage()
    quantize = cfg.quantize_stage()
    transforms = cfg.index_transforms()
    ctx = StageContext(sentinel=quantize.sentinel, dtype=data.dtype)

    if state is not None:
        state.index_volume = np.zeros(shape, dtype=np.int64)
        state.extras["index_volume_qp"] = np.zeros(shape, dtype=np.int64)
        state.extras["pass_levels"] = np.zeros(shape, dtype=np.int8)

    streams: list[np.ndarray] = []
    literal_parts: list[np.ndarray] = []
    methods: dict[int, str] = {}

    for level in range(levels, 0, -1):
        ctx.level = level
        if cfg.scheme_selector is not None and level not in cfg.level_schemes:
            cfg.level_schemes[level] = cfg.scheme_selector(arr, level, cfg)
        passes = _passes_for_level(shape, level, cfg)
        if not passes:
            continue
        first_pred: np.ndarray | None = None
        if cfg.interp == "auto":
            with stage("predict"):
                # the selection already computed the winning method's
                # prediction for the first pass — reuse it below
                methods[level], first_pred = InterpPredict.choose(arr, passes[0])
        else:
            methods[level] = cfg.interp
        ctx.method = methods[level]
        for p in passes:
            with stage("predict"):
                pred = first_pred if p is passes[0] and first_pred is not None \
                    else predictor.forward(ctx, (arr, p))
            target_view = arr[p.target]
            with stage("quantize"):
                res = quantize.forward(ctx, (target_view, pred))
            q_out = np.moveaxis(res.indices, p.axis, 0)
            if level_stats is not None:
                # measured before the overwrite below: target_view still
                # holds the working values the prediction was scored against
                diff = np.abs(np.subtract(target_view, pred, dtype=np.float64))
                level_stats.append({
                    "level": level,
                    "indices": q_out,
                    "literals": int(res.literals.size),
                    "max_residual": float(diff.max()) if diff.size else 0.0,
                })
            target_view[...] = res.decoded  # future passes see decoded values
            for t in transforms:
                q_out = t.forward(ctx, q_out)
            streams.append(np.ascontiguousarray(q_out).ravel())
            literal_parts.append(res.literals)
            if state is not None:
                state.index_volume[p.target] = res.indices
                state.extras["index_volume_qp"][p.target] = np.moveaxis(q_out, 0, p.axis)
                state.extras["pass_levels"][p.target] = level

    index_stream = (
        np.concatenate(streams) if streams else np.empty(0, dtype=np.int64)
    )
    literals = (
        np.concatenate(literal_parts) if literal_parts else np.empty(0, dtype=data.dtype)
    )
    meta = {
        "levels": levels,
        "methods": {str(k): v for k, v in methods.items()},
        "structure": cfg.structure,
        "axis_order": list(cfg.axis_order) if cfg.axis_order else None,
        "level_schemes": {
            str(k): {
                "structure": v["structure"],
                "axis_order": list(v["axis_order"]) if v.get("axis_order") else None,
            }
            for k, v in cfg.level_schemes.items()
        },
        "radius": cfg.radius,
        "level_eb_factors": {str(k): v for k, v in cfg.level_eb_factors.items()},
    }
    for t in transforms:
        meta[t.meta_key] = t.config.to_dict()
    if cfg.adaptive is not None:
        # only written when enabled: absence keeps every pre-adaptive blob
        # byte-identical (golden digests stay frozen)
        meta["adaptive"] = cfg.adaptive.to_dict()
    if state is not None:
        state.extras["decoded"] = arr
    return meta, index_stream, literals, anchors


def decompress_volume(
    meta: dict[str, Any],
    index_stream: np.ndarray,
    literals: np.ndarray,
    anchors: np.ndarray,
    shape: tuple[int, ...],
    dtype: np.dtype,
    error_bound: float,
    exact_streams: bool = True,
    stop_level: int = 0,
) -> "np.ndarray | tuple[np.ndarray, int, int]":
    """Replay the pass schedule and invert every stage.

    With ``exact_streams`` (the default) the streams must be consumed fully
    and the array alone is returned.  With ``exact_streams=False`` the caller
    passes shared streams that may extend past this volume (HPEZ blocks) and
    receives ``(array, indices_consumed, literals_consumed)``.
    ``stop_level > 0`` stops before the finer levels (MGARD's resolution
    reduction) — their streams are simply left unread, so exactness checks
    are skipped.
    """
    cfg = EngineConfig.from_meta(meta, error_bound)
    methods = {int(k): v for k, v in meta["methods"].items()}
    levels = int(meta["levels"])

    predictor = cfg.predict_stage()
    quantize = cfg.quantize_stage()
    transforms = cfg.index_transforms()
    ctx = StageContext(sentinel=quantize.sentinel, dtype=dtype)

    arr = np.zeros(shape, dtype=dtype)
    arr[anchor_slices(shape)] = anchors.reshape(arr[anchor_slices(shape)].shape)

    spos = 0
    lpos = 0
    for level in range(levels, stop_level, -1):
        ctx.level = level
        passes = _passes_for_level(shape, level, cfg)
        if not passes:
            continue
        ctx.method = methods[level]
        for p in passes:
            moved_shape, count = _stream_layout(shape, p)
            q = index_stream[spos:spos + count].reshape(moved_shape)
            spos += count
            for t in reversed(transforms):
                q = t.inverse(ctx, q)
            indices = np.moveaxis(q, 0, p.axis)
            n_lit = int((indices == quantize.sentinel).sum())
            lits = literals[lpos:lpos + n_lit]
            lpos += n_lit
            with stage("predict"):
                pred = predictor.forward(ctx, (arr, p))
            with stage("quantize"):
                arr[p.target] = quantize.inverse(ctx, (indices, pred, lits))
    if stop_level or not exact_streams:
        if exact_streams:
            return arr
        return arr, spos, lpos
    if spos != index_stream.size:
        raise ValueError("index stream size mismatch")
    if lpos != literals.size:
        raise ValueError("literal stream size mismatch")
    return arr


def predict_fill(
    arr: np.ndarray, meta: dict[str, Any], stop_level: int
) -> np.ndarray:
    """Fill levels ``stop_level .. 1`` of ``arr`` with predictions only.

    The prediction-only counterpart of the decode loop: after a prefix
    decode reconstructed levels above ``stop_level``
    (``decompress_volume(..., stop_level=stop_level)``), this replays the
    remaining pass schedule applying each pass's interpolation *without*
    corrections — exactly what a progressive preview shows for the levels
    whose streams have not arrived yet.  The first finer pass predicts
    from decoded values only, so its predictions are bit-identical to the
    full decoder's.  Mutates and returns ``arr``.
    """
    cfg = EngineConfig.from_meta(meta, error_bound=1.0)
    methods = {int(k): v for k, v in meta["methods"].items()}
    for level in range(stop_level, 0, -1):
        for p in _passes_for_level(arr.shape, level, cfg):
            with stage("predict"):
                arr[p.target] = _pass_prediction(arr, p, methods[level])
    return arr


def _stream_layout(
    shape: tuple[int, ...], p: Pass | MDPass
) -> tuple[tuple[int, ...], int]:
    """Shape and size of pass ``p``'s index array as it sits in the stream:
    interpolation axis first, the other axes in order (``compress_volume``
    moves it so before the index transforms)."""
    size = pass_sizes(shape, p)
    return (size[p.axis],) + size[:p.axis] + size[p.axis + 1:], int(np.prod(size))


# -- batched decompression ---------------------------------------------------

#: meta keys that must match across volumes for them to share one pass
#: schedule (methods and level_eb_factors may differ — they are only used
#: per-volume, never inside the batched transform inverse).
_SCHEDULE_KEYS = (
    "levels", "structure", "axis_order", "level_schemes", "radius", "qp",
    "adaptive",
)


def _inverse_transforms_multi(
    ctx: StageContext, transforms: tuple, q_views: "list[np.ndarray]"
) -> np.ndarray:
    """Invert the index-transform chain across a batch of equal-schedule
    pass views; returns the results stacked along a new leading axis.
    Transforms exposing ``inverse_multi`` (QP's wavefront inverse) handle
    the whole batch in one call; others fall back to per-view inversion."""
    if not transforms:
        return np.stack(q_views)
    stacked: np.ndarray | None = None
    for t in reversed(transforms):
        if stacked is None:
            multi = getattr(t, "inverse_multi", None)
            if multi is not None:
                stacked = multi(ctx, q_views)
            else:
                stacked = np.stack([t.inverse(ctx, q) for q in q_views])
        else:
            stacked = np.stack([
                t.inverse(ctx, stacked[i]) for i in range(stacked.shape[0])
            ])
    return stacked


def decompress_volumes(
    items: "list[tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.dtype, float]]",
) -> "list[np.ndarray]":
    """Decompress several volumes, batching the transform inverse across
    them.

    ``items`` holds ``(meta, index_stream, literals, anchors, shape, dtype,
    error_bound)`` per volume — the :func:`decompress_volume` signature.
    When every volume shares one geometry and pass schedule (the
    slab-parallel case), the per-pass index-transform inverse runs *once*
    over all volumes stacked along a new batch axis instead of once per
    volume, collapsing N Python diagonal walks into one.  Output is
    bit-identical to calling :func:`decompress_volume` per item;
    mixed-geometry inputs silently fall back to the per-volume path.
    """
    if not items:
        return []

    def _single(it):
        meta, stream, lits, anchors, shp, dt, eb = it
        return decompress_volume(meta, stream, lits, anchors, tuple(shp), dt, eb)

    if len(items) == 1:
        return [_single(items[0])]
    meta0, _, _, _, shape0, dtype0, _ = items[0]
    shape = tuple(shape0)
    batchable = all(
        tuple(it[4]) == shape
        and np.dtype(it[5]) == np.dtype(dtype0)
        and all(it[0].get(k) == meta0.get(k) for k in _SCHEDULE_KEYS)
        for it in items[1:]
    )
    if not batchable:
        return [_single(it) for it in items]

    n = len(items)
    cfgs: list[EngineConfig] = []
    methods_list: list[dict[int, str]] = []
    arrs: list[np.ndarray] = []
    for meta, _, _, anchors, _, dt, eb in items:
        cfg = EngineConfig.from_meta(meta, eb)
        cfgs.append(cfg)
        methods_list.append({int(k): v for k, v in meta["methods"].items()})
        arr = np.zeros(shape, dtype=dt)
        arr[anchor_slices(shape)] = anchors.reshape(arr[anchor_slices(shape)].shape)
        arrs.append(arr)

    levels = int(meta0["levels"])
    spos = [0] * n
    lpos = [0] * n
    ndim = len(shape)
    transforms = cfgs[0].index_transforms()  # schedule keys include configs
    ctx = StageContext(sentinel=-cfgs[0].radius, dtype=dtype0)
    # With identical error bounds too (methods may still differ — they only
    # steer prediction, handled per level below), every per-pass stage
    # (transform inverse, prediction, dequantization) runs once over all
    # volumes stacked along a leading batch axis — one set of Python
    # dispatches for the whole group instead of one per volume.
    full_stack = all(
        it[6] == items[0][6]
        and it[0].get("level_eb_factors") == meta0.get("level_eb_factors")
        for it in items[1:]
    )
    if full_stack:
        cfg0 = cfgs[0]
        quantize = cfg0.quantize_stage()
        arr_st = np.stack(arrs)
        for level in range(levels, 0, -1):
            ctx.level = level
            passes = _passes_for_level(shape, level, cfg0)
            if not passes:
                continue
            level_methods = [m[level] for m in methods_list]
            method = level_methods[0] if len(set(level_methods)) == 1 else None
            for p in passes:
                moved_shape, count = _stream_layout(shape, p)
                q_views = []
                for i, it in enumerate(items):
                    q_views.append(
                        it[1][spos[i]:spos[i] + count].reshape(moved_shape)
                    )
                    spos[i] += count
                q = _inverse_transforms_multi(ctx, transforms, q_views)
                indices = np.moveaxis(q, 1, p.axis + 1)
                unpred = indices == quantize.sentinel
                lit_counts = unpred.sum(axis=tuple(range(1, ndim + 1)))
                lit_parts = []
                for i in range(n):
                    c = int(lit_counts[i])
                    lit_parts.append(items[i][2][lpos[i]:lpos[i] + c])
                    lpos[i] += c
                # dequantize places literals in C order of the stacked
                # indices, i.e. volume-major — exactly this concatenation
                lits = np.concatenate(lit_parts)
                with stage("predict"):
                    if method is not None:
                        pred = _pass_prediction_stacked(arr_st, p, method)
                    else:  # methods diverge at this level: predict per volume
                        pred = np.stack([
                            _pass_prediction(arr_st[i], p, level_methods[i])
                            for i in range(n)
                        ])
                with stage("quantize"):
                    ctx.level = level
                    arr_st[(slice(None),) + p.target] = quantize.inverse(
                        ctx, (indices, pred, lits)
                    )
        for i, it in enumerate(items):
            if spos[i] != it[1].size:
                raise ValueError("index stream size mismatch")
            if lpos[i] != it[2].size:
                raise ValueError("literal stream size mismatch")
        return [arr_st[i] for i in range(n)]
    quants = [cfg.quantize_stage() for cfg in cfgs]
    for level in range(levels, 0, -1):
        ctx.level = level
        passes = _passes_for_level(shape, level, cfgs[0])
        if not passes:
            continue
        for p in passes:
            moved_shape, count = _stream_layout(shape, p)
            q_outs = []
            for i, it in enumerate(items):
                q_outs.append(it[1][spos[i]:spos[i] + count].reshape(moved_shape))
                spos[i] += count
            # sentinel depends only on the (shared) radius
            qs = _inverse_transforms_multi(ctx, transforms, q_outs)
            for i in range(n):
                indices = np.moveaxis(qs[i], 0, p.axis)
                n_lit = int((indices == quants[i].sentinel).sum())
                lits = items[i][2][lpos[i]:lpos[i] + n_lit]
                lpos[i] += n_lit
                with stage("predict"):
                    pred = _pass_prediction(arrs[i], p, methods_list[i][level])
                with stage("quantize"):
                    arrs[i][p.target] = quants[i].inverse(
                        ctx, (indices, pred, lits)
                    )
    for i, it in enumerate(items):
        if spos[i] != it[1].size:
            raise ValueError("index stream size mismatch")
        if lpos[i] != it[2].size:
            raise ValueError("literal stream size mismatch")
    return arrs
