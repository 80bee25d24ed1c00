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

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.config import AdaptiveConfig, QPConfig
from ..errors import CorruptBlobError
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
    moveaxis_order,
    num_levels,
    pass_sizes,
)
from .base import CompressionState

__all__ = [
    "EngineConfig",
    "compress_volume",
    "compress_volumes",
    "decompress_volume",
    "decompress_volumes",
    "level_error_bounds",
    "predict_fill",
    "stack_key",
    "stream_length",
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
) -> tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the interpolation pipeline over ``data``.

    Returns ``(meta, index_stream, literals, anchors, decoded)``: ``meta``
    holds everything the decompressor needs (levels, chosen methods,
    transform configs), ``index_stream`` is the concatenated
    (transform-applied) quantization indices of every pass in schedule
    order, ``literals`` the unpredictable values in the same order,
    ``anchors`` the exact coarsest-grid values, and ``decoded`` the
    working array after the closed loop — the values the decompressor
    will reconstruct.  (The auto-tuner's trials run through
    :func:`compress_volumes`, which builds no blob.)

    ``state``, when given, receives the characterization volumes
    (``index_volume``, ``extras["index_volume_qp"]`` and
    ``extras["pass_levels"]``); without it none of them is built.

    ``level_stats``, when a list, collects one dict per pass in schedule
    order — ``{"level", "indices", "literals", "max_residual"}`` — where
    ``indices`` is the pass's index array before the index transforms,
    interpolation axis first (the layout the transforms see),
    ``literals`` the pass's literal count, and ``max_residual`` the largest
    |original - prediction| of the pass in float64.  The progressive
    compressor uses these to split the streams at level boundaries and to
    derive per-level achievable error bounds.  The wire bytes are
    unaffected.
    """
    arr = data.copy()
    shape = arr.shape
    ndim = arr.ndim
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
            q_out = res.indices.transpose(moveaxis_order(ndim, p.axis, 0))
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
                state.extras["index_volume_qp"][p.target] = q_out.transpose(
                    moveaxis_order(ndim, 0, p.axis)
                )
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
    return meta, index_stream, literals, anchors, arr


def compress_volumes(
    stack: np.ndarray, cfg: EngineConfig
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]":
    """Run the engine once over the equal volumes ``stack[i]``.

    The compress-side twin of :func:`decompress_volumes`: ``stack`` is
    ``(k, *shape)``, and no pass interpolates along its leading axis.  Each
    pass runs one prediction over the stack
    (:meth:`InterpPredict.pass_prediction_stacked`) and one quantization
    over the ``(k,) + target`` view.  The index transforms run per volume
    on row views, because QP's dimension degrades with the per-volume
    rank.  With ``interp="auto"`` every volume chooses its own method per
    level, and where the choices diverge the level predicts per volume.

    Returns ``(streams, n_literals, decoded, passes)``: the ``(k, L)``
    int64 array whose row ``i`` is the index stream
    :func:`compress_volume` gives ``stack[i]``, the ``(k,)`` literal
    counts, the decoded ``(k, *shape)`` stack, and one ``(level,
    indices)`` per pass in schedule order, where ``indices`` is the
    ``(k,) + layout`` view of the pass's indices before the transforms
    (``level_stats``' ``indices`` of every volume).  Nothing here goes
    into a blob — no meta, literal values or anchors; the auto-tuner
    scores trials with it, and :func:`compress_volume` writes blobs.
    """
    if cfg.scheme_selector is not None:
        raise ValueError("compress_volumes runs fixed level schemes only")
    arr = stack.copy()
    k, shape = arr.shape[0], arr.shape[1:]
    ndim = len(shape)
    quantize = cfg.quantize_stage()
    transforms = cfg.index_transforms()
    sentinel = quantize.sentinel
    ctx = StageContext(sentinel=sentinel, dtype=stack.dtype)
    # every point but the anchors is predicted by exactly one pass
    length = arr[0].size - arr[0][anchor_slices(shape)].size
    streams = np.empty((k, length), dtype=np.int64)
    n_literals = np.zeros(k, dtype=np.int64)
    views: list[tuple[int, np.ndarray]] = []
    spos = 0
    for level, passes in _schedule(shape, cfg, num_levels(shape)):
        ctx.level = level
        first = passes[0]
        first_pred: np.ndarray | None = None
        if cfg.interp == "auto":
            with stage("predict"):
                chosen = [InterpPredict.choose(arr[i], first) for i in range(k)]
            level_methods = [m for m, _ in chosen]
            preds = [pred for _, pred in chosen]
            first_pred = np.stack(preds) if k > 1 else preds[0][None]
        else:
            level_methods = [cfg.interp] * k
        method = level_methods[0] if len(set(level_methods)) == 1 else None
        for p in passes:
            with stage("predict"):
                if first_pred is not None and p is first:
                    pred = first_pred
                elif method is not None:
                    pred = _pass_prediction_stacked(arr, p, method)
                else:  # methods diverge at this level: predict per volume
                    pred = np.stack([
                        _pass_prediction(arr[i], p, level_methods[i])
                        for i in range(k)
                    ])
            target_view = arr[(slice(None),) + p.target]
            with stage("quantize"):
                res = quantize.forward(ctx, (target_view, pred))
            target_view[...] = res.decoded
            if res.literals.size:
                n_literals += np.count_nonzero(
                    res.indices.reshape(k, -1) == sentinel, axis=1
                )
            q = res.indices.transpose(moveaxis_order(ndim + 1, p.axis + 1, 1))
            views.append((level, q))
            count = q.size // k
            rows = streams[:, spos:spos + count].reshape(q.shape)
            spos += count
            for row, q_i in zip(rows, q):
                for t in transforms:
                    q_i = t.forward(ctx, q_i)
                row[...] = q_i
    return streams, n_literals, arr, views


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
    for level, passes in _schedule(shape, cfg, levels, stop_level):
        ctx.level = level
        ctx.method = methods[level]
        for p in passes:
            moved_shape, count = _stream_layout(shape, p)
            q = index_stream[spos:spos + count].reshape(moved_shape)
            spos += count
            for t in reversed(transforms):
                q = t.inverse(ctx, q)
            indices = q.transpose(moveaxis_order(q.ndim, 0, p.axis))
            # counted on the contiguous stream layout, twice as fast; with
            # the literals used up a sentinel fails dequantization's check
            n_lit = 0 if lpos == literals.size else int(
                np.count_nonzero(q == quantize.sentinel)
            )
            lits = literals[lpos:lpos + n_lit]
            lpos += n_lit
            with stage("predict"):
                pred = predictor.forward(ctx, (arr, p))
            with stage("quantize"):
                quantize.inverse(ctx, (indices, pred, lits), out=arr[p.target])
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
    schedule = _schedule(
        arr.shape, cfg, int(meta["levels"]), from_level=stop_level
    )
    for level, passes in schedule:
        for p in passes:
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
    return (size[p.axis],) + size[:p.axis] + size[p.axis + 1:], math.prod(size)


# -- batched decompression ---------------------------------------------------

#: meta keys that must match across volumes for them to stack: one pass
#: schedule and one quantizer per level.  Interpolation methods may differ —
#: they only steer prediction, which runs per volume where they diverge.
_STACK_KEYS = (
    "levels", "structure", "axis_order", "level_schemes", "radius", "qp",
    "adaptive", "level_eb_factors",
)


def stack_key(
    meta: dict[str, Any], shape: "tuple[int, ...] | list[int]", dtype: Any,
    error_bound: float,
) -> tuple:
    """Volumes with equal keys — equal shape, dtype, error bound, pass
    schedule and quantizer (the equal slabs of one SZ3 volume) — decode as
    one stack through :func:`decompress_volumes`."""
    return (tuple(shape), np.dtype(dtype).str, error_bound, json.dumps(
        [meta.get(k) for k in _STACK_KEYS], sort_keys=True
    ))


def stream_length(meta: dict[str, Any], shape: tuple[int, ...]) -> int:
    """Length of the index stream the pass schedule of ``meta`` over
    ``shape`` reads: the row length of a stack's index buffer."""
    cfg = EngineConfig.from_meta(meta, error_bound=1.0)
    return sum(
        _stream_layout(shape, p)[1]
        for _, passes in _schedule(shape, cfg, int(meta["levels"]))
        for p in passes
    )


def _schedule(
    shape: tuple[int, ...], cfg: EngineConfig, levels: int, stop_level: int = 0,
    from_level: "int | None" = None,
) -> "list[tuple[int, list[Pass | MDPass]]]":
    """``(level, passes)`` from ``from_level`` (default: the coarsest
    level) down to ``stop_level + 1``, levels without passes skipped: the
    order every walk reads the streams in.

    ``levels`` is the count a blob header declares.  It must be the
    shape's own :func:`num_levels`, and neither ``stop_level`` nor
    ``from_level`` may pass it; otherwise :class:`CorruptBlobError` is
    raised before any pass runs — an untrusted count would set the
    walk's length.
    """
    real = num_levels(shape)
    top = real if from_level is None else from_level
    if levels != real or not 0 <= stop_level <= real or not 0 <= top <= real:
        raise CorruptBlobError(
            f"engine walk over levels {top}..{stop_level + 1} of a header "
            f"declaring {levels!r}; shape {tuple(shape)} has {real} levels"
        )
    schedule = []
    for level in range(top, stop_level, -1):
        passes = _passes_for_level(shape, level, cfg)
        if passes:
            schedule.append((level, passes))
    return schedule


def decompress_volumes(
    items: "list[tuple[dict[str, Any], np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.dtype, float]]",
    streams: np.ndarray,
) -> "list[np.ndarray]":
    """Decompress volumes of one :func:`stack_key` as one stack, in place.

    ``items`` holds ``(meta, index_stream, literals, anchors, shape,
    dtype, error_bound)`` per volume — the :func:`decompress_volume`
    signature — and ``streams`` is the ``(k, L)`` int64 buffer whose row
    ``i`` holds item ``i``'s index stream (``L`` =
    :func:`stream_length`); the walk overwrites it.  Each pass reads the
    view ``streams[:, s:s + count]`` reshaped to ``(k,) + layout``: the
    index transforms invert it in place (``inverse_multi``), literal
    counts come from its contiguous rows, one prediction runs over the
    stack of decoded volumes, and dequantization writes through the
    pass's target view of the stacked output — no per-pass copy of
    indices or values.  Returns views of one contiguous ``(k, *shape)``
    array, bit-identical to :func:`decompress_volume` per item.
    """
    meta0, _, _, _, shape, dtype, eb = items[0]
    shape = tuple(shape)
    k = len(items)
    cfg = EngineConfig.from_meta(meta0, eb)
    transforms = cfg.index_transforms()
    quantize = cfg.quantize_stage()
    sentinel = quantize.sentinel
    ctx = StageContext(sentinel=sentinel, dtype=dtype)
    methods_list = [
        {int(m): v for m, v in it[0]["methods"].items()} for it in items
    ]
    arr_st = np.zeros((k,) + shape, dtype=dtype)
    anchor_st = arr_st[(slice(None),) + anchor_slices(shape)]
    for i, it in enumerate(items):
        anchor_st[i] = it[3].reshape(anchor_st.shape[1:])
    literals = [it[2] for it in items]
    lpos = [0] * k
    spos = 0
    for level, passes in _schedule(shape, cfg, int(meta0["levels"])):
        ctx.level = level
        level_methods = [m[level] for m in methods_list]
        method = level_methods[0] if len(set(level_methods)) == 1 else None
        for p in passes:
            moved_shape, count = _stream_layout(shape, p)
            rows = streams[:, spos:spos + count]
            spos += count
            q = rows.reshape((k,) + moved_shape)
            for t in reversed(transforms):
                t.inverse_multi(ctx, q)
            # each volume's literals, counted on its contiguous row;
            # dequantize takes them in C order of the stacked indices, i.e.
            # volume-major — exactly this concatenation.  A volume whose
            # literals are used up takes none: its sentinels, if any, fail
            # dequantization's count check
            lit_parts = []
            for i, row in enumerate(rows):
                if lpos[i] < literals[i].size:
                    c = int(np.count_nonzero(row == sentinel))
                    lit_parts.append(literals[i][lpos[i]:lpos[i] + c])
                    lpos[i] += c
            lits = np.concatenate(lit_parts) if lit_parts else literals[0][:0]
            with stage("predict"):
                if method is not None:
                    pred = _pass_prediction_stacked(arr_st, p, method)
                else:  # methods diverge at this level: predict per volume
                    pred = np.stack([
                        _pass_prediction(arr_st[i], p, level_methods[i])
                        for i in range(k)
                    ])
            indices = q.transpose(moveaxis_order(q.ndim, 1, p.axis + 1))
            with stage("quantize"):
                quantize.inverse(
                    ctx, (indices, pred, lits),
                    out=arr_st[(slice(None),) + p.target],
                )
    for i, lits in enumerate(literals):
        if lpos[i] != lits.size:
            raise ValueError("literal stream size mismatch")
    return [arr_st[i] for i in range(k)]
