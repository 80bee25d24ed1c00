"""Shared multilevel interpolation compression engine.

SZ3, QoZ and HPEZ are thin wrappers over this engine; they differ only in the
:class:`EngineConfig` they construct (level structure, per-level error bounds,
interpolation method selection, axis order, QP settings).  MGARD expresses its
hierarchical decomposition as the *multidim* structure of the same engine.

Per pass the engine predicts the pass's targets
(:class:`~repro.pipeline.stages.InterpPredict`), quantizes them with the
level's quantizer (:meth:`EngineConfig.quantizer`), overwrites the
working array with the decoded values (so later passes predict from what
the decompressor will see), applies QP to the pass's index array
(Algorithm 1's insertion point, between quantization and entropy coding),
and appends the result to the index stream.  Decompression replays the
identical pass schedule with each step inverted.

There is one walk per direction, over a stack of equal volumes on a
leading axis: :func:`compress_volumes` and :func:`decompress_volumes`.
A blob's volume is a stack of one; the auto-tuner's sample blocks and
the equal slabs of one SZ3 volume stack.
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
from ..pipeline.stages import InterpPredict, QPTransform, StageContext
from ..quantize import AdaptiveLinearQuantizer, LinearQuantizer
from ..utils.levels import (
    MDPass,
    Pass,
    anchor_shape,
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
    "compress_volumes",
    "decompress_volumes",
    "level_error_bounds",
    "predict_fill",
    "stack_key",
    "stream_length",
]

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
    #: linear quantizer (and the existing wire bytes) exactly as before
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

    def quantizer(self, level: int) -> "LinearQuantizer | AdaptiveLinearQuantizer":
        """The quantizer of ``level``'s passes: its sentinel is
        ``-radius`` whatever the level."""
        if self.adaptive is not None:
            return AdaptiveLinearQuantizer(
                self.eb_for_level(level), self.radius,
                bits=self.adaptive.bits, threshold=self.adaptive.threshold,
            )
        return LinearQuantizer(self.eb_for_level(level), self.radius)

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
    if probe.interp == "auto":
        method = InterpPredict.choose(work, passes[0])[0]
    else:
        method = probe.interp
    bits = 0.0
    for p in passes:
        pred = InterpPredict.pass_prediction(work, p, method)
        view = work[p.target]
        res = quantizer.quantize(view, pred)
        view[...] = res.decoded
        bits += shannon_entropy(res.indices) * res.indices.size
        bits += 8.0 * work.dtype.itemsize * res.literals.size
    return bits


def compress_volumes(
    stack: np.ndarray,
    cfg: EngineConfig,
    state: CompressionState | None = None,
    level_stats: "list[dict] | None" = None,
) -> "tuple[list[dict[str, Any]], np.ndarray, list[np.ndarray], np.ndarray, np.ndarray, list[tuple[int, np.ndarray]]]":
    """Run the interpolation pipeline once over the equal volumes ``stack[i]``.

    ``stack`` is ``(k, *shape)``, and no pass interpolates along its
    leading axis; a blob's volume runs as a stack of one (``data[None]``).
    Each pass runs one prediction over the stack
    (:meth:`InterpPredict.pass_prediction_stacked`) and one quantization
    over the ``(k,) + target`` view, whose decoded values then overwrite
    the view, so later passes predict from what the decompressor will see.
    QP (Algorithm 1's insertion point) runs per volume on row views,
    because QP's dimension degrades with the per-volume rank.  With
    ``interp="auto"`` every volume chooses its own method per level, and
    where the choices diverge the level predicts per volume.

    Returns ``(metas, streams, literals, anchors, decoded, passes)``, one
    entry or row per volume: each volume's engine meta (levels, chosen
    methods, the QP config — what the decompressor needs besides the
    sections); the ``(k, L)`` int64 index streams, QP-applied, in
    schedule order (``L`` = the non-anchor points); the literal values
    (unpredictable points) in the same order; the exact coarsest-grid
    values ``(k,) + anchor shape``; the decoded ``(k, *shape)`` stack —
    the values the decompressor reconstructs; and one ``(level,
    indices)`` per pass in schedule order, where ``indices`` is the
    ``(k,) + layout`` view of the pass's part of ``streams``,
    interpolation axis first (the layout QP sees): the quantizer's indices
    wherever QP leaves the level alone, as it does every level with QP
    off.  The auto-tuner scores its trials (QP off) from these; the
    compressors frame the first four into blobs.
    The walk keeps no index array besides ``streams``, so a blob's encode
    holds nothing the blob does not need.

    Three inputs take a stack of one (``ValueError`` otherwise):

    * ``state`` receives the characterization volumes (``index_volume``,
      ``extras["index_volume_qp"]``, ``extras["pass_levels"]``), scattered
      after the walk from the pass views, whose QP it inverts for
      ``index_volume``; without it none is built.
    * ``level_stats``, a list, collects one dict per pass in schedule
      order — ``{"level", "indices", "literals", "max_residual"}``: the
      pass's indices before QP, in the layout above, its literal count,
      and the largest |original - prediction| in float64.  The progressive
      compressor splits the streams at level boundaries with these and
      derives per-level achievable error bounds.
    * ``cfg.scheme_selector`` (HPEZ) fixes each level's scheme from the
      working volume before the level runs.

    None of them changes the wire bytes.
    """
    arr = stack.copy()
    k, shape = arr.shape[0], arr.shape[1:]
    if k > 1 and not (state is None and level_stats is None
                      and cfg.scheme_selector is None):
        raise ValueError(
            "state, level_stats and a scheme selector take a stack of one"
        )
    ndim = len(shape)
    levels = num_levels(shape)
    anchors = arr[(slice(None),) + anchor_slices(shape)].copy()
    qp = QPTransform(cfg.qp)
    sentinel = -cfg.radius
    ctx = StageContext(sentinel=sentinel, dtype=stack.dtype)
    streams = np.empty((k, stream_length(shape)), dtype=np.int64)
    literal_parts: list[list[np.ndarray]] = [[] for _ in range(k)]
    methods: list[dict[int, str]] = [{} for _ in range(k)]
    views: list[tuple[int, np.ndarray]] = []
    spos = 0
    for level in range(levels, 0, -1):
        ctx.level = level
        if cfg.scheme_selector is not None and level not in cfg.level_schemes:
            cfg.level_schemes[level] = cfg.scheme_selector(arr[0], level, cfg)
        passes = _passes_for_level(shape, level, cfg)
        if not passes:
            continue
        quantizer = cfg.quantizer(level)
        first = passes[0]
        first_pred: np.ndarray | None = None
        if cfg.interp == "auto":
            with stage("predict"):
                # the selection already computed the winning method's
                # prediction for the first pass — reused below
                chosen = [InterpPredict.choose(arr[i], first) for i in range(k)]
            level_methods = [m for m, _ in chosen]
            preds = [pred for _, pred in chosen]
            first_pred = np.stack(preds) if k > 1 else preds[0][None]
        else:
            level_methods = [cfg.interp] * k
        for volume_methods, m in zip(methods, level_methods):
            volume_methods[level] = m
        method = level_methods[0] if len(set(level_methods)) == 1 else None
        for p in passes:
            with stage("predict"):
                if first_pred is not None and p is first:
                    pred = first_pred
                elif method is not None:
                    pred = InterpPredict.pass_prediction_stacked(arr, p, method)
                else:  # methods diverge at this level: predict per volume
                    pred = np.stack([
                        InterpPredict.pass_prediction(arr[i], p, level_methods[i])
                        for i in range(k)
                    ])
            target_view = arr[(slice(None),) + p.target]
            with stage("quantize"):
                res = quantizer.quantize(target_view, pred)
            q = res.indices.transpose(moveaxis_order(ndim + 1, p.axis + 1, 1))
            if level_stats is not None:
                # measured before the overwrite below: target_view still
                # holds the original values the prediction was scored against
                diff = np.abs(np.subtract(target_view, pred, dtype=np.float64))
                level_stats.append({
                    "level": level,
                    "indices": q[0],
                    "literals": int(res.literals.size),
                    "max_residual": float(diff.max()) if diff.size else 0.0,
                })
            target_view[...] = res.decoded
            if res.literals.size:
                # volume-major, in C order of the stacked target view
                counts = np.count_nonzero(
                    res.indices.reshape(k, -1) == sentinel, axis=1
                )
                for parts, lits in zip(
                    literal_parts, np.split(res.literals, np.cumsum(counts)[:-1])
                ):
                    parts.append(lits)
            count = q.size // k
            rows = streams[:, spos:spos + count].reshape(q.shape)
            spos += count
            for row, q_i in zip(rows, q):
                row[...] = qp.forward(ctx, q_i)
            views.append((level, rows))

    if state is not None:
        state.index_volume = np.zeros(shape, dtype=np.int64)
        coded = state.extras["index_volume_qp"] = np.zeros(shape, dtype=np.int64)
        pass_levels = state.extras["pass_levels"] = np.zeros(shape, dtype=np.int8)
        schedule = (p for _, ps in _schedule(shape, cfg, levels) for p in ps)
        for (level, rows), p in zip(views, schedule):
            ctx.level = level
            indices = qp.inverse_multi(ctx, rows.copy())
            back = moveaxis_order(ndim, 0, p.axis)
            state.index_volume[p.target] = indices[0].transpose(back)
            coded[p.target] = rows[0].transpose(back)
            pass_levels[p.target] = level

    literals = [
        np.concatenate(parts) if parts else np.empty(0, dtype=stack.dtype)
        for parts in literal_parts
    ]
    meta = {
        "levels": levels,
        "methods": {},  # each volume's, in this key's place in the header
        "structure": cfg.structure,
        "axis_order": list(cfg.axis_order) if cfg.axis_order else None,
        "level_schemes": {
            str(l): {
                "structure": v["structure"],
                "axis_order": list(v["axis_order"]) if v.get("axis_order") else None,
            }
            for l, v in cfg.level_schemes.items()
        },
        "radius": cfg.radius,
        "level_eb_factors": {str(l): v for l, v in cfg.level_eb_factors.items()},
    }
    meta["qp"] = qp.config.to_dict()
    if cfg.adaptive is not None:
        # only written when enabled: absence keeps every pre-adaptive blob
        # byte-identical (golden digests stay frozen)
        meta["adaptive"] = cfg.adaptive.to_dict()
    metas = [
        {**meta, "methods": {str(l): m for l, m in volume_methods.items()}}
        for volume_methods in methods
    ]
    return metas, streams, literals, anchors, arr, views


def predict_fill(
    arr: np.ndarray, meta: dict[str, Any], stop_level: int
) -> np.ndarray:
    """Fill levels ``stop_level .. 1`` of ``arr`` with predictions only.

    The prediction-only counterpart of the decode loop: after a prefix
    decode reconstructed levels above ``stop_level``
    (``decompress_volumes(..., stop_level)``), this replays the
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
                arr[p.target] = InterpPredict.pass_prediction(arr, p, methods[level])
    return arr


def _stream_layout(
    shape: tuple[int, ...], p: Pass | MDPass
) -> tuple[tuple[int, ...], int]:
    """Shape and size of pass ``p``'s index array as it sits in the stream:
    interpolation axis first, the other axes in order (``compress_volumes``
    moves it so before QP)."""
    size = pass_sizes(shape, p)
    return (size[p.axis],) + size[:p.axis] + size[p.axis + 1:], math.prod(size)


# -- decompression -----------------------------------------------------------

#: meta keys that must match across volumes for them to stack: one pass
#: schedule and one quantizer per level.  Interpolation methods may differ —
#: they only steer prediction, which runs per volume where they diverge.
_STACK_KEYS = (
    "levels", "structure", "axis_order", "level_schemes", "radius", "qp",
    "adaptive", "level_eb_factors",
)
#: the stack keys a header may lack (the decode reads them with defaults)
_OPTIONAL_STACK_KEYS = ("level_schemes", "adaptive")


def stack_key(
    meta: dict[str, Any], shape: "tuple[int, ...] | list[int]", dtype: Any,
    error_bound: float,
) -> tuple:
    """Volumes with equal keys — equal shape, dtype, error bound, pass
    schedule and quantizer (the equal slabs of one SZ3 volume) — decode as
    one stack through :func:`decompress_volumes`.

    A stack decodes with its first member's meta, so a meta lacking a key
    the decode reads raises ``KeyError`` here, as it would decoding
    alone, rather than join a stack of intact ones."""
    return (tuple(shape), np.dtype(dtype).str, error_bound, json.dumps(
        [meta.get(k) if k in _OPTIONAL_STACK_KEYS else meta[k]
         for k in _STACK_KEYS],
        sort_keys=True,
    ))


def stream_length(shape: tuple[int, ...]) -> int:
    """Length of the index stream of a volume of ``shape``, the row length
    of a stack's index buffer: every point but the anchors is predicted by
    exactly one pass, whatever the level schemes."""
    return math.prod(shape) - math.prod(anchor_shape(shape))


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
    stop_level: int = 0,
) -> "tuple[list[np.ndarray], list[int]]":
    """Decompress volumes of one :func:`stack_key` as one stack, in place.

    The decode twin of :func:`compress_volumes`, and every engine blob's
    decode: a blob alone is a stack of one.  ``items`` holds ``(meta,
    index_stream, literals, anchors, shape, dtype, error_bound)`` per
    volume, and ``streams`` is the ``(k, L)`` int64 buffer whose row ``i``
    holds item ``i``'s index stream; the walk overwrites it.  Each pass
    reads the view ``streams[:, s:s + count]`` reshaped to ``(k,) +
    layout``: QP inverts it in place (``inverse_multi``), literal counts
    come from its contiguous rows, one prediction runs over the stack of
    decoded volumes, and dequantization writes through the
    pass's target view of the stacked output — no per-pass copy of indices
    or values.  ``stop_level > 0`` stops before the finer levels (MGARD's
    resolution reduction, progressive previews): their streams and
    literals are left unread.

    Returns ``(volumes, used)``: views of one contiguous ``(k, *shape)``
    array, and the number of literals each volume consumed.  The walk
    checks no section's length; its callers size each row from
    :func:`stream_length` (or a block's slice of it) and, on a full
    decode, compare ``used`` with the literal sections.
    """
    meta0, _, _, _, shape, dtype, eb = items[0]
    shape = tuple(shape)
    k = len(items)
    cfg = EngineConfig.from_meta(meta0, eb)
    qp = QPTransform(cfg.qp)
    sentinel = -cfg.radius
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
    for level, passes in _schedule(shape, cfg, int(meta0["levels"]), stop_level):
        ctx.level = level
        quantizer = cfg.quantizer(level)
        level_methods = [m[level] for m in methods_list]
        method = level_methods[0] if len(set(level_methods)) == 1 else None
        for p in passes:
            moved_shape, count = _stream_layout(shape, p)
            rows = streams[:, spos:spos + count]
            spos += count
            q = rows.reshape((k,) + moved_shape)
            qp.inverse_multi(ctx, q)
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
                    pred = InterpPredict.pass_prediction_stacked(arr_st, p, method)
                else:  # methods diverge at this level: predict per volume
                    pred = np.stack([
                        InterpPredict.pass_prediction(arr_st[i], p, level_methods[i])
                        for i in range(k)
                    ])
            indices = q.transpose(moveaxis_order(q.ndim, 1, p.axis + 1))
            with stage("quantize"):
                quantizer.dequantize(
                    indices, pred, lits, out=arr_st[(slice(None),) + p.target]
                )
    return [arr_st[i] for i in range(k)], lpos
