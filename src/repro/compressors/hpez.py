"""HPEZ-like compressor: auto-tuned multi-component interpolation.

HPEZ improves on QoZ by *tuning the interpolation scheme itself*: per region
it selects the interpolation dimension order and may switch to the
multi-dimensional (parity-class) level structure, in which each point is
predicted by averaging 1-D interpolations along every axis whose neighbours
are already decoded (``utils.levels.level_passes_multidim``).  The paper's
Section IV-B observes exactly this: all HPEZ blocks but one chose an x-first
order on SegSalt, which is why its indices cluster least and QP gains least —
a property this port reproduces.

Two operating modes:

* **global** (default): per interpolation *level*, candidate schemes
  (sequential z-y-x, sequential x-y-z, multidim) are trialed on a scratch
  copy and the cheapest is committed — the paper's block-wise tuning
  collapsed to level granularity, appropriate at this reproduction's scaled
  dimensions (a 32^3 HPEZ block scales to ~8^3 here, all overhead).
* **block-wise** (``block_side=N``): the paper's original layout — every
  ``N^d`` block independently compressed with its own best scheme.

Both modes inherit QoZ's level-wise error-bound scaling.  The trial pass
makes HPEZ the slowest SZ-family member, matching its "Medium" speed class
in Table I.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import decompress as lossless_decompress
from ..core.config import AdaptiveConfig, QPConfig
from ..errors import CorruptBlobError
from ..obs import span as stage
from ..pipeline.driver import decode_engine_blob, encode_engine_sections
from ..utils.blocks import iter_blocks
from ..utils.levels import anchor_shape, num_levels
from .base import (
    Blob,
    CompressionState,
    Compressor,
    decode_index_stream,
)
from .interp_engine import (
    EngineConfig,
    compress_volumes,
    decompress_volumes,
    level_error_bounds,
    stream_length,
    trial_level_bits,
)

__all__ = ["HPEZ"]


def _candidate_schemes(ndim: int) -> list[dict]:
    schemes: list[dict] = [
        {"structure": "sequential", "axis_order": None},
        {"structure": "sequential", "axis_order": tuple(reversed(range(ndim)))},
    ]
    if ndim >= 2:
        schemes.append({"structure": "multidim", "axis_order": None})
    return schemes


class HPEZ(Compressor):
    """HPEZ-like compressor (auto-tuned multi-component interpolation)."""

    name = "hpez"
    traits = {
        "speed": "medium",
        "ratio": "high",
        "resolution_reduction": False,
        "gpu": False,
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
        block_side: int | None = None,
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        super().__init__(error_bound)
        self.qp = qp or QPConfig.disabled()
        self.alpha = alpha
        self.beta = beta
        self.interp = interp
        self.radius = radius
        self.block_side = block_side
        if isinstance(adaptive, dict):
            adaptive = AdaptiveConfig.from_dict(adaptive)
        self.adaptive = adaptive

    def _tuned_for(self, data: np.ndarray) -> "HPEZ":
        """Sampling tuner for the knobs HPEZ does not already self-tune:
        per-level eb scaling (alpha/beta), adaptive_bits, and QP.  The
        per-level scheme selector (HPEZ's own structure tuning) stays in
        charge of structure/axis order, so those are pinned here."""
        import copy

        from ..core.autotune import autotune

        decision = autotune(
            data, self.error_bound, radius=self.radius,
            fixed={"structure": "sequential", "axis_order": None},
        )
        tuned = copy.copy(self)
        tuned.interp = decision.interp
        tuned.alpha = decision.alpha
        tuned.beta = decision.beta
        tuned.qp = decision.qp_config()
        tuned.adaptive = decision.adaptive_config()
        tuned.tuning_decision = decision
        return tuned

    # -- engine configuration -------------------------------------------------

    def _engine_config(
        self, data_or_shape, with_selector: bool
    ) -> EngineConfig:
        if isinstance(data_or_shape, np.ndarray):
            data, shape = data_or_shape, data_or_shape.shape
        else:
            data, shape = None, tuple(data_or_shape)
        levels = num_levels(shape)
        if data is not None and (self.alpha == "auto" or self.beta == "auto"):
            from .qoz import tune_level_eb

            alpha, beta = tune_level_eb(
                data, self.error_bound, levels,
                alpha=self.alpha, beta=self.beta,
                interp=self.interp, radius=self.radius,
            )
        else:
            alpha = 1.5 if self.alpha == "auto" else float(self.alpha)
            beta = 3.0 if self.beta == "auto" else float(self.beta)
        cfg = EngineConfig(
            error_bound=self.error_bound,
            radius=self.radius,
            interp=self.interp,
            level_eb_factors=level_error_bounds(self.error_bound, levels, alpha, beta),
            qp=self.qp,
            adaptive=self.adaptive,
        )
        if with_selector:
            candidates = _candidate_schemes(len(shape))

            def selector(arr: np.ndarray, level: int, c: EngineConfig) -> dict:
                with stage("scheme"):
                    costs = [trial_level_bits(arr, level, c, s) for s in candidates]
                return dict(candidates[int(np.argmin(costs))])

            cfg.scheme_selector = selector
        return cfg

    # -- compression ----------------------------------------------------------

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        if self.block_side is None:
            return self._compress_global(data, state)
        return self._compress_blocks(data, state)

    def _compress_global(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        cfg = self._engine_config(data, with_selector=True)
        (meta,), (stream,), (literals,), (anchors,) = compress_volumes(
            data[None], cfg, state
        )[:4]
        if state is not None:
            state.extras["level_schemes"] = dict(cfg.level_schemes)
        sections = encode_engine_sections(
            stream, literals, anchors, entropy=self.entropy
        )
        return {"mode": "global", "engine": meta}, sections

    def _compress_blocks(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        streams: list[np.ndarray] = []
        literal_parts: list[np.ndarray] = []
        anchor_parts: list[np.ndarray] = []
        metas: list[dict[str, Any]] = []
        if state is not None:
            state.index_volume = np.zeros(data.shape, dtype=np.int64)
            state.extras["index_volume_qp"] = np.zeros(data.shape, dtype=np.int64)
            state.extras["block_choices"] = []
        for bslice in iter_blocks(data.shape, self.block_side):
            block = np.ascontiguousarray(data[bslice])
            cfg = self._engine_config(block, with_selector=True)
            bstate = CompressionState() if state is not None else None
            (meta,), (stream,), (literals,), (anchors,) = compress_volumes(
                block[None], cfg, bstate
            )[:4]
            metas.append(meta)
            streams.append(stream)
            literal_parts.append(literals)
            anchor_parts.append(anchors.ravel())
            if state is not None and bstate is not None:
                state.index_volume[bslice] = bstate.index_volume
                state.extras["index_volume_qp"][bslice] = bstate.extras["index_volume_qp"]
                state.extras["block_choices"].append(dict(cfg.level_schemes))
        index_stream = np.concatenate(streams) if streams else np.empty(0, np.int64)
        literals = (
            np.concatenate(literal_parts) if literal_parts else np.empty(0, data.dtype)
        )
        anchors = (
            np.concatenate(anchor_parts) if anchor_parts else np.empty(0, data.dtype)
        )
        header = {
            "mode": "blocks",
            "block_side": self.block_side,
            "block_metas": metas,
        }
        sections = encode_engine_sections(
            index_stream, literals, anchors, entropy=self.entropy
        )
        return header, sections

    # -- decompression ----------------------------------------------------------

    def _decompress(self, blob: Blob) -> np.ndarray:
        # the header's mode picks the decode walk: one engine replay, or the
        # per-block schedule
        if blob.header.get("mode", "global") == "global":
            return decode_engine_blob([blob])[0]
        return self._decompress_blocks(blob)

    def _decompress_blocks(self, blob: Blob) -> np.ndarray:
        """Decode each block as a stack of one over its
        :func:`~repro.compressors.interp_engine.stream_length` slice of the
        shared index stream; the slices must tile the stream, and the
        blocks' literals the literal section."""
        header = blob.header
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"])
        stream = decode_index_stream(blob.sections["indices"])
        literals = np.frombuffer(
            lossless_decompress(blob.sections["literals"]), dtype=dtype
        )
        anchors = np.frombuffer(blob.sections["anchors"], dtype=dtype)
        blocks = [
            (bslice, tuple(sl.stop - sl.start for sl in bslice), meta)
            for bslice, meta in zip(
                iter_blocks(shape, int(header["block_side"])), header["block_metas"]
            )
        ]
        lengths = [stream_length(bshape) for _, bshape, _ in blocks]
        if sum(lengths) != stream.size:
            raise CorruptBlobError("block stream size mismatch")
        out = np.empty(shape, dtype=dtype)
        spos = lpos = apos = 0
        for (bslice, bshape, meta), length in zip(blocks, lengths):
            a_shape = anchor_shape(bshape)
            n_anchor = int(np.prod(a_shape))
            b_anchors = anchors[apos:apos + n_anchor].reshape(a_shape)
            apos += n_anchor
            rows = stream[None, spos:spos + length]
            spos += length
            (block,), (used,) = decompress_volumes([(
                meta, rows[0], literals[lpos:], b_anchors, bshape, dtype,
                header["error_bound"],
            )], rows)
            out[bslice] = block
            lpos += used
        if lpos != literals.size:
            raise CorruptBlobError("block literal stream size mismatch")
        return out
