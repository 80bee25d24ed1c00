"""MGARD-like compressor: hierarchical multilinear decomposition.

MGARD decorrelates with multilinear interpolation between grid levels and
quantizes nodal coefficients level by level.  This port expresses that as the
shared engine's *multidim* level structure with linear interpolation — each
level's coefficients are exactly "value − multilinear interpolant from the
coarser grid" — plus MGARD's conservative level-dependent error allocation
(coarser levels quantized ``2**((l-1)/2)`` times more finely, mirroring the
L2-norm level weights).  The full ``L²`` projection correction is omitted
(documented substitution in DESIGN.md): QP only interacts with the
quantization-index structure, which is preserved.

MGARD's signature feature — resolution reduction — is supported:
:meth:`MGARD.decompress_resolution` reconstructs the stride-``2**k`` subgrid
without decoding finer levels.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..core.config import AdaptiveConfig, QPConfig
from ..pipeline.driver import decode_engine_blob, encode_engine_sections
from ..utils.levels import num_levels
from .base import Blob, CompressionState, Compressor, _typed_faults
from .interp_engine import EngineConfig, compress_volumes

__all__ = ["MGARD"]


class MGARD(Compressor):
    """MGARD-like multilevel compressor with optional QP."""

    name = "mgard"
    traits = {
        "speed": "low",
        "ratio": "low",
        "resolution_reduction": True,
        "gpu": True,
        "qoi": True,
        "quality_oriented": False,
    }

    def __init__(
        self,
        error_bound: float,
        qp: QPConfig | None = None,
        radius: int = 32768,
        adaptive: AdaptiveConfig | None = None,
    ) -> None:
        super().__init__(error_bound)
        self.qp = qp or QPConfig.disabled()
        self.radius = radius
        if isinstance(adaptive, dict):
            adaptive = AdaptiveConfig.from_dict(adaptive)
        self.adaptive = adaptive

    @staticmethod
    def _level_factors(levels: int) -> dict[int, float]:
        # L2-weight-style allocation: level l quantized 2**((l-1)/2) finer
        return {l: 2.0 ** (-(l - 1) / 2.0) for l in range(1, levels + 1)}

    def _engine_config(self, shape: tuple[int, ...]) -> EngineConfig:
        return EngineConfig(
            error_bound=self.error_bound,
            radius=self.radius,
            interp="linear",  # multilinear basis
            structure="multidim",
            level_eb_factors=self._level_factors(num_levels(shape)),
            qp=self.qp,
            adaptive=self.adaptive,
        )

    def _tuned_for(self, data: np.ndarray) -> "MGARD":
        """Sampling tuner with MGARD's basis pinned: the multilinear
        interpolant, multidim structure, and L2-weight level allocation are
        part of the format, so only QP and adaptivity are searched."""
        import copy

        from ..core.autotune import autotune

        decision = autotune(
            data, self.error_bound, radius=self.radius,
            fixed={
                "interp": "linear",
                "structure": "multidim",
                "axis_order": None,
                "level_eb_factors": self._level_factors,
            },
        )
        tuned = copy.copy(self)
        tuned.qp = decision.qp_config()
        tuned.adaptive = decision.adaptive_config()
        tuned.tuning_decision = decision
        return tuned

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        cfg = self._engine_config(data.shape)
        (meta,), (stream,), (literals,), (anchors,) = compress_volumes(
            data[None], cfg, state
        )[:4]
        sections = encode_engine_sections(
            stream, literals, anchors, entropy=self.entropy
        )
        return {"engine": meta}, sections

    def _decompress(self, blob: Blob) -> np.ndarray:
        return self._reconstruct(blob, stop_level=0)

    def decompress_resolution(self, blob: bytes, level: int) -> np.ndarray:
        """Reconstruct only down to interpolation level ``level`` (resolution
        reduction): returns the stride-``2**level`` subgrid of the data.
        ``level=0`` is full resolution and the blob's level count the
        coarsest.  A level outside that range raises a plain ``ValueError``
        before anything is decoded; a damaged blob raises
        :class:`~repro.errors.CorruptBlobError`.

        Routes through the same envelope/CRC unwrap, header validation, and
        typed-fault conversion as :meth:`decompress`, so sealed (v1 RPR1)
        blobs and corrupted bytes behave identically on both entry points.
        """
        b, shape, _dtype = self._parse_own_blob(blob)
        levels = num_levels(shape)
        engine = b.header.get("engine")
        # an intact header declares its shape's level count; under any
        # other the decode raises CorruptBlobError before a pass runs
        if (
            isinstance(engine, dict) and engine.get("levels") == levels
            and not 0 <= level <= levels
        ):
            raise ValueError(
                f"resolution level {level} is outside the blob's levels "
                f"0..{levels}"
            )
        with _typed_faults(self.name):
            return self._reconstruct(b, stop_level=level)

    def _reconstruct(self, blob: Blob, stop_level: int) -> np.ndarray:
        # the engine's schedule replay handles partial decode natively: with
        # stop_level > 0 the finer levels' streams are simply left unread
        arr = decode_engine_blob([blob], stop_level)[0]
        if stop_level == 0:
            return arr
        s = 1 << stop_level
        return arr[tuple(slice(0, None, s) for _ in blob.header["shape"])].copy()
