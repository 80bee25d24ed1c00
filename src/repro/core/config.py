"""Configuration of the quantization index prediction (QP) stage and the
adaptive (reserved-index) quantizer."""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = [
    "QPConfig",
    "QP_DIMENSIONS",
    "QP_CONDITIONS",
    "AdaptiveConfig",
    "ADAPTIVE_MAX_BITS",
]

QP_DIMENSIONS = ("1d-back", "1d-top", "1d-left", "2d", "3d")
QP_CONDITIONS = ("I", "II", "III", "IV")

#: cap on ``adaptive_bits`` — tightening by 2^12 already exceeds the dynamic
#: range any float32 bound survives, and the cap bounds wire-index growth.
ADAPTIVE_MAX_BITS = 12


@dataclass(frozen=True)
class QPConfig:
    """Settings for adaptive quantization index prediction (Section V).

    ``dimension``
        Which Lorenzo variant predicts the current index:
        ``1d-back`` along the interpolation direction, ``1d-top``/``1d-left``
        along the orthogonal plane axes, ``2d`` the in-plane Lorenzo (paper's
        best fit), ``3d`` the full Lorenzo over all pass axes.
    ``condition``
        Prediction condition, Cases I-IV of Section V-C2.  The paper's best
        fit is Case III: skip if any involved neighbour is unpredictable, and
        require the left/top neighbours to share a (nonzero) sign.
    ``max_level``
        Apply QP only at interpolation levels ``<= max_level`` (Section V-C3:
        levels 1 and 2 hold >98% of points; higher levels can even hurt).
    ``enabled``
        Master switch; a disabled config makes the transform the identity.
    """

    enabled: bool = True
    dimension: str = "2d"
    condition: str = "III"
    max_level: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError("enabled must be a bool")
        if not isinstance(self.max_level, int) or isinstance(self.max_level, bool):
            raise ValueError("max_level must be an int")
        if self.dimension not in QP_DIMENSIONS:
            raise ValueError(f"dimension must be one of {QP_DIMENSIONS}")
        if self.condition not in QP_CONDITIONS:
            raise ValueError(f"condition must be one of {QP_CONDITIONS}")
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")

    def applies_to_level(self, level: int) -> bool:
        return self.enabled and level <= self.max_level

    @staticmethod
    def disabled() -> "QPConfig":
        return QPConfig(enabled=False)

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "dimension": self.dimension,
            "condition": self.condition,
            "max_level": self.max_level,
        }

    @staticmethod
    def from_dict(d: dict) -> "QPConfig":
        """Rebuild from an untrusted header or wire dict; raises a typed
        error (see :func:`_from_untrusted_dict`)."""
        return _from_untrusted_dict(QPConfig, d, "qp")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Settings for the in-band adaptive quantizer (reserved-index scheme).

    ``bits``
        Hard-to-predict points are re-quantized against the tightened bound
        ``eb / 2**bits`` (SZ3's ``AdaptiveLinearQuantizer`` mechanism).
    ``threshold``
        A point is *hard* when its coarse index magnitude reaches this value;
        wire indices with ``|w| >= threshold`` are reserved to signal the
        tightened bound in-band, so decode needs no side channel.
    """

    bits: int = 2
    threshold: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise ValueError("bits must be an int")
        if not isinstance(self.threshold, int) or isinstance(self.threshold, bool):
            raise ValueError("threshold must be an int")
        if not 1 <= self.bits <= ADAPTIVE_MAX_BITS:
            raise ValueError(f"bits must be in [1, {ADAPTIVE_MAX_BITS}]")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")

    def to_dict(self) -> dict:
        return {"bits": self.bits, "threshold": self.threshold}

    @staticmethod
    def from_dict(d: dict) -> "AdaptiveConfig":
        """Rebuild from an untrusted header dict; raises a typed error (see
        :func:`_from_untrusted_dict`)."""
        return _from_untrusted_dict(AdaptiveConfig, d, "adaptive")


def _from_untrusted_dict(cls: type, d: Any, what: str) -> Any:
    """``cls(**d)`` for a config dict read from a blob header or a wire
    spec.

    Decode paths and the gateway call this on attacker-controllable
    bytes, so range and type violations must surface as
    :class:`CorruptBlobError`, not as bare ``ValueError``/``TypeError``.
    """
    from ..errors import CorruptBlobError

    if not isinstance(d, dict):
        raise CorruptBlobError(f"{what} config must be a dict, got {type(d).__name__}")
    extra = set(d) - {f.name for f in fields(cls)}
    if extra:
        raise CorruptBlobError(f"unknown {what} config keys: {sorted(extra)}")
    try:
        return cls(**d)
    except (ValueError, TypeError) as exc:
        raise CorruptBlobError(f"invalid {what} config: {exc}") from exc
