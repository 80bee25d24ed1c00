"""Adaptive linear-scaling quantizer with in-band reserved-index signalling.

SZ3's ``AdaptiveLinearQuantizer`` mechanism (arXiv:2111.02925): points whose
coarse quantization index magnitude reaches ``threshold`` are *hard to
predict* and are re-quantized against the tightened bound
``eb / 2**bits``, so regions the interpolator models poorly get a much
smaller pointwise error at almost no rate cost (their indices were large
anyway).  The switch is signalled **in-band**: wire indices with
``|w| >= threshold`` are reserved for tightened points, so the decoder
recovers the per-point bound from the index alone — no side channel, no
per-point mode bits.

Wire encoding
-------------
With ``t = threshold``, ``b = bits``, coarse index ``q = rint(d-p / 2eb)``
and tight index ``qt = rint(d-p / 2eb*2^-b)``:

* easy points (``|q| < t``) ship ``w = q`` verbatim; ``|w| < t``.
* hard points (``|q| >= t``) ship ``w = sign(qt) * (|qt| - bias)`` with
  ``bias = t*2^b - 2^(b-1) - t``; since ``|q| >= t`` implies
  ``|d-p| >= (t - 1/2) * 2eb`` and the tight scale is an exact power-of-two
  multiple of the coarse scale, ``|qt| >= t*2^b - 2^(b-1)`` holds exactly in
  floating point, hence ``|w| >= t`` — the reserved band.

Decode inverts by range: ``|w| < t`` is a coarse index, ``|w| >= t``
recovers ``|qt| = |w| + bias`` and reconstructs at the tightened scale.
Indices that would leave ``(-radius, radius)`` — or whose reconstruction
misses its bound due to floating-point rounding — fall back to the literal
sentinel stream, exactly like the plain :class:`~repro.quantize.linear.
LinearQuantizer`.

Both directions run the same ufunc structure (``p + scale * q`` in float64,
one final cast), so encode-side ``decoded`` is bit-identical to the
decompressor's output.
"""
from __future__ import annotations

import numpy as np

from ..core.config import ADAPTIVE_MAX_BITS
from .linear import QuantResult

__all__ = [
    "AdaptiveLinearQuantizer",
    "adaptive_encode",
    "adaptive_decode",
    "reserved_bias",
]


def reserved_bias(bits: int, threshold: int) -> int:
    """Shift subtracted from ``|qt|`` so hard wire indices start at ``threshold``."""
    return threshold * (1 << bits) - (1 << (bits - 1)) - threshold


def adaptive_encode(values, preds, error_bound, bits, threshold, radius):
    """Quantize ``values`` against ``preds`` with reserved-index adaptivity.

    Returns ``(wire, decoded, literals, n_adaptive)``: int64 wire indices
    (sentinel ``-radius`` at literal points), the bit-exact reconstruction,
    the literal side stream in C order, and the adaptive-point count.
    """
    values = np.asarray(values)
    preds = np.asarray(preds, dtype=values.dtype)
    two_eb = 2.0 * float(error_bound)
    two_tight = two_eb / float(1 << bits)
    tight_eb = float(error_bound) / float(1 << bits)
    bias = reserved_bias(bits, threshold)

    diff = np.subtract(values, preds, dtype=np.float64)
    q = np.rint(diff / two_eb)
    hard = np.abs(q) >= threshold
    qt = np.rint(diff / two_tight)
    # hard wire index: sign(qt) * (|qt| - bias); |qt| >= t*2^b - 2^(b-1)
    # holds exactly (power-of-two scaling commutes with rint), so the
    # result lands in the reserved band |w| >= threshold.
    wire_f = np.where(hard, np.sign(qt) * (np.abs(qt) - bias), q)
    # reconstruction, same ufunc structure as decode for bit-identity
    qtd = np.where(hard, qt, q)
    scale = np.where(hard, two_tight, two_eb)
    decoded = (preds + scale * qtd).astype(values.dtype)

    unpred = np.abs(wire_f) >= radius
    # defensive aliasing guard: a hard point whose wire index fell below the
    # reserved band would decode at the wrong scale — store it literally.
    unpred |= hard & (np.abs(wire_f) < threshold)
    # floating-point guard: each point must meet *its* bound.
    err = np.abs(np.subtract(decoded, values, dtype=np.float64))
    unpred |= np.where(hard, err > tight_eb, err > float(error_bound))

    wire = np.where(unpred, 0.0, wire_f).astype(np.int64)
    wire[unpred] = -int(radius)
    literals = values[unpred].ravel()
    decoded[unpred] = literals
    n_adaptive = int(np.count_nonzero(hard & ~unpred))
    return wire, decoded, literals, n_adaptive


def adaptive_decode(indices, preds, literals, error_bound, bits, threshold, radius):
    """Invert :func:`adaptive_encode` for one pass (literal-count checked)."""
    indices = np.asarray(indices)
    preds = np.asarray(preds)
    sentinel = -int(radius)
    two_eb = 2.0 * float(error_bound)
    two_tight = two_eb / float(1 << bits)
    bias = reserved_bias(bits, threshold)

    unpred = indices == sentinel
    n_unpred = int(unpred.sum())
    if n_unpred != literals.size:
        raise ValueError(
            f"literal count mismatch: mask has {n_unpred}, stream has {literals.size}"
        )
    w = indices.astype(np.float64)
    w[unpred] = 0.0
    hard = np.abs(w) >= threshold
    qtd = np.where(hard, np.sign(w) * (np.abs(w) + bias), w)
    scale = np.where(hard, two_tight, two_eb)
    out = (preds + scale * qtd).astype(preds.dtype)
    if n_unpred:
        out[unpred] = literals.astype(preds.dtype)
    return out


class AdaptiveLinearQuantizer:
    """Drop-in :class:`~repro.quantize.linear.LinearQuantizer` variant that
    tightens the effective bound by ``2**bits`` at hard-to-predict points.

    Parameters
    ----------
    error_bound:
        The *global* absolute bound ``e``; every point satisfies
        ``|d - d'| <= e`` and hard points additionally satisfy
        ``|d - d'| <= e / 2**bits``.
    radius:
        Half the quantizer capacity; wire indices with ``|w| >= radius``
        are stored as literals.
    bits:
        Bound-tightening exponent, ``1 <= bits <= ADAPTIVE_MAX_BITS``.
    threshold:
        Coarse-index magnitude at which a point counts as hard (``>= 1``).
    """

    def __init__(
        self,
        error_bound: float,
        radius: int = 32768,
        *,
        bits: int = 2,
        threshold: int = 4,
    ) -> None:
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        if radius < 2:
            raise ValueError("radius must be >= 2")
        if not 1 <= int(bits) <= ADAPTIVE_MAX_BITS:
            raise ValueError(f"bits must be in [1, {ADAPTIVE_MAX_BITS}]")
        if int(threshold) < 1:
            raise ValueError("threshold must be >= 1")
        self.error_bound = float(error_bound)
        self.radius = int(radius)
        self.bits = int(bits)
        self.threshold = int(threshold)
        #: adaptive-point count of the most recent :meth:`quantize` call
        self.last_adaptive = 0

    @property
    def sentinel(self) -> int:
        return -self.radius

    @property
    def tight_bound(self) -> float:
        """The tightened bound applied at hard-to-predict points."""
        return self.error_bound / float(1 << self.bits)

    def quantize(self, values: np.ndarray, preds: np.ndarray) -> QuantResult:
        wire, decoded, literals, n_adaptive = adaptive_encode(
            values, preds, self.error_bound, self.bits, self.threshold, self.radius
        )
        self.last_adaptive = n_adaptive
        return QuantResult(indices=wire, decoded=decoded, literals=literals)

    def dequantize(
        self, indices: np.ndarray, preds: np.ndarray, literals: np.ndarray
    ) -> np.ndarray:
        return adaptive_decode(
            indices, preds, literals, self.error_bound, self.bits,
            self.threshold, self.radius,
        )

    def split_literals(self, indices, literals, counts_done):
        return int((indices == self.sentinel).sum())
