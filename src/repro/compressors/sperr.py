"""SPERR-like compressor: CDF 9/7 wavelet + quantization + outlier pass.

SPERR (Li, Lindstrom, Clyne 2023) runs a multi-level CDF 9/7 wavelet
transform, codes the coefficients, and then — its signature feature —
enforces the *point-wise* bound with an outlier-correction pass.  This port
keeps that architecture but replaces the SPECK set-partitioning coder with
uniform coefficient quantization + Huffman (documented substitution in
DESIGN.md); the wavelet decorrelation and the outlier mechanism, which give
SPERR its "high ratio, moderate speed" profile, are preserved.

The encoder reconstructs internally with exactly the operations the decoder
will run, so corrections computed at encode time apply bit-identically.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..codecs.fixed import decode_fixed, encode_fixed
from ..errors import CorruptBlobError
from ..pipeline.stages import CDF97Transform, StageContext
from .base import (
    Blob,
    CompressionState,
    Compressor,
    decode_index_stream,
    encode_index_stream,
)

__all__ = ["SPERR", "cdf97_forward", "cdf97_inverse", "reject_retired_coder"]

# CDF 9/7 lifting constants
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
_KAPPA = 1.230174104914001

_LEVELS = 3

#: wavelet stage contexts are unused (the stage carries its level count)
_CTX = StageContext()


def _lift_1d(arr: np.ndarray, inverse: bool) -> np.ndarray:
    """CDF 9/7 lifting along axis 0 (length must be even >= 4), vectorized
    over remaining axes.  Uses symmetric boundary extension."""
    n = arr.shape[0]
    x = arr.astype(np.float64, copy=True)
    even, odd = x[0::2], x[1::2]

    def predict(coef):
        # odd[i] += coef * (even[i] + even[i+1]), mirrored at the end
        right = np.concatenate([even[1:], even[-1:]], axis=0)
        odd[...] += coef * (even + right)

    def update(coef):
        # even[i] += coef * (odd[i-1] + odd[i]), mirrored at the start
        left = np.concatenate([odd[:1], odd[:-1]], axis=0)
        even[...] += coef * (left + odd)

    if not inverse:
        predict(_ALPHA)
        update(_BETA)
        predict(_GAMMA)
        update(_DELTA)
        even /= _KAPPA
        odd *= _KAPPA
        return np.concatenate([even, odd], axis=0)

    # inverse: arr holds [approx | detail]
    half = n // 2
    even = x[:half] * _KAPPA
    odd = x[half:] / _KAPPA
    update(-_DELTA)
    predict(-_GAMMA)
    update(-_BETA)
    predict(-_ALPHA)
    out = np.empty_like(x)
    out[0::2] = even
    out[1::2] = odd
    return out


def cdf97_forward(data: np.ndarray, levels: int = _LEVELS) -> np.ndarray:
    """Multi-level separable CDF 9/7 transform (shape must be divisible by
    ``2**levels`` on every axis)."""
    out = data.astype(np.float64, copy=True)
    region = list(data.shape)
    for _ in range(levels):
        sub = out[tuple(slice(0, r) for r in region)]
        for axis in range(data.ndim):
            moved = np.moveaxis(sub, axis, 0)
            moved[...] = _lift_1d(moved, inverse=False)
        region = [r // 2 for r in region]
    return out


def cdf97_inverse(coeffs: np.ndarray, levels: int = _LEVELS) -> np.ndarray:
    out = coeffs.astype(np.float64, copy=True)
    regions = [list(coeffs.shape)]
    for _ in range(levels - 1):
        regions.append([r // 2 for r in regions[-1]])
    for region in reversed(regions):
        sub = out[tuple(slice(0, r) for r in region)]
        for axis in range(coeffs.ndim - 1, -1, -1):
            moved = np.moveaxis(sub, axis, 0)
            moved[...] = _lift_1d(moved, inverse=True)
    return out


def subband_regions(
    shape: tuple[int, ...], levels: int
) -> list[tuple[int, tuple[slice, ...]]]:
    """Mallat-layout subband regions as ``(wavelet_level, slices)`` pairs,
    finest level first; the final approximation band is ``(levels, ...)``.

    Used by the QP extension below: within a subband, neighbouring detail
    coefficients are spatially correlated just like interpolation indices.
    """
    from itertools import combinations

    ndim = len(shape)
    out: list[tuple[int, tuple[slice, ...]]] = []
    for lvl in range(1, levels + 1):
        for size in range(1, ndim + 1):
            for axes in combinations(range(ndim), size):
                region = tuple(
                    slice(n >> lvl, n >> (lvl - 1)) if a in axes else slice(0, n >> lvl)
                    for a, n in enumerate(shape)
                )
                out.append((lvl, region))
    out.append((levels, tuple(slice(0, n >> levels) for n in shape)))
    return out


#: sentinel for the wavelet-domain QP: a value quantized indices never take
_QP_SENTINEL = -(1 << 40)


def reject_retired_coder(header: dict[str, Any]) -> None:
    """Reject blobs of the retired SPECK coefficient coder (the only header
    that ever carried a ``coder`` field) with a migration hint."""
    if header.get("coder") == "speck":
        raise CorruptBlobError(
            "SPERR blob uses the retired SPECK coefficient coder; decode it "
            "with an earlier release and re-compress"
        )


class SPERR(Compressor):
    """SPERR-like wavelet compressor with point-wise outlier correction.

    The optional ``qp`` argument applies the paper's quantization index
    prediction to the wavelet-domain indices, per subband — this implements
    the paper's *future work* item 1 ("a more generalized design for
    compressors besides interpolation-based ones").  The subband's wavelet
    level maps onto QP's interpolation level, so the default config predicts
    only in the two finest (largest) subband groups.
    """

    name = "sperr"
    supports_qp = True
    traits = {"speed": "medium", "ratio": "very high", "transform": True}

    def __init__(
        self,
        error_bound: float,
        levels: int = _LEVELS,
        qp=None,
        lossless_backend: str = "zlib",
    ) -> None:
        from ..core.config import QPConfig

        super().__init__(error_bound, lossless_backend)
        self.levels = levels
        self.qp = qp or QPConfig.disabled()

    def _qp_transform(self, q: np.ndarray, inverse: bool) -> np.ndarray:
        """Apply (or invert) per-subband QP on the quantized coefficients."""
        if not self.qp.enabled:
            return q
        from ..core.qp import qp_forward, qp_inverse

        fn = qp_inverse if inverse else qp_forward
        out = q.copy()
        for lvl, region in subband_regions(q.shape, self.levels):
            sub = out[region]
            if sub.size == 0:
                continue
            out[region] = fn(sub, _QP_SENTINEL, self.qp, lvl)
        return out

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        mult = 1 << self.levels
        pads = [(0, (-n) % mult) for n in data.shape]
        padded = np.pad(data.astype(np.float64), pads, mode="edge")
        wavelet = CDF97Transform(self.levels)
        coeffs = wavelet.forward(_CTX, padded)
        core = tuple(slice(0, n) for n in data.shape)

        # Pick the quantization step minimizing estimated size = coefficient
        # entropy + outlier cost (SPERR balances its coder against the
        # correction pass the same way).  Outliers store the *exact* original
        # value, so the point-wise bound holds in the output dtype.
        from ..core.characterize import shannon_entropy

        best = None
        for factor in (1.0, 0.5, 0.25, 0.125):
            step = factor * self.error_bound
            q = np.rint(coeffs / step).astype(np.int64)
            recon = wavelet.inverse(_CTX, q.astype(np.float64) * step)
            rec_cast = recon[core].astype(data.dtype).astype(np.float64)
            viol = np.abs(rec_cast - data.astype(np.float64)) > self.error_bound
            n_out = int(viol.sum())
            bits = shannon_entropy(q) * q.size + n_out * (64 + 8 * data.itemsize)
            if best is None or bits < best[0]:
                best = (bits, step, q, viol)
        _, step, q, viol = best
        positions = np.nonzero(viol.ravel())[0]
        literals = data.ravel()[positions]

        q = self._qp_transform(q, inverse=False)
        header = {
            "levels": self.levels,
            "padded_shape": list(padded.shape),
            "step": step,
            "qp": self.qp.to_dict(),
        }
        sections = {
            "coeffs": encode_index_stream(
                q.ravel(), self.lossless_backend, entropy=self.entropy
            ),
            "outlier_pos": lossless_compress(
                encode_fixed(positions), self.lossless_backend
            ),
            "outlier_val": lossless_compress(literals.tobytes(), self.lossless_backend),
        }
        if state is not None:
            state.extras["outliers"] = int(positions.size)
        return header, sections

    def _decompress(self, blob: Blob) -> np.ndarray:
        header = blob.header
        reject_retired_coder(header)
        padded_shape = tuple(header["padded_shape"])
        q = decode_index_stream(blob.sections["coeffs"]).reshape(padded_shape)
        if "qp" in header:
            from ..core.config import QPConfig

            self.qp = QPConfig.from_dict(header["qp"])
            self.levels = int(header["levels"])
            q = self._qp_transform(q, inverse=True)
        recon = CDF97Transform(int(header["levels"])).inverse(
            _CTX, q.astype(np.float64) * header["step"]
        )
        dtype = np.dtype(header["dtype"])
        out = recon[tuple(slice(0, n) for n in header["shape"])].astype(dtype)
        positions = decode_fixed(lossless_decompress(blob.sections["outlier_pos"]))
        if positions.size:
            literals = np.frombuffer(
                lossless_decompress(blob.sections["outlier_val"]), dtype=dtype
            )
            out.ravel()[positions] = literals
        return out
