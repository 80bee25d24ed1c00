"""ZFP-like compressor: 4^d blocks, lifted transform, bit-plane truncation.

Faithful pipeline pieces (Lindstrom 2014): the data is tiled into 4^d blocks;
each block is aligned to a common exponent, promoted to fixed point, and
decorrelated with ZFP's integer lifting transform; low bit-planes below the
accuracy target are dropped.  This port replaces ZFP's embedded group-testing
coder with a Huffman stage over the truncated coefficients (documented
substitution in DESIGN.md) — the transform and truncation, which determine
the CR/PSNR *shape* (low ratios, PSNR well above the request, very fast),
are preserved.

All block math is vectorized across blocks (arrays shaped ``(nblocks, 4^d)``).
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..codecs.fixed import decode_fixed, encode_fixed
from ..pipeline.stages import StageContext, ZFPTransform
from .base import (
    Blob,
    CompressionState,
    Compressor,
    decode_index_stream,
    encode_index_stream,
)

__all__ = ["ZFP"]

#: the decorrelation stage of the registered "zfp" pipeline (wraps the
#: lifting kernels below); the transform is context-free
_TRANSFORM = ZFPTransform()
_CTX = StageContext()

_BLOCK = 4
# fixed-point fraction bits; transforms grow magnitudes by < 2**ndim so keep
# headroom inside int64
_PRECISION = 40


class ZFP(Compressor):
    """ZFP-like transform compressor (fixed-accuracy mode)."""

    name = "zfp"
    traits = {"speed": "very high", "ratio": "low", "transform": True}

    def __init__(self, error_bound: float, lossless_backend: str = "zlib") -> None:
        super().__init__(error_bound, lossless_backend)

    # -- compression -------------------------------------------------------

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        ndim = data.ndim
        padded, orig_shape = _pad_blocks(data)
        blocks = _to_blocks(padded)  # (nblocks, 4**ndim) float64
        absmax = np.abs(blocks).max(axis=1)
        # per-block exponent: 2**e >= absmax
        e = np.zeros(blocks.shape[0], dtype=np.int64)
        nz = absmax > 0
        e[nz] = np.ceil(np.log2(absmax[nz])).astype(np.int64)
        scale = np.ldexp(1.0, (_PRECISION - e).astype(np.int32))
        fixed = np.rint(blocks * scale[:, None]).astype(np.int64)
        coeffs = _TRANSFORM.forward(_CTX, (fixed, ndim))
        # Keep bit-planes down to the accuracy target plus guard bits that
        # absorb the lifted transform's gain.  The guard is verified at encode
        # time: reconstruct (cheap, vectorized) and widen until the point-wise
        # bound holds — mirroring fixed-accuracy mode's conservatism.
        scale_back = np.ldexp(1.0, (e - _PRECISION).astype(np.int32))
        core = tuple(slice(0, n) for n in orig_shape)
        for guard in range(1 + ndim, 16):
            drop = np.floor(np.log2(self.error_bound)) - guard + _PRECISION - e
            drop = np.clip(drop, 0, _PRECISION + 8).astype(np.int64)
            truncated = coeffs >> drop[:, None]
            rec_fixed = _TRANSFORM.inverse(_CTX, (truncated << drop[:, None], ndim))
            rec = _from_blocks(rec_fixed.astype(np.float64) * scale_back[:, None], padded.shape)
            rec_cast = rec[core].astype(data.dtype).astype(np.float64)
            if np.abs(rec_cast - data).max() <= self.error_bound:
                break
        else:
            raise RuntimeError("zfp: could not satisfy the error bound")
        header = {
            "orig_shape": list(orig_shape),
            "padded_shape": list(padded.shape),
            "guard": guard,
        }
        sections = {
            "coeffs": encode_index_stream(
                truncated.ravel(), self.lossless_backend, entropy=self.entropy
            ),
            "exponents": lossless_compress(
                encode_fixed(e - e.min()), self.lossless_backend
            ),
        }
        header["e_min"] = int(e.min())
        if state is not None:
            state.extras["bitplanes_dropped"] = drop
        return header, sections

    # -- decompression -------------------------------------------------------

    def _decompress(self, blob: Blob) -> np.ndarray:
        header = blob.header
        ndim = len(header["orig_shape"])
        truncated = decode_index_stream(blob.sections["coeffs"])
        e = (
            decode_fixed(lossless_decompress(blob.sections["exponents"]))
            + header["e_min"]
        )
        nblocks = e.size
        coeffs = truncated.reshape(nblocks, _BLOCK**ndim)
        guard = int(header["guard"])
        drop = np.floor(np.log2(header["error_bound"])) - guard + _PRECISION - e
        drop = np.clip(drop, 0, _PRECISION + 8).astype(np.int64)
        fixed = _TRANSFORM.inverse(_CTX, (coeffs << drop[:, None], ndim))
        scale = np.ldexp(1.0, (e - _PRECISION).astype(np.int32))
        blocks = fixed.astype(np.float64) * scale[:, None]
        padded = _from_blocks(blocks, tuple(header["padded_shape"]))
        out = padded[tuple(slice(0, n) for n in header["orig_shape"])]
        return np.ascontiguousarray(out)


# -- block tiling -------------------------------------------------------------


def _pad_blocks(data: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    pads = [(0, (-n) % _BLOCK) for n in data.shape]
    padded = np.pad(data.astype(np.float64), pads, mode="edge")
    return padded, data.shape


def _to_blocks(padded: np.ndarray) -> np.ndarray:
    ndim = padded.ndim
    grid = tuple(n // _BLOCK for n in padded.shape)
    # split each axis into (grid, 4), move the grid axes first
    shape = []
    for g in grid:
        shape.extend([g, _BLOCK])
    arr = padded.reshape(shape)
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    return arr.transpose(order).reshape(int(np.prod(grid)), _BLOCK**ndim)


def _from_blocks(blocks: np.ndarray, padded_shape: tuple[int, ...]) -> np.ndarray:
    ndim = len(padded_shape)
    grid = tuple(n // _BLOCK for n in padded_shape)
    arr = blocks.reshape(grid + (_BLOCK,) * ndim)
    order = []
    for i in range(ndim):
        order.extend([i, ndim + i])
    return arr.transpose(order).reshape(padded_shape)


# -- ZFP lifted transform -----------------------------------------------------
#
# The 1-D forward lift on (x, y, z, w), applied along each axis of the block
# (Lindstrom 2014, integer version):


def _lift_forward(v: np.ndarray) -> None:
    """In-place forward lift along the last axis (length 4)."""
    x, y, z, w = (v[..., 0].copy(), v[..., 1].copy(), v[..., 2].copy(), v[..., 3].copy())
    x += w
    x >>= 1
    w -= x
    z += y
    z >>= 1
    y -= z
    x += z
    x >>= 1
    z -= x
    w += y
    w >>= 1
    y -= w
    w += y >> 1
    y -= w >> 1
    v[..., 0], v[..., 1], v[..., 2], v[..., 3] = x, y, z, w


def _lift_inverse(v: np.ndarray) -> None:
    x, y, z, w = (v[..., 0].copy(), v[..., 1].copy(), v[..., 2].copy(), v[..., 3].copy())
    y += w >> 1
    w -= y >> 1
    y += w
    w <<= 1
    w -= y
    z += x
    x <<= 1
    x -= z
    y += z
    z <<= 1
    z -= y
    w += x
    x <<= 1
    x -= w
    v[..., 0], v[..., 1], v[..., 2], v[..., 3] = x, y, z, w


def _forward_transform(blocks: np.ndarray, ndim: int) -> np.ndarray:
    v = blocks.reshape((-1,) + (_BLOCK,) * ndim).copy()
    for axis in range(1, ndim + 1):
        moved = np.moveaxis(v, axis, -1)
        _lift_forward(moved)
    return v.reshape(blocks.shape)


def _inverse_transform(blocks: np.ndarray, ndim: int) -> np.ndarray:
    v = blocks.reshape((-1,) + (_BLOCK,) * ndim).copy()
    for axis in range(ndim, 0, -1):
        moved = np.moveaxis(v, axis, -1)
        _lift_inverse(moved)
    return v.reshape(blocks.shape)
