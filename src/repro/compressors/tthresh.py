"""TTHRESH-like compressor: Tucker (HOSVD) core quantization.

Pipeline (Ballester-Ripoll et al. 2019): higher-order SVD via per-mode
unfoldings, then lossy coding of the (highly compactable) core tensor, with
the orthogonal factor matrices stored losslessly.  This port replaces
TTHRESH's bit-plane core coder with uniform core quantization whose step is
chosen by a verified-at-encode search so the *point-wise* error bound of this
library's interface holds (real TTHRESH only targets norm-based error).  The
expensive SVDs reproduce TTHRESH's "high ratio, low throughput" profile from
Table IV.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from ..codecs import compress as lossless_compress, decompress as lossless_decompress
from ..codecs.fixed import decode_fixed, encode_fixed
from .base import (
    Blob,
    CompressionState,
    Compressor,
    _unzigzag,
    _zigzag,
    decode_index_stream,
    encode_index_stream,
)

__all__ = ["TTHRESH"]


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def _mode_multiply(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product of tensor ``t`` with matrix ``m``."""
    moved = np.moveaxis(t, mode, 0)
    res = np.tensordot(m, moved, axes=(1, 0))
    return np.moveaxis(res, 0, mode)


class TTHRESH(Compressor):
    """TTHRESH-like Tucker-decomposition compressor."""

    name = "tthresh"
    traits = {"speed": "low", "ratio": "high", "transform": True}

    def _compress(
        self, data: np.ndarray, state: CompressionState | None
    ) -> tuple[dict[str, Any], dict[str, bytes]]:
        # Center the data: quantized factors make U^T U deviate from identity
        # by ~2^-bits, which multiplies the data *magnitude* — removing a
        # large mean offset (e.g. absolute pressures) eliminates the dominant
        # term, and the precision below handles the rest.
        mean = float(data.astype(np.float64).mean())
        work = data.astype(np.float64) - mean
        absmax = float(np.abs(work).max()) or 1.0
        # Factor entries live in [-1, 1]; quantize them just finely enough
        # that their error stays far below the requested bound.
        factor_bits = int(
            np.clip(np.ceil(np.log2(absmax / self.error_bound)) + 10, 12, 48)
        )
        fscale = float((1 << (factor_bits - 1)) - 1)
        factors: list[np.ndarray] = []
        fq_list: list[np.ndarray] = []
        core = work
        for mode in range(work.ndim):
            unf = _unfold(core, mode)
            # economical SVD of the unfolding; U spans the mode's column space
            u, _, _ = np.linalg.svd(unf, full_matrices=False)
            # the core is computed against the *quantized* factors so the
            # verified step search sees exactly what the decoder will use
            uq = np.rint(u * fscale).astype(np.int64)
            u = uq.astype(np.float64) / fscale
            factors.append(u)
            fq_list.append(uq)
            core = _mode_multiply(core, u.T, mode)

        # Verified quantization-step search.  Because the factors are
        # orthonormal and the basis functions delocalized, the point-wise
        # reconstruction error is far below the core quantization step; start
        # coarse, use one probe to extrapolate (error scales ~linearly with
        # the step), then verify/halve.  Verification is done in the output
        # dtype so float32 rounding cannot break the bound.
        value_range = float(work.max() - work.min()) or 1.0
        step = value_range / 2.0

        def reconstruct(s: float) -> np.ndarray:
            rec = np.rint(core / s) * s
            for mode, u in enumerate(factors):
                rec = _mode_multiply(rec, u, mode)
            # mirror the decoder exactly: mean re-added *before* the output
            # cast (the cast ulp scales with the absolute values)
            return (rec + mean).astype(data.dtype)

        def max_err(s: float) -> float:
            return float(
                np.abs(reconstruct(s).astype(np.float64) - data.astype(np.float64)).max()
            )

        probe_err = max_err(step)
        if probe_err > self.error_bound and probe_err > 0:
            step *= 0.5 * self.error_bound / probe_err
        for _ in range(60):
            if max_err(step) <= self.error_bound:
                break
            step /= 2.0
        else:
            raise RuntimeError("tthresh: could not satisfy the error bound")
        # grow back toward the largest step that still satisfies the bound
        for _ in range(8):
            if max_err(step * 1.6) <= self.error_bound:
                step *= 1.6
            else:
                break
        q = np.rint(core / step).astype(np.int64)

        header = {
            "step": step,
            "mean": mean,
            "core_shape": list(core.shape),
            "factor_shapes": [list(f.shape) for f in factors],
            "factor_bits": factor_bits,
        }
        fact_q = np.concatenate([f.ravel() for f in fq_list])
        fact_blob = encode_fixed(_zigzag(fact_q))
        sections = {
            "core": encode_index_stream(q.ravel(), entropy=self.entropy),
            "factors": lossless_compress(fact_blob),
        }
        if state is not None:
            state.extras["core_nonzero"] = int((q != 0).sum())
        return header, sections

    def _decompress(self, blob: Blob) -> np.ndarray:
        header = blob.header
        q = decode_index_stream(blob.sections["core"]).reshape(header["core_shape"])
        fscale = float((1 << (int(header["factor_bits"]) - 1)) - 1)
        fact_q = _unzigzag(
            decode_fixed(lossless_decompress(blob.sections["factors"]))
        )
        factors = []
        off = 0
        for rows, cols in header["factor_shapes"]:
            count = rows * cols
            factors.append(
                fact_q[off:off + count].reshape(rows, cols).astype(np.float64) / fscale
            )
            off += count
        recon = q.astype(np.float64) * header["step"]
        for mode, u in enumerate(factors):
            recon = _mode_multiply(recon, u, mode)
        return recon + float(header.get("mean", 0.0))
