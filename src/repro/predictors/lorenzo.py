"""Multidimensional Lorenzo predictor in dual-quantization form.

SZ3 switches from interpolation to a Lorenzo predictor at small error bounds
(the paper relies on this to explain SegSalt/SCALE behaviour), so a faithful
port needs one.  We implement the cuSZ-style *dual quantization* variant:

1. pre-quantize the data:      ``t = round(d / 2e)``   (so ``|d - 2e*t| <= e``)
2. n-D Lorenzo on integers:    ``q = finite difference of t along every axis``
3. inverse is an exact integer prefix-sum along every axis.

Residuals whose magnitude reaches the quantizer radius are moved to a
fixed-width escape stream (they hold the true delta, so decoding is a pure
reinstate-then-integrate with no data-dependent control flow).  Both
directions are fully vectorized (``np.diff`` / ``np.cumsum``), and the integer
arithmetic makes the transform exactly reversible — unlike classic Lorenzo,
whose compression loop is inherently sequential in Python.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import span as stage

__all__ = ["LorenzoResult", "lorenzo_encode", "lorenzo_decode"]

_OVERFLOW_LIMIT = 1 << 60


@dataclass
class LorenzoResult:
    """``indices`` Lorenzo residuals with the sentinel at escape positions;
    ``escapes`` holds the true residuals there, in C order; ``step`` the
    effective quantization step ``2*eb_eff`` the decoder must use."""

    indices: np.ndarray
    escapes: np.ndarray
    sentinel: int
    step: float = 0.0


def lorenzo_encode(
    data: np.ndarray, error_bound: float, radius: int = 32768,
    want_recon: bool = True,
) -> tuple[LorenzoResult, np.ndarray | None]:
    """Encode ``data`` with dual-quantization Lorenzo.

    Returns the residual container plus the reconstruction (bit-identical to
    what decompression produces), which satisfies ``|d - recon| <= eb`` in
    real arithmetic; floating-point rounding can inflate the bound by one ULP
    of ``eb`` (e.g. 3.7 at eb=0.1), the same behaviour as cuSZ's dual-quant.

    ``want_recon=False`` skips materializing the reconstruction (returned as
    ``None``) — used by entropy-only trials such as SZ3's predictor selection,
    where only the residual statistics matter.
    """
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    # Casting the reconstruction to the output dtype costs up to one ulp of
    # the value magnitude; shrink the internal step by that margin so the
    # user-facing bound holds in the output dtype.
    absmax = float(np.abs(data).max(initial=0.0))
    margin = 4.0 * absmax * float(np.finfo(data.dtype).eps)
    if margin >= 0.5 * error_bound:
        raise ValueError("error bound below the dtype's representable resolution")
    eb_eff = error_bound - margin
    two_eb = 2.0 * eb_eff
    scale = absmax / two_eb
    if scale >= _OVERFLOW_LIMIT:
        raise ValueError("error bound too small for dual-quantization range")
    with stage("quantize"):
        t = np.rint(data.astype(np.float64) / two_eb).astype(np.int64)
        recon = (t * two_eb).astype(data.dtype) if want_recon else None

    with stage("predict"):
        q = t
        for ax in range(q.ndim):
            q = np.diff(q, axis=ax, prepend=0)

    sentinel = -radius
    escape_mask = np.abs(q) >= radius
    escapes = q[escape_mask].ravel().copy()
    q[escape_mask] = sentinel
    return (
        LorenzoResult(indices=q, escapes=escapes, sentinel=sentinel, step=two_eb),
        recon,
    )


def lorenzo_decode(
    result: LorenzoResult, error_bound: float, dtype=np.float64
) -> np.ndarray:
    """Invert :func:`lorenzo_encode` back to the reconstruction.

    ``error_bound`` is used only when the result predates the ``step`` field;
    normally the stored effective step drives the reconstruction."""
    if error_bound <= 0:
        raise ValueError("error_bound must be positive")
    q = result.indices.astype(np.int64, copy=True)
    mask = q == result.sentinel
    if int(mask.sum()) != result.escapes.size:
        raise ValueError("escape count mismatch")
    if result.escapes.size:
        q[mask] = result.escapes
    with stage("predict"):
        for ax in range(q.ndim):
            q = np.cumsum(q, axis=ax)
    two_eb = result.step if result.step > 0 else 2.0 * error_bound
    with stage("quantize"):
        return (q * two_eb).astype(dtype)
