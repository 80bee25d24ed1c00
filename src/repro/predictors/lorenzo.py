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
directions are fully vectorized in numpy (``np.diff`` / ``np.cumsum``), and
the integer arithmetic makes the transform exactly reversible — unlike
classic Lorenzo, whose compression loop is inherently sequential in Python.

The numpy code is the specification.  Where the native library loads
(:mod:`repro.kernels`), the encode is two C calls over float32 or float64
input (the pre-quantization, then the differences and the escape split in
place) and the decode's reinstate-and-integrate one call of in-place
prefix sums; both give the same arrays.  :func:`lorenzo_histogram` bins
the indices the encode would produce in one C pass that writes none of
them, for SZ3's predictor selection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import kernels
from ..obs import span as stage

__all__ = ["LorenzoResult", "lorenzo_encode", "lorenzo_decode"]

_OVERFLOW_LIMIT = 1 << 60
#: the C kernels hold the sentinel ``-radius`` in an int64
_NATIVE_MAX_RADIUS = 1 << 62
_INT64 = np.iinfo(np.int64)


@dataclass
class LorenzoResult:
    """``indices`` Lorenzo residuals with the sentinel at escape positions;
    ``escapes`` holds the true residuals there, in C order; ``step`` the
    effective quantization step ``2*eb_eff`` the decoder must use."""

    indices: np.ndarray
    escapes: np.ndarray
    sentinel: int
    step: float = 0.0


def lorenzo_step(data: np.ndarray, error_bound: float) -> float:
    """The effective quantization step ``2*eb_eff`` that
    :func:`lorenzo_encode` uses for ``data``; raises ``ValueError`` where
    the bound is too small for dual quantization."""
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
    return two_eb


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
    ``None``) — used by encodes that only ship the residuals.
    """
    two_eb = lorenzo_step(data, error_bound)
    native = _encode_native(data, two_eb, radius, want_recon)
    if native is not None:
        return native
    return _encode_numpy(data, two_eb, radius, want_recon)


def _encode_numpy(
    data: np.ndarray, two_eb: float, radius: int, want_recon: bool
) -> tuple[LorenzoResult, np.ndarray | None]:
    """:func:`lorenzo_encode` in numpy: the fallback, and the specification
    of the C kernel."""
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
    q = np.array(result.indices, dtype=np.int64, order="C")
    if not lorenzo_integrate(q, result.escapes, result.sentinel):
        q = _integrate_numpy(q, result.escapes, result.sentinel)
    two_eb = result.step if result.step > 0 else 2.0 * error_bound
    with stage("quantize"):
        return (q * two_eb).astype(dtype)


def _integrate_numpy(
    q: np.ndarray, escapes: np.ndarray, sentinel: int
) -> np.ndarray:
    """Reinstate the escapes and prefix-sum every axis in numpy: the
    fallback, and the specification of :func:`lorenzo_integrate`."""
    mask = q == sentinel
    if int(mask.sum()) != escapes.size:
        raise ValueError("escape count mismatch")
    if escapes.size:
        q[mask] = escapes
    with stage("predict"):
        for ax in range(q.ndim):
            q = np.cumsum(q, axis=ax)
    return q


# -- native kernels ----------------------------------------------------------


def lorenzo_integrate(q: np.ndarray, escapes: np.ndarray, sentinel: int) -> bool:
    """Reinstate ``escapes`` at the sentinels of ``q`` and prefix-sum every
    axis, in place, with one C call; ``q`` must be a private C-contiguous
    int64 array.  False, with ``q`` untouched, where numpy must run (no
    library, non-int64 escapes, a sentinel outside int64, more than four
    non-unit axes, no points).  A sentinel count other than
    ``escapes.size`` raises the numpy path's ``ValueError``; the kernel
    reads no escape past ``escapes.size``."""
    if q.dtype != np.int64 or not q.flags.c_contiguous or not q.flags.writeable:
        raise ValueError("lorenzo_integrate needs a writable C-contiguous int64 array")
    lib = kernels.native()
    # the array's own axes, unit axes dropped (a prefix sum along one
    # changes nothing); the kernel reads the four extents
    geom = kernels.view_geometry(q.shape, q.strides, 8, merge=False)
    if (
        lib is None or geom is None or not q.size or escapes.dtype != np.int64
        or not _INT64.min <= sentinel <= _INT64.max
    ):
        return False
    escapes = np.ascontiguousarray(escapes)
    with stage("predict"):
        found = lib.repro_prefix_sums(
            q.ctypes.data, q.ctypes.data, geom, 15, sentinel,
            escapes.ctypes.data, escapes.size,
        )
    if found != escapes.size:
        raise ValueError("escape count mismatch")
    return True


def _lorenzo_view(data: np.ndarray, two_eb: float, radius: int, kernel: str):
    """(kernel, view geometry, scratch) for the Lorenzo float kernel
    ``kernel`` over ``data``, or None where numpy must run: no library,
    another dtype, no array of one or more axes, no points, NaN input (its
    step is NaN), a radius the int64 sentinel cannot hold, or a view the
    kernels cannot walk (more than four non-unit axes, unaligned).  The
    step guard keeps every pre-quantized value within 2**60, so the
    kernels' int64 casts are exact."""
    fn = kernels.float_kernel(kernel, data.dtype)
    if (
        fn is None or not isinstance(data, np.ndarray) or not data.ndim
        or not data.size or math.isnan(two_eb) or radius >= _NATIVE_MAX_RADIUS
    ):
        return None
    geom = kernels.view_geometry(
        data.shape, data.strides, data.itemsize, merge=False
    )
    if geom is None or data.ctypes.data % data.itemsize:
        return None
    n0, n1, n2, n3 = geom[:4]
    # one row's differences, then the partial differences of the previous
    # row, plane and block, each kept only for an axis longer than one
    # (see native.c)
    size = n3 + n3 * (n2 > 1) + n2 * n3 * (n1 > 1) + n1 * n2 * n3 * (n0 > 1)
    return fn, geom, np.empty(size, dtype=np.int64)


def _encode_native(
    data: np.ndarray, two_eb: float, radius: int, want_recon: bool
) -> "tuple[LorenzoResult, np.ndarray | None] | None":
    """:func:`lorenzo_encode` in C, or None where numpy must run (see
    :func:`_lorenzo_view`): the pre-quantization into the index array,
    then the differences and the escape split in place."""
    found = _lorenzo_view(data, two_eb, radius, "repro_lorenzo_prequantize")
    if found is None:
        return None
    prequantize, geom, scratch = found
    indices = np.empty(data.shape, dtype=np.int64)
    escapes = np.empty(data.size, dtype=np.int64)  # pages touched as used
    recon = np.empty(data.shape, dtype=data.dtype) if want_recon else None
    with stage("quantize"):
        prequantize(
            data.ctypes.data, geom, two_eb, kernels.address(indices),
            None if recon is None else kernels.address(recon),
        )
    with stage("predict"):
        n_esc = kernels.native().repro_lorenzo_encode(
            kernels.address(indices), geom, radius, kernels.address(scratch),
            kernels.address(escapes),
        )
    result = LorenzoResult(
        indices=indices, escapes=escapes[:n_esc].copy(), sentinel=-radius,
        step=two_eb,
    )
    return result, recon


def lorenzo_histogram(
    data: np.ndarray, error_bound: float, radius: int,
    bins: np.ndarray, bounds: np.ndarray,
) -> "int | None":
    """Bin the indices ``lorenzo_encode(data, error_bound, radius)`` would
    produce, in one C pass that writes no index array.

    ``bins`` (int64, ``2*radius + 1`` of them) counts index ``b - radius``
    in bin ``b``, so bin 0 counts the escapes' sentinel; ``bounds`` (int64,
    2) widens to the lowest and highest bin touched.  Returns the escape
    count, or None where numpy must run (as for :func:`lorenzo_encode`,
    and where a residual wraps to INT64_MIN; ``bins`` may then hold partial
    counts).  Raises ``ValueError`` where :func:`lorenzo_encode` does.
    """
    for table, size in ((bins, 2 * radius + 1), (bounds, 2)):
        if (
            table.dtype != np.int64 or table.shape != (size,)
            or not table.flags.c_contiguous or not table.flags.writeable
        ):
            raise ValueError(f"lorenzo_histogram needs {size} writable int64s")
    two_eb = lorenzo_step(data, error_bound)
    found = _lorenzo_view(data, two_eb, radius, "repro_lorenzo_hist")
    if found is None:
        return None
    fn, geom, scratch = found
    n_esc = fn(
        data.ctypes.data, geom, two_eb, radius, kernels.address(scratch),
        kernels.address(bins), kernels.address(bounds),
    )
    return None if n_esc < 0 else int(n_esc)
