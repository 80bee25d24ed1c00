"""Linear-scaling quantizer with unpredictable-data handling.

This is the quantization stage shared by all SZ-family ports (Section IV-A of
the paper): ``q = round((d - p) / 2e)``.  Indices whose magnitude reaches the
quantizer radius — or whose reconstruction would violate the error bound due
to floating-point rounding — are *unpredictable*: they receive the sentinel
index ``UNPREDICTABLE`` and their original values are stored losslessly in a
side stream, exactly as SZ3 does.

The numpy code below vectorizes over whole pass arrays and is the
specification: where the native library loads (:mod:`repro.kernels`), a C
loop over the points of float32 and float64 passes repeats its IEEE-754
operations in the same order and gives the same bytes.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .. import kernels

__all__ = ["LinearQuantizer", "QuantResult"]

#: the C kernels' sentinel and index casts are int64; larger radii (which
#: no wire format writes) stay on numpy
_NATIVE_MAX_RADIUS = 1 << 62


@dataclass
class QuantResult:
    """Outcome of quantizing one prediction pass.

    ``indices``   signed quantization indices; sentinel at unpredictable points
    ``decoded``   reconstructed values (bit-identical to decompression output)
    ``literals``  original values at unpredictable points, in C order
    """

    indices: np.ndarray
    decoded: np.ndarray
    literals: np.ndarray


class LinearQuantizer:
    """Uniform scalar quantizer ``q = round((d - p) / 2e)`` with radius cap.

    Parameters
    ----------
    error_bound:
        Absolute point-wise error bound ``e``; reconstruction satisfies
        ``|d - d'| <= e`` at predictable points and ``d' == d`` at
        unpredictable ones.
    radius:
        Half the quantizer capacity. Indices with ``|q| >= radius`` are
        stored as literals (SZ3 default capacity 65536 -> radius 32768).
    """

    def __init__(self, error_bound: float, radius: int = 32768) -> None:
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        if radius < 2:
            raise ValueError("radius must be >= 2")
        self.error_bound = float(error_bound)
        self.radius = int(radius)
        self._params = native_params(self.error_bound, self.radius)

    @property
    def sentinel(self) -> int:
        """Index value marking unpredictable points (outside [-radius, radius))."""
        return -self.radius

    def quantize(self, values: np.ndarray, preds: np.ndarray) -> QuantResult:
        """Quantize ``values`` against predictions; both may be any shape."""
        values = np.asarray(values)
        preds = np.asarray(preds, dtype=values.dtype)
        native = native_encode("repro_quantize", values, preds, self._params)
        if native is not None:
            return native[0]
        return self._quantize_numpy(values, preds)

    def _quantize_numpy(self, values: np.ndarray, preds: np.ndarray) -> QuantResult:
        """:meth:`quantize` in numpy: the fallback, and the specification
        of the C kernel."""
        two_eb = 2.0 * self.error_bound
        # the float64 pipeline below matches q = rint((d - p) / 2e) and
        # d' = p + 2e*q bit-for-bit; casts are folded into the ufuncs and
        # intermediates reused in place instead of materializing temporaries
        q = np.subtract(values, preds, dtype=np.float64)
        np.divide(q, two_eb, out=q)
        np.rint(q, out=q)
        unpred = np.abs(q) >= self.radius
        q[unpred] = 0.0
        qi = q.astype(np.int64)
        np.multiply(q, two_eb, out=q)
        np.add(preds, q, out=q, dtype=np.float64)
        decoded = q.astype(values.dtype)
        # Floating-point guard: reject any point whose reconstruction misses
        # the bound (can happen at extreme magnitudes), mirroring SZ3.
        bad = np.subtract(decoded, values, dtype=np.float64)
        np.abs(bad, out=bad)
        unpred |= bad > self.error_bound
        qi[unpred] = self.sentinel
        literals = values[unpred].ravel()
        decoded[unpred] = literals
        return QuantResult(indices=qi, decoded=decoded, literals=literals)

    def dequantize(
        self, indices: np.ndarray, preds: np.ndarray, literals: np.ndarray,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Invert :meth:`quantize` for one pass.

        ``literals`` must contain exactly the unpredictable values of this
        pass, in C order; a mismatch raises.  With ``out`` (an array of the
        indices' shape, typically a strided view of the working array) the
        values are written into it and it is returned.
        """
        indices = np.asarray(indices)
        preds = np.asarray(preds)
        native = native_decode(
            "repro_dequantize", indices, preds, literals, self._params, out
        )
        if native is not None:
            return native
        return assign(self._dequantize_numpy(indices, preds, literals), out)

    def _dequantize_numpy(
        self, indices: np.ndarray, preds: np.ndarray, literals: np.ndarray
    ) -> np.ndarray:
        """:meth:`dequantize` in numpy (see :meth:`_quantize_numpy`)."""
        unpred = indices == self.sentinel
        n_unpred = int(unpred.sum())
        if n_unpred != literals.size:
            raise ValueError(
                f"literal count mismatch: mask has {n_unpred}, stream has {literals.size}"
            )
        two_eb = 2.0 * self.error_bound
        t = np.multiply(two_eb, indices)
        np.add(preds, t, out=t, dtype=np.float64)
        out = t.astype(preds.dtype)
        if n_unpred:
            out[unpred] = literals.astype(preds.dtype)
        return out


# -- native kernels ----------------------------------------------------------


def native_params(
    error_bound: float, radius: int, bits: int = 0, threshold: int = 0,
    bias: int = 0,
) -> "kernels.QuantParams | None":
    """A quantizer's constants for the C kernels (``bits``, ``threshold``
    and ``bias`` for the adaptive one), computed as the numpy code computes
    them; ``None`` keeps the quantizer on numpy."""
    if radius >= _NATIVE_MAX_RADIUS:
        return None
    two_eb = 2.0 * error_bound
    return kernels.QuantParams(
        two_eb=two_eb, eb=error_bound, radius=float(radius), sentinel=-radius,
        two_tight=two_eb / float(1 << bits), tight_eb=error_bound / float(1 << bits),
        threshold=float(threshold), bias=float(bias),
    )


def native_encode(
    name: str, values: np.ndarray, preds: np.ndarray,
    params: "kernels.QuantParams | None",
) -> "tuple[QuantResult, int] | None":
    """Run the C encode kernel ``name`` (``"repro_quantize"`` or
    ``"repro_adaptive_encode"``) over ``values`` against ``preds`` (already
    of ``values``' dtype); returns the result and the kernel's hard-point
    count, or ``None`` where numpy must run: no library, another dtype or
    shape, an empty pass or a view the kernels cannot walk.

    The kernel writes each literal's value into ``decoded``, so the
    literals are gathered from there in C order.
    """
    fn = kernels.float_kernel(name, values.dtype)
    if fn is None or params is None or not values.size or preds.shape != values.shape:
        return None
    geom = kernels.view_geometry(values.shape, values.strides, values.itemsize)
    if not preds.flags.c_contiguous:
        preds = np.ascontiguousarray(preds)
    at, pred_at = kernels.address(values), kernels.address(preds)
    if geom is None or at % values.itemsize or pred_at % values.itemsize:
        return None
    # one slot past the indices takes the adaptive kernel's hard-point count
    flat = np.empty(values.size + 1, dtype=np.int64)
    decoded = np.empty(values.shape, dtype=values.dtype)
    n_lit = fn(
        at, geom, pred_at, ctypes.addressof(params),
        kernels.address(flat), kernels.address(decoded),
    )
    indices = flat[:-1].reshape(values.shape)
    if n_lit:
        literals = decoded[indices == params.sentinel]
    else:
        literals = np.empty(0, dtype=values.dtype)
    return QuantResult(indices, decoded, literals), int(flat[-1])


def assign(values: np.ndarray, out: "np.ndarray | None") -> np.ndarray:
    """``values``, or ``out`` holding them: the numpy decodes' ``out=``."""
    if out is None:
        return values
    out[...] = values
    return out


def native_decode(
    name: str, indices: np.ndarray, preds: np.ndarray, literals: np.ndarray,
    params: "kernels.QuantParams | None", out: "np.ndarray | None" = None,
) -> "np.ndarray | None":
    """Run the C decode kernel ``name`` (``"repro_dequantize"`` or
    ``"repro_adaptive_decode"``) into ``out`` (a new array when None),
    written through its strides; ``None`` where numpy must run, as in
    :func:`native_encode`, and where ``out`` is not of the predictions'
    shape and dtype.  The kernel never reads past ``literals``, and a
    sentinel count other than ``literals.size`` raises the numpy path's
    error."""
    fn = kernels.float_kernel(name, preds.dtype)
    if (
        fn is None or params is None or not preds.size
        or indices.dtype != np.int64 or indices.shape != preds.shape
    ):
        return None
    if out is None:
        out = np.empty(preds.shape, dtype=preds.dtype)
    elif out.shape != preds.shape or out.dtype != preds.dtype:
        return None
    geom = kernels.view_geometry(
        indices.shape, indices.strides, 8, out=(out.strides, out.itemsize)
    )
    if not preds.flags.c_contiguous:
        preds = np.ascontiguousarray(preds)
    lit_at = None
    if literals.size:
        literals = np.ascontiguousarray(literals, dtype=preds.dtype)
        lit_at = kernels.address(literals)
    at, pred_at = kernels.address(indices), kernels.address(preds)
    out_at = kernels.address(out)
    size = preds.itemsize
    if (
        geom is None or at % 8 or pred_at % size or (lit_at or 0) % size
        or out_at % size or not out.flags.writeable
    ):
        return None
    n_unpred = fn(
        at, geom, pred_at, lit_at, literals.size,
        ctypes.addressof(params), out_at,
    )
    if n_unpred != literals.size:
        raise ValueError(
            f"literal count mismatch: mask has {n_unpred}, stream has {literals.size}"
        )
    return out
