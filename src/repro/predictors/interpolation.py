"""1-D interpolation kernels used by the multilevel decorrelation stage.

Given the values already known on a coarse grid along one axis, these kernels
predict the midpoints (the level's target points).  Everything operates on
strided views of the working array, so a single vectorized expression
predicts an entire pass; the prediction comes back C-contiguous in the
orientation of the pass's target subgrid.  Where the native library loads,
a C loop fills float32 and float64 passes in the same arithmetic
(:mod:`repro.kernels`); the numpy code is the specification.

``linear``   midpoint average of the two stride-``s`` neighbours.
``cubic``    4-point spline weights (-1/16, 9/16, 9/16, -1/16), the kernel
             SZ3/QoZ/HPEZ use away from boundaries, with linear fallback.

Boundary handling matches SZ3: a target with only a left neighbour copies it.
"""
from __future__ import annotations

import numpy as np

from .. import kernels
from ..utils.levels import moveaxis_order

__all__ = ["predict_midpoints", "INTERP_METHODS"]

INTERP_METHODS = ("linear", "cubic")


def predict_midpoints(
    known: np.ndarray,
    n_targets: int,
    method: str = "linear",
    axis: int = 0,
) -> np.ndarray:
    """Predict midpoint values along ``axis``.

    Parameters
    ----------
    known:
        Array of already-decoded values on the coarse grid; ``axis`` is the
        interpolation axis (``nk`` points long).  Target ``i`` sits between
        ``known[i]`` and ``known[i+1]`` along it.
    n_targets:
        Number of midpoints to predict; either ``nk - 1`` (odd fine grid) or
        ``nk`` (even fine grid, whose last target has no right neighbour).
    method:
        ``"linear"`` or ``"cubic"``.
    axis:
        The interpolation axis (non-negative).

    Returns a new C-contiguous array of ``known``'s shape with ``n_targets``
    along ``axis``.
    """
    nk = known.shape[axis]
    if n_targets not in (nk - 1, nk):
        raise ValueError(f"n_targets must be nk-1 or nk, got {n_targets} for nk={nk}")
    if method not in INTERP_METHODS:
        raise ValueError(f"unknown method {method!r}")
    fill = kernels.float_kernel("repro_fill", known.dtype)
    if fill is not None and known.size:
        out = _fill_native(fill, known, n_targets, method == "cubic", axis)
        if out is not None:
            return out
    out_shape = known.shape[:axis] + (n_targets,) + known.shape[axis + 1:]
    out = np.empty(out_shape, dtype=known.dtype)
    # the fills below index the interpolation axis first
    order = moveaxis_order(known.ndim, axis, 0)
    known = known.transpose(order)
    pred = out.transpose(order)
    n_inner = min(n_targets, nk - 1)  # targets with both neighbours

    if method == "linear" or nk < 4:
        _linear_fill(known, pred, n_inner)
    else:
        _cubic_fill(known, pred, n_inner)

    if n_targets == nk:  # trailing boundary target: copy left neighbour
        pred[nk - 1] = known[nk - 1]
    return out


def _linear_fill(known: np.ndarray, pred: np.ndarray, n_inner: int) -> None:
    if n_inner > 0:
        np.add(known[:n_inner], known[1:n_inner + 1], out=pred[:n_inner])
        pred[:n_inner] /= 2


def _cubic_fill(known: np.ndarray, pred: np.ndarray, n_inner: int) -> None:
    """Cubic interior with linear fallback on the first/last inner targets."""
    # interior targets i = 1 .. n_inner-2 use known[i-1], known[i], known[i+1], known[i+2]
    lo, hi = 1, n_inner - 1
    if hi > lo:
        a = known[lo - 1:hi - 1]
        b = known[lo:hi]
        c = known[lo + 1:hi + 1]
        d = known[lo + 2:hi + 2]
        pred[lo:hi] = (9.0 * (b + c) - (a + d)) / 16.0
    # boundary inner targets fall back to linear
    if n_inner > 0:
        pred[0] = (known[0] + known[1]) / 2
    if n_inner > 1:
        pred[n_inner - 1] = (known[n_inner - 1] + known[n_inner]) / 2


def _fill_native(fill, known, n_targets, cubic, axis):
    """The C fill of :func:`predict_midpoints`, or ``None`` where numpy
    must run (a view the kernel cannot walk)."""
    shape = known.shape
    geom = kernels.view_geometry(
        shape, known.strides, known.itemsize, axis, (n_targets, cubic)
    )
    at = kernels.address(known)
    if geom is None or at % known.itemsize:
        return None
    out = np.empty(shape[:axis] + (n_targets,) + shape[axis + 1:], dtype=known.dtype)
    fill(at, geom, kernels.address(out))
    return out
