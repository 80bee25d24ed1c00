"""1-D interpolation kernels used by the multilevel decorrelation stage.

Given the values already known on a coarse grid along one axis, these kernels
predict the midpoints (the level's target points).  Everything operates on
strided views of the working array, with the interpolation axis moved to the
front, so a single vectorized expression predicts an entire pass.

``linear``   midpoint average of the two stride-``s`` neighbours.
``cubic``    4-point spline weights (-1/16, 9/16, 9/16, -1/16), the kernel
             SZ3/QoZ/HPEZ use away from boundaries, with linear fallback.

Boundary handling matches SZ3: a target with only a left neighbour copies it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["predict_midpoints", "INTERP_METHODS"]

INTERP_METHODS = ("linear", "cubic")


def predict_midpoints(
    known: np.ndarray,
    n_targets: int,
    method: str = "linear",
) -> np.ndarray:
    """Predict midpoint values along axis 0.

    Parameters
    ----------
    known:
        Array of already-decoded values on the coarse grid, axis 0 being the
        interpolation axis (shape ``(nk, ...)``). Target ``i`` sits between
        ``known[i]`` and ``known[i+1]``.
    n_targets:
        Number of midpoints to predict; either ``nk - 1`` (odd fine grid) or
        ``nk`` (even fine grid, whose last target has no right neighbour).
    method:
        ``"linear"`` or ``"cubic"``.
    """
    nk = known.shape[0]
    if n_targets not in (nk - 1, nk):
        raise ValueError(f"n_targets must be nk-1 or nk, got {n_targets} for nk={nk}")
    if method not in INTERP_METHODS:
        raise ValueError(f"unknown method {method!r}")
    out_shape = (n_targets,) + known.shape[1:]
    pred = np.empty(out_shape, dtype=known.dtype)
    n_inner = min(n_targets, nk - 1)  # targets with both neighbours

    if method == "linear" or nk < 4:
        _linear_fill(known, pred, n_inner)
    else:
        _cubic_fill(known, pred, n_inner)

    if n_targets == nk:  # trailing boundary target: copy left neighbour
        pred[nk - 1] = known[nk - 1]
    return pred


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
