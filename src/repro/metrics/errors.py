"""Distortion metrics (Section III-A)."""
from __future__ import annotations

import numpy as np

__all__ = [
    "mse", "mse_rows", "psnr", "max_abs_error", "max_rel_error", "nrmse",
]


def mse(original: np.ndarray, decoded: np.ndarray) -> float:
    a = original.astype(np.float64)
    b = decoded.astype(np.float64)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(np.mean((a - b) ** 2))


def mse_rows(original: np.ndarray, decoded: np.ndarray) -> np.ndarray:
    """:func:`mse` of every volume of two C-contiguous ``(k, ...)`` stacks,
    from one float64 difference of the stacks.  Each row is summed as
    :func:`mse` sums a whole volume, so ``mse_rows(a, b)[i] == mse(a[i],
    b[i])`` holds bit for bit."""
    if original.shape != decoded.shape:
        raise ValueError("shape mismatch")
    sq = np.subtract(original, decoded, dtype=np.float64)
    sq = sq.reshape(len(sq), -1)
    return np.square(sq, out=sq).mean(axis=1)


def psnr(original: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio with the paper's convention:
    ``20 log10((max(d) - min(d)) / sqrt(MSE))``."""
    value_range = float(original.max() - original.min())
    m = mse(original, decoded)
    if m == 0:
        return float("inf")
    if value_range == 0:
        return 0.0
    return float(20.0 * np.log10(value_range / np.sqrt(m)))


def max_abs_error(original: np.ndarray, decoded: np.ndarray) -> float:
    return float(
        np.abs(original.astype(np.float64) - decoded.astype(np.float64)).max()
    )


def max_rel_error(original: np.ndarray, decoded: np.ndarray) -> float:
    """Maximum error relative to the data's value range (Table II metric)."""
    value_range = float(original.max() - original.min())
    if value_range == 0:
        return 0.0
    return max_abs_error(original, decoded) / value_range


def nrmse(original: np.ndarray, decoded: np.ndarray) -> float:
    value_range = float(original.max() - original.min())
    if value_range == 0:
        return 0.0
    return float(np.sqrt(mse(original, decoded)) / value_range)
