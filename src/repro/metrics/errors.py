"""Distortion metrics (Section III-A)."""
from __future__ import annotations

import numpy as np

__all__ = ["mse", "psnr", "max_abs_error", "max_rel_error", "nrmse"]


def mse(original: np.ndarray, decoded: np.ndarray) -> float:
    a = original.astype(np.float64)
    b = decoded.astype(np.float64)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(np.mean((a - b) ** 2))


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
