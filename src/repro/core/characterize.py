"""Characterization of quantization-index arrays (Section IV).

These tools reproduce the paper's analysis pipeline: per-slice entropy along
the three coordinate planes (Fig. 4), regional entropy of zoomed windows
(Figs. 3 and 5), and summary clustering statistics that quantify the
"clustering effect" QP exploits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "shannon_entropy",
    "counts_entropy",
    "slice_entropy",
    "plane_slice",
    "regional_entropy",
    "clustering_stats",
    "ClusteringStats",
]

_PLANES = {"xy": 0, "xz": 1, "yz": 2}  # plane -> normal axis (z,y,x) = (0,1,2)


# histogram fast-path guard: beyond this range the bincount table would cost
# more than the sort it replaces
_ENTROPY_RANGE_CAP = 1 << 21


def shannon_entropy(values: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of an integer array (Section III-A)."""
    values = np.asarray(values).ravel()
    if values.size == 0:
        return 0.0
    if np.issubdtype(values.dtype, np.integer):
        lo = int(values.min())
        hi = int(values.max())
        if hi - lo <= _ENTROPY_RANGE_CAP:
            # bincount replaces np.unique's sort; dropping the zero bins
            # leaves the exact count sequence unique would produce (ascending
            # value order), so the float result is bit-identical
            counts = np.bincount(values - lo)
            return counts_entropy(counts[counts > 0], values.size)
    _, counts = np.unique(values, return_counts=True)
    return counts_entropy(counts, values.size)


def counts_entropy(counts: np.ndarray, total: int) -> float:
    """Shannon entropy (bits/symbol) of ``total`` symbols from their
    nonzero ``counts`` in ascending symbol order: the arithmetic
    :func:`shannon_entropy` runs, so equal counts give a bit-equal result."""
    p = counts / total
    return float(-(p * np.log2(p)).sum())


def plane_slice(volume: np.ndarray, plane: str, index: int, stride: int = 1) -> np.ndarray:
    """Extract one slice of a 3-D index volume along a named plane.

    Axis convention follows the paper: axis 0 = z (first interpolation
    direction), axis 1 = y, axis 2 = x.  ``stride`` subsamples the in-plane
    grid — stride 2 isolates the indices written by the last level of
    interpolation, as in Fig. 4.
    """
    if volume.ndim != 3:
        raise ValueError("plane_slice expects a 3-D volume")
    if plane not in _PLANES:
        raise ValueError(f"plane must be one of {tuple(_PLANES)}")
    normal = _PLANES[plane]
    sl: list[slice | int] = [slice(None, None, stride)] * 3
    sl[normal] = index
    return volume[tuple(sl)]


def slice_entropy(volume: np.ndarray, plane: str, stride: int = 1) -> np.ndarray:
    """Entropy of every slice along ``plane`` (Fig. 4's curves)."""
    normal = _PLANES[plane]
    n = volume.shape[normal]
    return np.array(
        [shannon_entropy(plane_slice(volume, plane, i, stride)) for i in range(n)]
    )


def regional_entropy(
    volume: np.ndarray,
    plane: str,
    index: int,
    rows: tuple[int, int],
    cols: tuple[int, int],
    stride: int | tuple[int, int] = 1,
) -> float:
    """Entropy of a zoom window within one slice (the numbers atop Fig. 5)."""
    sl = plane_slice(volume, plane, index)
    if isinstance(stride, int):
        stride = (stride, stride)
    window = sl[rows[0]:rows[1]:stride[0], cols[0]:cols[1]:stride[1]]
    return shannon_entropy(window)


@dataclass
class ClusteringStats:
    """Summary of the clustering effect in an index array.

    ``nonzero_fraction``      share of nonzero indices
    ``same_sign_neighbour``   P(adjacent in-plane neighbours share a nonzero
                              sign) — the quantity Case III keys on
    ``neighbour_equal``       P(adjacent in-plane neighbours are equal)
    ``entropy``               global Shannon entropy
    """

    nonzero_fraction: float
    same_sign_neighbour: float
    neighbour_equal: float
    entropy: float


def clustering_stats(indices: np.ndarray) -> ClusteringStats:
    """Quantify index clustering over the last two axes of ``indices``."""
    q = np.asarray(indices)
    if q.ndim < 2:
        raise ValueError("need at least 2-D indices")
    a = q[..., :-1]
    b = q[..., 1:]
    same_sign = ((a > 0) & (b > 0)) | ((a < 0) & (b < 0))
    return ClusteringStats(
        nonzero_fraction=float((q != 0).mean()),
        same_sign_neighbour=float(same_sign.mean()),
        neighbour_equal=float((a == b).mean()),
        entropy=shannon_entropy(q),
    )
