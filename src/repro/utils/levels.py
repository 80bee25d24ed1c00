"""Multilevel interpolation grid math (levels, strides, passes).

Terminology follows Section IV-A of the paper:

* **Level** ``l`` (1 = finest): at the start of level ``l`` every point whose
  coordinates are all multiples of ``2s`` (``s = 2**(l-1)``) is known; the
  level fills in the remaining points of the stride-``s`` grid.
* **Pass**: one interpolation sweep along one axis.  For 3-D data and axis
  order ``(z, y, x)`` the three passes of a level predict the points whose
  in-plane strides are ``2x2``, ``1x2`` and ``1x1`` — the red/green/magenta
  points of Figure 2.
* **Anchors**: the points of the coarsest grid (stride ``2**L``), stored
  exactly (as QoZ does) before any level runs.

Passes are expressed as tuples of slices into the working array, so the
compressors operate on strided *views* — no index arrays, no copies.

All schedule builders are memoized on their (hashable) arguments: pass
schedules depend only on shape/level/axis order, and the engine rebuilds them
for every volume, every HPEZ trial and every slab, so building each schedule
once and returning an immutable tuple of frozen passes removes pure
recomputation from the hot path.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Pass",
    "MDPass",
    "num_levels",
    "anchor_stride",
    "anchor_slices",
    "anchor_shape",
    "level_passes",
    "level_passes_multidim",
    "pass_sizes",
    "moveaxis_order",
]


@dataclass(frozen=True)
class Pass:
    """One interpolation sweep.

    ``level``      1-based level index (1 = finest stride)
    ``axis``       interpolation axis
    ``known``      slices selecting the coarse grid (axis ``axis`` at step 2s)
    ``target``     slices selecting the points this pass predicts
    ``n_targets``  target count along ``axis`` (for the interpolation kernel)
    """

    level: int
    axis: int
    known: tuple[slice, ...]
    target: tuple[slice, ...]
    n_targets: int

    @property
    def axes(self) -> tuple[int, ...]:
        """Prediction axes (uniform interface with :class:`MDPass`)."""
        return (self.axis,)

    def known_for(self, axis: int) -> tuple[slice, ...]:
        if axis != self.axis:
            raise ValueError(f"axis {axis} is not the prediction axis of this pass")
        return self.known


@lru_cache(maxsize=1024)
def num_levels(shape: tuple[int, ...]) -> int:
    """Number of interpolation levels: enough that the anchor grid along the
    longest axis has very few points (SZ3/QoZ behaviour)."""
    longest = max(shape)
    if longest < 2:
        return 1
    return max(1, int(np.ceil(np.log2(longest - 1))) if longest > 2 else 1)


def anchor_stride(shape: tuple[int, ...]) -> int:
    return 1 << num_levels(shape)


@lru_cache(maxsize=1024)
def anchor_slices(shape: tuple[int, ...]) -> tuple[slice, ...]:
    s = anchor_stride(shape)
    return tuple(slice(0, None, s) for _ in shape)


def _axis_len(n: int, sl: slice) -> int:
    return len(range(*sl.indices(n)))


def anchor_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of the anchor grid :func:`anchor_slices` selects."""
    return tuple(_axis_len(n, sl) for sl, n in zip(anchor_slices(shape), shape))


def level_passes(
    shape: tuple[int, ...], level: int, axis_order: tuple[int, ...] | None = None
) -> tuple[Pass, ...]:
    """Enumerate the passes of one level in the given axis order.

    Axes whose extent yields no targets at this stride are skipped (their
    pass is empty), but they still count as "done" for subsequent passes.
    The result is an immutable, memoized schedule tuple.
    """
    if axis_order is not None:
        axis_order = tuple(axis_order)
    return _level_passes_cached(tuple(shape), level, axis_order)


@lru_cache(maxsize=4096)
def _level_passes_cached(
    shape: tuple[int, ...], level: int, axis_order: tuple[int, ...] | None
) -> tuple[Pass, ...]:
    ndim = len(shape)
    if axis_order is None:
        axis_order = tuple(range(ndim))
    if sorted(axis_order) != list(range(ndim)):
        raise ValueError(f"axis_order must be a permutation of axes, got {axis_order}")
    s = 1 << (level - 1)
    passes: list[Pass] = []
    done: set[int] = set()
    for axis in axis_order:
        known = []
        target = []
        for a in range(ndim):
            if a == axis:
                known.append(slice(0, None, 2 * s))
                target.append(slice(s, None, 2 * s))
            elif a in done:
                known.append(slice(0, None, s))
                target.append(slice(0, None, s))
            else:
                known.append(slice(0, None, 2 * s))
                target.append(slice(0, None, 2 * s))
        n_targets = _axis_len(shape[axis], target[axis])
        done.add(axis)
        if n_targets == 0 or any(_axis_len(shape[a], target[a]) == 0 for a in range(ndim)):
            continue
        passes.append(
            Pass(level=level, axis=axis, known=tuple(known), target=tuple(target), n_targets=n_targets)
        )
    return tuple(passes)


def pass_sizes(shape: tuple[int, ...], p: "Pass | MDPass") -> tuple[int, ...]:
    """Shape of the target subgrid selected by pass ``p``."""
    return tuple(_axis_len(shape[a], p.target[a]) for a in range(len(shape)))


@lru_cache(maxsize=256)
def moveaxis_order(ndim: int, source: int, destination: int) -> tuple[int, ...]:
    """The axis permutation ``np.moveaxis(a, source, destination)`` builds
    for an ``ndim``-axis array (both axes non-negative).

    ``a.transpose(moveaxis_order(a.ndim, s, d))`` is the same view as
    ``np.moveaxis(a, s, d)`` without re-validating and re-deriving the
    order on every call — the pass loops make one such move per pass.
    """
    order = [n for n in range(ndim) if n != source]
    order.insert(destination, source)
    return tuple(order)


@dataclass(frozen=True)
class MDPass:
    """One multi-dimensional interpolation pass (HPEZ-style level structure).

    Points are grouped by the *parity class* of their coordinates on the
    level's grid: ``axes`` lists the axes whose coordinate is an odd multiple
    of the stride.  Each point is predicted by averaging 1-D interpolations
    along every axis in ``axes`` — the neighbours along those axes belong to
    smaller parity classes, which were processed earlier, so orthogonal
    correlation is exploited (the reason HPEZ's indices cluster least).
    """

    level: int
    axes: tuple[int, ...]
    target: tuple[slice, ...]

    @property
    def axis(self) -> int:
        """Primary axis (used to orient the pass array for QP)."""
        return self.axes[0]

    def known_for(self, axis: int) -> tuple[slice, ...]:
        """Coarse-grid slices for the 1-D interpolation along ``axis``."""
        if axis not in self.axes:
            raise ValueError(f"axis {axis} is not a prediction axis of this pass")
        s = 1 << (self.level - 1)
        known = list(self.target)
        known[axis] = slice(0, None, 2 * s)
        return tuple(known)


@lru_cache(maxsize=4096)
def level_passes_multidim(shape: tuple[int, ...], level: int) -> tuple[MDPass, ...]:
    """Enumerate multi-dimensional passes of one level, by parity-class size.

    Classes with fewer odd axes come first (their neighbours are already
    known); together with the anchors they tile the level's grid exactly.
    The result is an immutable, memoized schedule tuple.
    """
    from itertools import combinations

    ndim = len(shape)
    s = 1 << (level - 1)
    passes: list[MDPass] = []
    for size in range(1, ndim + 1):
        for axes in combinations(range(ndim), size):
            target = tuple(
                slice(s, None, 2 * s) if a in axes else slice(0, None, 2 * s)
                for a in range(ndim)
            )
            if any(_axis_len(shape[a], target[a]) == 0 for a in range(ndim)):
                continue
            passes.append(MDPass(level=level, axes=axes, target=target))
    return tuple(passes)
