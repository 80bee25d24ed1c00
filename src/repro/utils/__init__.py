"""Shared utilities: level math, blocks, validation.

Timing lives in :mod:`repro.obs` (the observability layer is the single
timing source of truth).
"""
from .blocks import block_grid_shape, iter_blocks, pad_to_multiple
from .levels import Pass, anchor_slices, anchor_stride, level_passes, num_levels, pass_sizes
from .validation import check_error_bound, check_ndarray

__all__ = [
    "Pass",
    "anchor_slices",
    "anchor_stride",
    "level_passes",
    "num_levels",
    "pass_sizes",
    "block_grid_shape",
    "iter_blocks",
    "pad_to_multiple",
    "check_ndarray",
    "check_error_bound",
]
