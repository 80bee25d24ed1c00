"""Tests for the multilevel pass machinery: every point must be produced
exactly once across anchors + all passes of all levels."""
import numpy as np
import pytest

from repro.utils.levels import (
    anchor_slices,
    anchor_stride,
    level_passes,
    moveaxis_order,
    num_levels,
    pass_sizes,
)


@pytest.mark.parametrize(
    "shape",
    [(17,), (32,), (33,), (16, 16), (15, 31), (8, 9, 10), (33, 17, 5), (64, 64, 64)],
)
def test_full_coverage_no_overlap(shape):
    """Anchors + all pass targets tile the whole array exactly once."""
    counter = np.zeros(shape, dtype=np.int64)
    counter[anchor_slices(shape)] += 1
    for level in range(num_levels(shape), 0, -1):
        for p in level_passes(shape, level):
            counter[p.target] += 1
    assert counter.min() == 1 and counter.max() == 1


def test_pass_strides_match_paper_figure2():
    """3-D level passes produce the 2x2 / 1x2 / 1x1 in-plane stride pattern."""
    shape = (5, 5, 5)
    passes = level_passes(shape, 1)  # stride 1, coarse grid stride 2
    assert [p.axis for p in passes] == [0, 1, 2]
    # pass along z: y and x stay on the 2-grid (stride 2x2 in-plane)
    assert passes[0].target == (slice(1, None, 2), slice(0, None, 2), slice(0, None, 2))
    # pass along y: z now dense (stride 1), x still on the 2-grid
    assert passes[1].target == (slice(0, None, 1), slice(1, None, 2), slice(0, None, 2))
    # pass along x: z and y dense
    assert passes[2].target == (slice(0, None, 1), slice(0, None, 1), slice(1, None, 2))


def test_known_grid_is_double_stride_on_interp_axis():
    p = level_passes((9, 9), 2)[0]  # stride s=2, coarse grid stride 2s=4
    assert p.known[0] == slice(0, None, 4)
    assert p.target[0] == slice(2, None, 4)


def test_level1_and_2_hold_most_points():
    """The paper gates QP at levels 1-2 because they hold >98% of the data."""
    shape = (64, 64, 64)
    total = np.prod(shape)
    count12 = 0
    for level in (1, 2):
        for p in level_passes(shape, level):
            count12 += np.prod(pass_sizes(shape, p))
    assert count12 / total > 0.98


def test_custom_axis_order():
    shape = (8, 8, 8)
    passes = level_passes(shape, 1, axis_order=(2, 0, 1))
    assert [p.axis for p in passes] == [2, 0, 1]
    counter = np.zeros(shape, dtype=np.int64)
    counter[anchor_slices(shape)] += 1
    for level in range(num_levels(shape), 0, -1):
        for p in level_passes(shape, level, axis_order=(2, 0, 1)):
            counter[p.target] += 1
    assert counter.min() == 1 and counter.max() == 1


def test_bad_axis_order_rejected():
    with pytest.raises(ValueError):
        level_passes((8, 8), 1, axis_order=(0, 0))


def test_degenerate_axes():
    # an axis of extent 1 never yields targets but must not break coverage
    shape = (1, 16)
    counter = np.zeros(shape, dtype=np.int64)
    counter[anchor_slices(shape)] += 1
    for level in range(num_levels(shape), 0, -1):
        for p in level_passes(shape, level):
            counter[p.target] += 1
    assert counter.min() == 1 and counter.max() == 1


def test_num_levels_monotone():
    assert num_levels((2,)) == 1
    assert num_levels((3,)) == 1
    assert num_levels((5,)) == 2
    assert num_levels((64, 8)) <= num_levels((128, 8))


def test_anchor_stride_exceeds_half_extent():
    for shape in [(16,), (100,), (31, 7)]:
        s = anchor_stride(shape)
        assert s >= (max(shape) - 1) / 2


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_moveaxis_order_gives_moveaxis_view(ndim):
    """``transpose(moveaxis_order(...))`` is ``np.moveaxis``'s very view."""
    a = np.arange(np.prod(range(2, 2 + ndim))).reshape(range(2, 2 + ndim))
    for src in range(ndim):
        for dst in range(ndim):
            want = np.moveaxis(a, src, dst)
            got = a.transpose(moveaxis_order(ndim, src, dst))
            assert got.shape == want.shape and got.strides == want.strides
            assert np.shares_memory(got, a)
