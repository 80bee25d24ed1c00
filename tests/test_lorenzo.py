"""Tests for the dual-quantization Lorenzo predictor."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.predictors.lorenzo import lorenzo_decode, lorenzo_encode


@pytest.mark.parametrize("shape", [(50,), (20, 30), (8, 9, 10)])
def test_roundtrip_and_bound(shape):
    rng = np.random.default_rng(0)
    data = rng.normal(0, 3, shape)
    eb = 0.01
    result, recon = lorenzo_encode(data, eb)
    assert np.abs(recon - data).max() <= eb * (1 + 1e-9)
    decoded = lorenzo_decode(result, eb)
    assert np.array_equal(decoded, recon)


def test_constant_data_gives_sparse_indices():
    data = np.full((16, 16), 3.7)
    result, recon = lorenzo_encode(data, 0.1)
    # only the first element carries the level; everything else cancels
    assert np.count_nonzero(result.indices) <= 1
    assert np.abs(recon - data).max() <= 0.1 * (1 + 1e-9)


def test_smooth_data_small_indices():
    x = np.linspace(0, 1, 100)
    data = np.outer(x, x)
    result, _ = lorenzo_encode(data, 1e-3)
    # 2-D Lorenzo on a bilinear surface: residuals stay tiny
    assert np.abs(result.indices[2:, 2:]).max() <= 2


def test_escapes_roundtrip():
    rng = np.random.default_rng(1)
    data = rng.normal(0, 1, (32, 32))
    data[5, 5] = 1e5  # spike forces an escape
    eb = 1e-4
    result, recon = lorenzo_encode(data, eb, radius=256)
    assert result.escapes.size > 0
    assert (result.indices == result.sentinel).sum() == result.escapes.size
    decoded = lorenzo_decode(result, eb)
    assert np.array_equal(decoded, recon)
    assert np.abs(recon - data).max() <= eb * (1 + 1e-9)


def test_invalid_error_bound():
    with pytest.raises(ValueError):
        lorenzo_encode(np.zeros(4), 0.0)
    from repro.predictors.lorenzo import LorenzoResult

    with pytest.raises(ValueError):
        lorenzo_decode(LorenzoResult(np.zeros(4, dtype=np.int64), np.zeros(0), -8), 0.0)


def test_overflow_guard():
    data = np.array([1e30])
    with pytest.raises(ValueError):
        lorenzo_encode(data, 1e-10)


def test_escape_count_mismatch_detected():
    data = np.random.default_rng(2).normal(0, 1, 50)
    result, _ = lorenzo_encode(data, 0.01)
    result.escapes = np.array([1, 2, 3])  # corrupt
    with pytest.raises(ValueError):
        lorenzo_decode(result, 0.01)


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
               elements=st.floats(-1e3, 1e3)),
    st.floats(1e-4, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_property_roundtrip(data, eb):
    result, recon = lorenzo_encode(data, eb, radius=64)
    assert np.abs(recon - data).max() <= eb * (1 + 1e-9)
    assert np.array_equal(lorenzo_decode(result, eb), recon)


def test_kernel_buffers_are_checked_before_use():
    # the C kernels write every bin the radius allows and integrate in
    # place, so a short table or a foreign array must not reach them
    from repro.predictors.lorenzo import lorenzo_histogram, lorenzo_integrate

    data = np.random.default_rng(3).normal(0, 1, (6, 7)).astype(np.float32)
    bounds = np.array([17, -1], dtype=np.int64)
    for bins in (np.zeros(16, np.int64), np.zeros(17, np.int32),
                 np.zeros(34, np.int64)[::2]):
        with pytest.raises(ValueError, match="17 writable int64s"):
            lorenzo_histogram(data, 0.01, 8, bins, bounds)
    with pytest.raises(ValueError, match="2 writable int64s"):
        lorenzo_histogram(data, 0.01, 8, np.zeros(17, np.int64), bounds[:1])
    escapes = np.zeros(0, dtype=np.int64)
    for q in (np.zeros((6, 7), np.int32), np.zeros((7, 6), np.int64).T):
        with pytest.raises(ValueError, match="C-contiguous int64"):
            lorenzo_integrate(q, escapes, -8)
