"""Tests for the 1-D interpolation kernels."""
import numpy as np
import pytest

from repro.predictors.interpolation import predict_midpoints


def test_linear_midpoints_1d():
    known = np.array([0.0, 2.0, 4.0])
    pred = predict_midpoints(known, 2, "linear")
    assert pred.tolist() == [1.0, 3.0]


def test_linear_trailing_boundary_copies_left():
    known = np.array([0.0, 2.0])
    pred = predict_midpoints(known, 2, "linear")
    assert pred.tolist() == [1.0, 2.0]


def test_linear_exact_on_linear_data():
    x = np.arange(0, 33, 2, dtype=np.float64)  # straight line samples
    pred = predict_midpoints(x, x.size - 1, "linear")
    expected = np.arange(1, 32, 2, dtype=np.float64)
    assert np.allclose(pred, expected)


def test_cubic_exact_on_cubic_polynomial():
    t = np.arange(0, 20, dtype=np.float64)
    f = 0.5 * t**3 - 2 * t**2 + t - 3
    known = f[::1]
    # midpoints of consecutive integers: predict f at k+0.5 via 4-point kernel
    pred = predict_midpoints(known, known.size - 1, "cubic")
    th = np.arange(0.5, 19, 1.0)
    exact = 0.5 * th**3 - 2 * th**2 + th - 3
    # interior points are exact for cubics; boundaries are linear fallback
    assert np.allclose(pred[1:-1], exact[1:-1], atol=1e-9)


def test_cubic_falls_back_to_linear_for_tiny_grids():
    known = np.array([0.0, 1.0, 4.0])
    lin = predict_midpoints(known, 2, "linear")
    cub = predict_midpoints(known, 2, "cubic")
    assert np.allclose(lin, cub)


def test_multidimensional_broadcast():
    known = np.arange(12, dtype=np.float64).reshape(4, 3)
    pred = predict_midpoints(known, 3, "linear")
    assert pred.shape == (3, 3)
    assert np.allclose(pred, (known[:-1] + known[1:]) / 2)


def test_invalid_target_count():
    with pytest.raises(ValueError):
        predict_midpoints(np.zeros(4), 2)


def test_invalid_method():
    with pytest.raises(ValueError):
        predict_midpoints(np.zeros(4), 3, "spline")


def test_cubic_matches_sz3_weights():
    # interior weights must be exactly (-1, 9, 9, -1)/16
    known = np.zeros(6)
    known[1] = 1.0
    pred = predict_midpoints(known, 5, "cubic")
    # target 1 (between known[1], known[2]) sees known[0..3] -> weight 9/16
    assert pred[1] == pytest.approx(9 / 16)
    # target 2 (between known[2], known[3]) sees known[1..4] -> weight -1/16
    assert pred[2] == pytest.approx(-1 / 16)


@pytest.mark.parametrize("method", ["linear", "cubic"])
def test_axis_predicts_in_the_natural_orientation(method):
    field = (np.arange(3 * 9 * 11, dtype=np.float32).reshape(3, 9, 11) % 7) ** 1.5
    known = field[:, ::2, 1::2]  # a strided view, as the engine passes
    for axis in range(known.ndim):
        nk = known.shape[axis]
        for n_targets in (nk - 1, nk):
            pred = predict_midpoints(known, n_targets, method, axis)
            moved = predict_midpoints(np.moveaxis(known, axis, 0), n_targets, method)
            assert pred.flags.c_contiguous
            assert pred.dtype == known.dtype
            assert np.array_equal(pred, np.moveaxis(moved, 0, axis))
