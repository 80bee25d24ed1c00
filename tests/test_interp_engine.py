"""Unit tests for the shared interpolation engine internals."""
import numpy as np
import pytest

from repro.compressors.interp_engine import (
    EngineConfig,
    compress_volumes,
    decompress_volumes,
    level_error_bounds,
    trial_level_bits,
)
from repro.core import QPConfig
from repro.pipeline.stages import InterpPredict
from repro.utils.levels import anchor_slices, level_passes, num_levels


@pytest.fixture
def field():
    n = 33
    x, y, z = np.meshgrid(*[np.linspace(0, 1, n)] * 3, indexing="ij")
    return (np.sin(4 * np.pi * x) * np.cos(2 * np.pi * y) * (1 + z)).astype(np.float64)


def _decode_one(meta, streams, literals, anchors, data, error_bound):
    """The engine's decode of one volume, as a stack of one."""
    (out,), _ = decompress_volumes(
        [(meta, streams[0], literals, anchors, data.shape, data.dtype, error_bound)],
        streams,
    )
    return out


def roundtrip(data, cfg):
    (meta,), streams, (literals,), (anchors,), _, _ = compress_volumes(data[None], cfg)
    return _decode_one(meta, streams, literals, anchors, data, cfg.error_bound)


class TestLevelErrorBounds:
    def test_level1_unscaled(self):
        f = level_error_bounds(0.1, 4, alpha=2.0, beta=8.0)
        assert f[1] == 1.0

    def test_alpha_scaling(self):
        f = level_error_bounds(0.1, 4, alpha=2.0, beta=100.0)
        assert f[2] == pytest.approx(0.5)
        assert f[3] == pytest.approx(0.25)

    def test_beta_cap(self):
        f = level_error_bounds(0.1, 6, alpha=2.0, beta=4.0)
        assert f[6] == pytest.approx(1 / 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            level_error_bounds(0.1, 3, alpha=0.5, beta=2.0)


class TestPassPrediction:
    def test_linear_exact_on_linear_field(self):
        z, y, x = np.meshgrid(*[np.arange(17.0)] * 3, indexing="ij")
        data = 2 * z + 3 * y - x
        for level in (1, 2):
            for p in level_passes(data.shape, level):
                pred = InterpPredict.pass_prediction(data, p, "linear")
                actual = data[p.target]
                # interior points of a linear field are predicted exactly
                assert np.median(np.abs(pred - actual)) < 1e-9

    def test_prediction_shape_matches_target(self, field):
        for p in level_passes(field.shape, 1):
            pred = InterpPredict.pass_prediction(field, p, "cubic")
            assert pred.shape == field[p.target].shape


class TestEngineRoundtrip:
    def test_bound_per_level_scaling(self, field):
        eb = 1e-3
        cfg = EngineConfig(
            error_bound=eb,
            level_eb_factors=level_error_bounds(eb, num_levels(field.shape), 2.0, 8.0),
        )
        out = roundtrip(field, cfg)
        assert np.abs(out - field).max() <= eb

    def test_anchors_exact(self, field):
        cfg = EngineConfig(error_bound=1e-2)
        (meta,), streams, (literals,), (anchors,), _, _ = compress_volumes(
            field[None], cfg
        )
        out = _decode_one(meta, streams, literals, anchors, field, 1e-2)
        assert np.array_equal(out[anchor_slices(field.shape)], field[anchor_slices(field.shape)])

    def test_stream_sizes_deterministic(self, field):
        cfg = EngineConfig(error_bound=1e-3)
        s1 = compress_volumes(field[None], cfg)[1]
        s2 = compress_volumes(field[None], cfg)[1]
        assert np.array_equal(s1, s2)

    def test_qp_stream_differs_but_decodes_identically(self, field):
        base = EngineConfig(error_bound=1e-3)
        qp = EngineConfig(error_bound=1e-3, qp=QPConfig())
        out_base = roundtrip(field, base)
        out_qp = roundtrip(field, qp)
        assert np.array_equal(out_base, out_qp)

    def test_corrupt_stream_size_detected(self, field):
        cfg = EngineConfig(error_bound=1e-3)
        (meta,), streams, (literals,), (anchors,), _, _ = compress_volumes(
            field[None], cfg
        )
        with pytest.raises(ValueError):
            _decode_one(meta, streams[:, :-5], literals, anchors, field, 1e-3)

    def test_level_schemes_roundtrip(self, field):
        cfg = EngineConfig(
            error_bound=1e-3,
            level_schemes={1: {"structure": "sequential", "axis_order": (2, 1, 0)},
                           2: {"structure": "multidim", "axis_order": None}},
        )
        out = roundtrip(field, cfg)
        assert np.abs(out - field).max() <= 1e-3

    def test_scheme_selector_invoked_and_recorded(self, field):
        calls = []

        def selector(arr, level, cfg):
            calls.append(level)
            return {"structure": "sequential", "axis_order": None}

        cfg = EngineConfig(error_bound=1e-3, scheme_selector=selector)
        (meta,), *_ = compress_volumes(field[None], cfg)
        assert sorted(calls, reverse=True) == sorted(
            [int(k) for k in meta["level_schemes"]], reverse=True
        )


class TestTrialLevelBits:
    def test_trial_does_not_mutate_input(self, field):
        cfg = EngineConfig(error_bound=1e-3)
        before = field.copy()
        trial_level_bits(field, 1, cfg, {"structure": "sequential", "axis_order": None})
        assert np.array_equal(field, before)

    def test_trial_discriminates_anisotropy(self):
        # a field varying fast along axis 0 only: reversed order should win
        z = np.linspace(0, 30 * np.pi, 64)
        data = np.broadcast_to(np.sin(z)[:, None, None], (64, 16, 16)).copy()
        cfg = EngineConfig(error_bound=1e-4, interp="cubic")
        seq = trial_level_bits(data, 1, cfg, {"structure": "sequential", "axis_order": None})
        rev = trial_level_bits(data, 1, cfg, {"structure": "sequential", "axis_order": (2, 1, 0)})
        assert seq != rev
