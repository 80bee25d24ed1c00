"""Tests for the joint auto-tuner's QP step and scorer, temporal
compression, and the entropy-stage option in the shared index stream."""
import numpy as np
import pytest

from repro import obs
from repro.codecs import HuffmanCodec, RangeCodec
from repro.compressors import SZ3, CompressionState, get_compressor, interp_engine
from repro.compressors.base import decode_index_stream, encode_index_stream
from repro.compressors.interp_engine import EngineConfig, compress_volumes
from repro.compressors.qoz import tune_level_eb
from repro.core import QPConfig
from repro.core.autotune import (
    _ALPHA_GRID,
    _BETA_GRID,
    DEFAULT_CANDIDATES,
    autotune,
)
from repro.datasets import generate
from repro.pipeline.stages import QPTransform, StageContext
from repro.temporal import TemporalCompressor
from repro.utils.levels import num_levels

#: every non-QP knob pinned to what ``SZ3(eb, predictor="interp")`` runs,
#: so the tuner chooses only the QP config
SZ3_INTERP_KNOBS = {
    "interp": "auto", "structure": "sequential", "axis_order": None,
    "alpha": 1.0, "beta": 1.0, "adaptive_bits": 0,
}


class TestAutotune:
    def test_returns_candidate(self, smooth_field):
        d = autotune(smooth_field, 1e-4, qp_candidates=DEFAULT_CANDIDATES)
        assert d.qp_config() in DEFAULT_CANDIDATES

    def test_picks_qp_on_clustered_data(self):
        data = generate("segsalt", "Pressure2000", shape=(64, 64, 24))
        eb = 1e-4 * float(data.max() - data.min())
        d = autotune(data, eb, qp_candidates=DEFAULT_CANDIDATES)
        assert d.qp_config().enabled  # clustered indices -> QP on

    def test_tuned_config_not_worse_than_default(self, smooth_field):
        eb = 1e-4
        tuned = autotune(
            smooth_field, eb, fixed=SZ3_INTERP_KNOBS,
            qp_candidates=DEFAULT_CANDIDATES,
        ).qp_config()
        s_tuned = len(SZ3(eb, predictor="interp", qp=tuned).compress(smooth_field))
        s_off = len(SZ3(eb, predictor="interp").compress(smooth_field))
        assert s_tuned <= s_off * 1.02

    def test_custom_candidates(self, smooth_field):
        only = (QPConfig.disabled(),)
        assert autotune(smooth_field, 1e-3, qp_candidates=only).qp is None

    def test_level_stats_view_rebuilds_every_qp_stream(self, smooth_field):
        """The per-pass view the QP step scores on: QP stage over each
        pass's pre-transform indices gives the engine's own QP stream."""
        block = smooth_field[:32, :32, :32].copy()
        stats: list[dict] = []
        cfg = EngineConfig(error_bound=1e-3, interp="cubic")
        _, plain, _, _, _, _ = compress_volumes(block[None], cfg, None, stats)
        assert np.array_equal(
            np.concatenate([s["indices"].ravel() for s in stats]), plain[0]
        )
        ctx = StageContext(sentinel=-cfg.radius)
        for cand in DEFAULT_CANDIDATES[1:]:
            cfg.qp = cand
            _, stream, _, _, _, _ = compress_volumes(block[None], cfg)
            parts = []
            for s in stats:
                ctx.level = s["level"]
                parts.append(QPTransform(cand).forward(ctx, s["indices"]).ravel())
            assert np.array_equal(np.concatenate(parts), stream[0]), cand

    @pytest.mark.parametrize("base,volumes,trials", [
        ("sz3", 36, 17), ("qoz", 36, 17), ("hpez", 33, 16), ("mgard", 12, 9),
    ])
    def test_engine_runs_per_call(self, monkeypatch, base, volumes, trials):
        """One stacked engine run per trial over all three sample blocks:
        12/12/11/4 runs compress 36/36/33/12 block volumes.  The QP step
        runs no engine, so 5 candidates fewer runs per call, while
        ``autotune.trials`` still counts every candidate scored; the
        alpha/beta step never re-runs the incumbent (alpha = 1)."""
        data = generate("miranda", shape=(48, 40, 44), seed=3)
        eb = 1e-3 * float(data.max() - data.min())
        stacks = []
        real = interp_engine.compress_volumes

        def counting(stack, *args, **kwargs):
            stacks.append(len(stack))
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(interp_engine, "compress_volumes", counting)
        ob = obs.Observation()
        with obs.observe(ob):
            decision = get_compressor(base, eb)._tuned_for(data).tuning_decision
        assert decision.n_blocks == 3
        assert stacks == [decision.n_blocks] * (volumes // decision.n_blocks)
        assert ob.metrics.snapshot()["autotune.trials"]["value"] == trials

    def _miranda(self):
        data = generate("miranda", shape=(48, 40, 44), seed=3)
        return data, 1e-3 * float(data.max() - data.min())

    def _trials(self, data, eb, fixed):
        ob = obs.Observation()
        with obs.observe(ob):
            decision = autotune(data, eb, fixed=fixed)
        return decision, ob.metrics.snapshot()["autotune.trials"]["value"]

    def test_pinned_beta_survives_alpha_step(self):
        """A pinned beta stays: the alpha/beta step tries each other alpha
        of the grid under it (3 trials), never a grid beta."""
        d, trials = self._trials(*self._miranda(), {"beta": 4.0})
        assert d.beta == 4.0
        assert d.alpha in _ALPHA_GRID
        assert trials == 14

    def test_pinned_alpha_still_tunes_beta(self):
        """A pinned alpha != 1 only scales the levels once beta leaves 1:
        the step tries each beta of the grid under it (2 trials)."""
        d, trials = self._trials(*self._miranda(), {"alpha": 1.5})
        assert d.alpha == 1.5
        assert d.beta in _BETA_GRID
        assert trials == 13

    def test_trials_build_no_compression_state(self, monkeypatch):
        """Trials score the stream, the literal count and the decoded
        block only: neither an autotune call nor QoZ's alpha/beta tuner
        constructs the characterization volumes' holder."""
        data, eb = self._miranda()
        built = []
        real = CompressionState.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(CompressionState, "__init__", counting)
        autotune(data, eb)
        tune_level_eb(data, eb, num_levels(data.shape))
        assert built == []

    def test_exact_block_keeps_score_finite(self):
        """A sample block reconstructed exactly (a zeroed corner) must not
        score +inf: that ties every trial and leaves the untuned start."""
        data = generate("miranda", shape=(64, 96, 96), seed=21)
        data[:32, :32, :32] = 0
        eb = 1e-3 * float(data.max() - data.min())
        d = autotune(data, eb)
        assert np.isfinite(d.score)
        assert (d.interp, d.alpha, d.qp) != ("linear", 1.0, None)


class TestTemporal:
    @pytest.fixture(scope="class")
    def movie(self):
        return generate("rtm", shape=(8, 24, 24, 16))

    def test_roundtrip_bound(self, movie):
        eb = 1e-3 * float(movie.max() - movie.min())
        comp = TemporalCompressor("sz3", eb, predictor="interp")
        out = comp.decompress(comp.compress(movie))
        assert out.shape == movie.shape
        assert np.abs(out.astype(np.float64) - movie.astype(np.float64)).max() <= eb * (1 + 1e-9)

    def test_no_error_accumulation(self, movie):
        """Every frame independently satisfies the bound (residuals are
        formed against decoded frames)."""
        eb = 1e-3 * float(movie.max() - movie.min())
        comp = TemporalCompressor("sz3", eb, keyframe_interval=100,
                                  predictor="interp")
        out = comp.decompress(comp.compress(movie))
        for t in range(movie.shape[0]):
            err = np.abs(out[t].astype(np.float64) - movie[t].astype(np.float64)).max()
            assert err <= eb * (1 + 1e-9), t

    def test_temporal_beats_intra_on_slow_motion(self):
        """Consecutive wavefield snapshots are similar: temporal prediction
        must shrink the total size."""
        data = generate("rtm", shape=(10, 28, 28, 18)).astype(np.float32)
        # make motion slow: interpolate intermediate frames
        slow = np.repeat(data[:5], 2, axis=0)
        eb = 1e-3 * float(slow.max() - slow.min())
        temporal = TemporalCompressor("sz3", eb, predictor="interp")
        s_temporal = len(temporal.compress(slow))
        intra = TemporalCompressor("sz3", eb, keyframe_interval=1,
                                   predictor="interp")
        s_intra = len(intra.compress(slow))
        assert s_temporal < s_intra

    def test_keyframes_allow_reset(self, movie):
        eb = 1e-2 * float(movie.max() - movie.min())
        comp = TemporalCompressor("sz3", eb, keyframe_interval=3,
                                  predictor="interp")
        out = comp.decompress(comp.compress(movie))
        assert np.abs(out.astype(np.float64) - movie.astype(np.float64)).max() <= eb * (1 + 1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TemporalCompressor("sz3", 1e-3, keyframe_interval=0)
        comp = TemporalCompressor("sz3", 1e-3)
        with pytest.raises(ValueError):
            comp.compress(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError):
            comp.decompress(b"XXXX" + b"\x00" * 16)


class TestEntropyStageOption:
    def test_range_stage_roundtrip(self):
        rng = np.random.default_rng(0)
        v = np.rint(rng.normal(0, 2, 5000)).astype(np.int64)
        blob = encode_index_stream(v, entropy="range")
        assert np.array_equal(decode_index_stream(blob), v)

    def test_huffman_default_unchanged(self):
        v = np.arange(-10, 10)
        blob = encode_index_stream(v)
        assert np.array_equal(decode_index_stream(blob), v)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            encode_index_stream(np.zeros(4, dtype=np.int64), entropy="golomb")

    def test_range_wins_on_sparse(self):
        # the coders alone: after the zlib stage the Huffman stream is the
        # smaller one (149 B against 282 B), so the framing cannot show it
        v = np.zeros(30000, dtype=np.int64)
        v[::37] = 1
        h = HuffmanCodec().encode(v)
        r = RangeCodec().encode(v)
        assert len(r) < len(h)
