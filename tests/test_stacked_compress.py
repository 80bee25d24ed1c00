"""The stacked compress: ``compress_volumes`` runs the engine once over
equal volumes stacked on a leading axis — the auto-tuner's sample blocks,
and every blob's volume as a stack of one.  Every case compares each
volume of a stack with that volume run as a stack of one — meta, stream,
literals, anchors, decoded bytes and the per-pass indices — and the
stacked ``score_run`` with per-block scoring; the golden digests are the
byte reference for a stack of one.  tests/numpy_path re-runs this module
on the numpy loops.
"""
import numpy as np
import pytest

from repro.compressors.base import CompressionState
from repro.compressors.interp_engine import (
    EngineConfig,
    compress_volumes,
    level_error_bounds,
)
from repro.core import QPConfig
from repro.core.autotune import BlockRun, score_run
from repro.core.config import AdaptiveConfig
from repro.metrics.errors import mse, mse_rows
from repro.pipeline.stages import QPTransform, StageContext
from repro.utils.levels import num_levels

SHAPES = {1: (70,), 2: (17, 20), 3: (9, 10, 11)}
#: per-volume noise: a smooth volume (cubic tends to win), a rough one
#: (linear tends to win) and one in between, so ``interp="auto"`` can
#: choose differently per volume
NOISE = (0.0, 0.6, 0.05)


def _stack(shape, k, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*(np.linspace(0, 3, s) for s in shape), indexing="ij")
    return np.stack([
        sum(np.sin((1 + 0.4 * i) * c) for c in coords)
        + NOISE[i] * rng.standard_normal(shape)
        for i in range(k)
    ]).astype(dtype)


def _cfg(shape, eb=1e-2, **kw):
    kw.setdefault("level_eb_factors", level_error_bounds(
        eb, num_levels(shape), 1.25, 3.0
    ))
    return EngineConfig(error_bound=eb, **kw)


def _assert_parity(stack, cfg):
    """Each volume of the stacked run equals its run as a stack of one."""
    metas, streams, literals, anchors, decoded, views = compress_volumes(stack, cfg)
    assert streams.dtype == np.int64 and streams.shape[0] == len(stack)
    assert decoded.shape == stack.shape and decoded.dtype == stack.dtype
    ctx = StageContext(sentinel=-cfg.radius)
    for i, vol in enumerate(stack):
        stats: list[dict] = []
        (meta,), stream, (lits,), (anc,), dec, one_views = compress_volumes(
            vol[None], cfg, None, stats
        )
        assert metas[i] == meta
        np.testing.assert_array_equal(streams[i], stream[0])
        assert literals[i].dtype == lits.dtype
        assert literals[i].tobytes() == lits.tobytes()
        assert anchors[i].tobytes() == anc.tobytes()
        assert decoded[i].tobytes() == dec[0].tobytes()
        assert [level for level, _ in views] == [s["level"] for s in stats]
        for (level, q), (_, q1), s in zip(views, one_views, stats):
            np.testing.assert_array_equal(q[i], q1[0])
            # each view is its pass as streamed: QP over the pass's indices
            ctx.level = level
            assert q[i].shape == s["indices"].shape
            np.testing.assert_array_equal(
                q[i], QPTransform(cfg.qp).forward(ctx, s["indices"])
            )
    return streams, literals


@pytest.mark.parametrize("scheme", [
    {"structure": "sequential"},
    {"structure": "sequential", "axis_order": (2, 1, 0)},
    {"structure": "multidim"},
], ids=["seq", "seq-reversed", "multidim"])
@pytest.mark.parametrize("interp", ["linear", "cubic", "auto"])
def test_methods_and_structures(interp, scheme):
    stack = _stack(SHAPES[3], 3)
    _assert_parity(stack, _cfg(SHAPES[3], interp=interp, qp=QPConfig(), **scheme))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("bits", [0, 1, 2, 3])
def test_adaptive_bits(bits, dtype):
    stack = _stack(SHAPES[3], 3, dtype)
    adaptive = AdaptiveConfig(bits=bits, threshold=4) if bits else None
    _assert_parity(stack, _cfg(
        SHAPES[3], interp="cubic", qp=QPConfig(), adaptive=adaptive,
    ))


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("qp", [
    QPConfig.disabled(),
    QPConfig(dimension="2d"),
    QPConfig(dimension="3d"),
    QPConfig(dimension="1d-back"),
], ids=["off", "2d", "3d", "1d-back"])
def test_qp_dimensions_and_ranks(qp, ndim):
    # QP's dimension degrades with the per-volume rank, not the stack's
    stack = _stack(SHAPES[ndim], 2, seed=ndim)
    _assert_parity(stack, _cfg(SHAPES[ndim], interp="auto", qp=qp))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stack_sizes_with_literals(k, dtype):
    # radius 8: coarse-level indices reach the radius, so every volume
    # carries literals the stack must count per volume
    stack = _stack(SHAPES[3], k, dtype, seed=k)
    _, literals = _assert_parity(stack, _cfg(
        SHAPES[3], eb=1e-3, interp="cubic", radius=8, qp=QPConfig(),
    ))
    assert all(lits.size for lits in literals)


def test_auto_predicts_per_volume_where_methods_diverge():
    stack = _stack((24, 20, 22), 3)
    cfg = _cfg((24, 20, 22), interp="auto", qp=QPConfig())
    methods = [compress_volumes(vol[None], cfg)[0][0]["methods"] for vol in stack]
    assert any(m != methods[0] for m in methods[1:])
    _assert_parity(stack, cfg)


def test_scheme_selector_is_refused():
    cfg = _cfg(SHAPES[3], interp="linear")
    cfg.scheme_selector = lambda arr, level, c: {"structure": "sequential"}
    with pytest.raises(ValueError):
        compress_volumes(_stack(SHAPES[3], 2), cfg)


@pytest.mark.parametrize("kw", [
    {"state": CompressionState()}, {"level_stats": []},
], ids=["state", "level_stats"])
def test_blob_outputs_take_a_stack_of_one(kw):
    cfg = _cfg(SHAPES[3], interp="linear")
    with pytest.raises(ValueError):
        compress_volumes(_stack(SHAPES[3], 2), cfg, **kw)
    compress_volumes(_stack(SHAPES[3], 1), cfg, **kw)


def _score_one(block, cfg, value_range):
    """One block scored as the tuner scored blocks before they stacked."""
    _, streams, (literals,), _, decoded, _ = compress_volumes(block[None], cfg)
    err = mse(block, decoded[0])
    if err:
        psnr = 20.0 * np.log10(value_range / np.sqrt(err))
    else:
        psnr = -20.0 * np.log10(np.finfo(block.dtype).eps)
    run = BlockRun(psnr, literals.size, block.size)
    return run.score(streams[0]), run


@pytest.mark.parametrize("ndim,k,dtype,kw", [
    (3, 3, np.float32, {"interp": "cubic"}),
    (3, 2, np.float64, {"interp": "auto", "qp": QPConfig()}),
    (3, 3, np.float32, {"interp": "linear", "structure": "multidim",
                        "adaptive": AdaptiveConfig(bits=2, threshold=4)}),
    (2, 3, np.float32, {"interp": "auto", "radius": 8}),
    (1, 1, np.float64, {"interp": "linear"}),
], ids=["3d-cubic", "3d-auto-f64", "multidim-adaptive", "2d-literals", "1d"])
def test_score_run_equals_per_block_scores(ndim, k, dtype, kw):
    stack = _stack(SHAPES[ndim], k, dtype, seed=ndim)
    cfg = _cfg(SHAPES[ndim], **kw)
    value_range = float(stack.max() - stack.min())
    scores, runs, _ = score_run(stack, cfg, value_range)
    expected = [_score_one(block, cfg, value_range) for block in stack]
    assert scores == [s for s, _ in expected]
    assert runs == [r for _, r in expected]


def test_exact_block_keeps_a_finite_score():
    stack = _stack(SHAPES[3], 2)
    stack[1] = 0.0  # a flat block decodes exactly
    scores, runs, _ = score_run(stack, _cfg(SHAPES[3], interp="linear"), 2.0)
    assert np.isfinite(scores).all()
    assert runs[1].psnr == -20.0 * np.log10(np.finfo(np.float32).eps)


def test_mse_rows_is_bit_equal_to_mse():
    rng = np.random.default_rng(0)
    mismatches = 0
    for trial in range(300):
        ndim = int(rng.integers(1, 4))
        side = int(rng.integers(1, 42 if ndim == 3 else 300))
        shape = (int(rng.integers(1, 4)),) + (side,) * ndim
        dtype = (np.float32, np.float64)[trial % 2]
        a = rng.standard_normal(shape).astype(dtype)
        b = (a + rng.uniform(-1e-3, 1e-3, shape)).astype(dtype)
        rows = mse_rows(a, b)
        mismatches += sum(rows[i] != mse(a[i], b[i]) for i in range(len(a)))
    assert mismatches == 0
