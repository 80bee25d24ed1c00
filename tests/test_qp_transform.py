"""Tests for the QP transform — above all the reversibility invariant
``qp_inverse(qp_forward(Q)) == Q`` for every configuration (the paper's
guarantee that QP never changes decompressed data)."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.compressors import SZ3, decompress_any, interp_engine
from repro.core import QP_CONDITIONS, QP_DIMENSIONS, QPConfig, qp_forward, qp_inverse
from repro.parallel import ParallelCompressor

SENTINEL = -32


def sample_indices(shape, seed=0, sentinel_frac=0.05):
    rng = np.random.default_rng(seed)
    q = np.rint(rng.normal(0, 3, shape)).astype(np.int64)
    mask = rng.random(shape) < sentinel_frac
    q[mask] = SENTINEL
    return q


@pytest.mark.parametrize("dimension", QP_DIMENSIONS)
@pytest.mark.parametrize("condition", QP_CONDITIONS)
def test_roundtrip_3d(dimension, condition):
    q = sample_indices((6, 7, 8))
    cfg = QPConfig(dimension=dimension, condition=condition, max_level=2)
    qp = qp_forward(q, SENTINEL, cfg, level=1)
    back = qp_inverse(qp, SENTINEL, cfg, level=1)
    assert np.array_equal(back, q)


@pytest.mark.parametrize("dimension", QP_DIMENSIONS)
@pytest.mark.parametrize("condition", QP_CONDITIONS)
def test_roundtrip_2d_pass(dimension, condition):
    q = sample_indices((9, 11), seed=1)
    cfg = QPConfig(dimension=dimension, condition=condition)
    qp = qp_forward(q, SENTINEL, cfg, level=2)
    assert np.array_equal(qp_inverse(qp, SENTINEL, cfg, level=2), q)


@pytest.mark.parametrize("dimension", QP_DIMENSIONS)
def test_roundtrip_1d_pass(dimension):
    q = sample_indices((40,), seed=2)
    cfg = QPConfig(dimension=dimension)
    qp = qp_forward(q, SENTINEL, cfg, level=1)
    assert np.array_equal(qp_inverse(qp, SENTINEL, cfg, level=1), q)


def test_roundtrip_4d_pass():
    # ranks 4 and 5: back is axis 0 and the plane the last two axes, so the
    # axes in between are batch axes the inverse must keep apart
    for shape in ((3, 4, 5, 6), (3, 2, 4, 5, 3)):
        q = sample_indices(shape, seed=3)
        for dimension in QP_DIMENSIONS:
            for condition in QP_CONDITIONS:
                cfg = QPConfig(dimension=dimension, condition=condition)
                qp = qp_forward(q, SENTINEL, cfg, level=1)
                back = qp_inverse(qp, SENTINEL, cfg, level=1)
                assert np.array_equal(back, q), (shape, dimension, condition)


def test_level_gating():
    q = sample_indices((5, 5, 5), seed=4)
    cfg = QPConfig(max_level=2)
    assert qp_forward(q, SENTINEL, cfg, level=3) is q  # identity above max_level
    assert qp_forward(q, SENTINEL, cfg, level=2) is not q


def test_disabled_config_is_identity():
    q = sample_indices((5, 5, 5), seed=5)
    cfg = QPConfig.disabled()
    assert qp_forward(q, SENTINEL, cfg, level=1) is q
    assert qp_inverse(q, SENTINEL, cfg, level=1) is q


def test_entropy_reduction_on_clustered_indices():
    """QP must reduce entropy on the clustered patterns it targets."""
    from repro.core import shannon_entropy

    rng = np.random.default_rng(6)
    # smooth positive field -> neighbouring indices share sign and magnitude
    base = np.cumsum(rng.normal(0.5, 0.2, (20, 40, 40)), axis=1)
    q = np.rint(base).astype(np.int64) + 1
    cfg = QPConfig(dimension="2d", condition="III")
    qp = qp_forward(q, SENTINEL, cfg, level=1)
    assert shannon_entropy(qp) < shannon_entropy(q)
    assert np.array_equal(qp_inverse(qp, SENTINEL, cfg, level=1), q)


def test_case3_skips_sign_disagreement():
    q = np.array([[[1, 1], [1, 1]]], dtype=np.int64)  # all positive
    q2 = np.array([[[1, -1], [1, 1]]], dtype=np.int64)  # left/top disagree at (1,1)
    cfg = QPConfig(dimension="2d", condition="III")
    # uniform positive plane: interior point predicted exactly -> Q' = 0 there
    out = qp_forward(q, SENTINEL, cfg, level=1)
    assert out[0, 1, 1] == 0
    # mixed signs: no prediction anywhere
    out2 = qp_forward(q2, SENTINEL, cfg, level=1)
    assert np.array_equal(out2, q2)


def test_case2_skips_unpredictable_neighbours():
    q = np.array([[[5, 5], [5, 5]]], dtype=np.int64)
    q[0, 0, 0] = SENTINEL
    cfg = QPConfig(dimension="2d", condition="II")
    out = qp_forward(q, SENTINEL, cfg, level=1)
    # (1,1) involves the sentinel at (0,0) -> skipped
    assert out[0, 1, 1] == q[0, 1, 1]


def test_case1_predicts_through_sentinels():
    q = np.array([[[5, 5], [5, 5]]], dtype=np.int64)
    q[0, 0, 0] = SENTINEL
    cfg = QPConfig(dimension="2d", condition="I")
    out = qp_forward(q, SENTINEL, cfg, level=1)
    # c = 5 + 5 - SENTINEL  -> Q' = 5 - (10 - SENTINEL)
    assert out[0, 1, 1] == 5 - (10 - SENTINEL)
    assert np.array_equal(qp_inverse(out, SENTINEL, cfg, level=1), q)


def test_case4_more_conservative_than_case3():
    q = sample_indices((8, 16, 16), seed=7, sentinel_frac=0.0)
    c3 = QPConfig(dimension="2d", condition="III")
    c4 = QPConfig(dimension="2d", condition="IV")
    n3 = int((qp_forward(q, SENTINEL, c3, 1) != q).sum())
    n4 = int((qp_forward(q, SENTINEL, c4, 1) != q).sum())
    assert n4 <= n3


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        QPConfig(dimension="4d")
    with pytest.raises(ValueError):
        QPConfig(condition="V")
    with pytest.raises(ValueError):
        QPConfig(max_level=-1)


def test_config_dict_roundtrip():
    cfg = QPConfig(dimension="3d", condition="II", max_level=3, enabled=False)
    assert QPConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "bad",
    [
        ["2d"],
        {"dimension": "2d", "radius": 3},
        {"enabled": 1},
        {"dimension": "4d"},
        {"condition": "V"},
        {"max_level": -1},
        {"max_level": "2"},
    ],
    ids=["non-dict", "unknown-key", "non-bool-enabled", "dimension",
         "condition", "negative-level", "str-level"],
)
def test_config_from_untrusted_dict_is_typed(bad):
    # headers and gateway specs carry this dict: a bad one is corrupt input
    from repro.errors import CorruptBlobError

    with pytest.raises(CorruptBlobError):
        QPConfig.from_dict(bad)


@given(
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=10),
               elements=st.integers(-31, 31)),
    st.sampled_from(QP_DIMENSIONS),
    st.sampled_from(QP_CONDITIONS),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_property_reversibility(q, dimension, condition, with_sentinels):
    if with_sentinels:
        q = q.copy()
        q[q == -31] = SENTINEL
    cfg = QPConfig(dimension=dimension, condition=condition)
    qp = qp_forward(q, SENTINEL, cfg, level=1)
    assert np.array_equal(qp_inverse(qp, SENTINEL, cfg, level=1), q)


def _slab_blobs(container):
    """``(axis, slab blobs)`` of a slab-parallel container."""
    axis, n = struct.unpack_from("<BI", container, 4)
    off, blobs = 9, []
    for _ in range(n):
        (size,) = struct.unpack_from("<Q", container, off)
        blobs.append(container[off + 8:off + 8 + size])
        off += 8 + size
    return axis, blobs


@pytest.mark.parametrize(
    "name,stacked", [("sz3", True), ("qoz", False)],
    ids=["sz3-stacked", "qoz-per-volume"],
)
def test_parallel_slabs_decode_like_per_slab_decompress(monkeypatch, name, stacked):
    # four equal SZ3 slabs share one stacked decode; QoZ tunes per-level
    # error bounds per slab (four distinct sets on this field), so its
    # slabs decode one volume at a time
    data = repro.generate("miranda", shape=(32, 32, 32), seed=5)
    eb = 1e-3 * float(data.max() - data.min())
    par = ParallelCompressor(name, eb, workers=1, n_slabs=4, qp=QPConfig())
    container = par.compress(data)
    axis, blobs = _slab_blobs(container)
    assert len(blobs) == 4
    expected = np.concatenate([decompress_any(b) for b in blobs], axis=axis)
    sizes = []
    real = interp_engine.decompress_volumes
    monkeypatch.setattr(
        interp_engine, "decompress_volumes",
        lambda items, *a, **k: sizes.append(len(items)) or real(items, *a, **k),
    )
    out = par.decompress(container)
    assert sizes == ([4] if stacked else [1, 1, 1, 1])
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)


def test_decompress_many_stacks_each_geometry_group(monkeypatch):
    # the two 8-row slabs share a stack key and stack; the 9-row slab
    # between them in the batch decodes as a stack of one
    data = repro.generate("miranda", shape=(25, 24, 20), seed=6)
    eb = 1e-3 * float(data.max() - data.min())
    comp = SZ3(eb, predictor="interp", qp=QPConfig())
    blobs = [
        comp.compress(np.ascontiguousarray(data[lo:hi]))
        for lo, hi in ((0, 8), (8, 17), (17, 25))
    ]
    expected = [comp.decompress(b) for b in blobs]
    stacks = []
    real = interp_engine.decompress_volumes
    monkeypatch.setattr(
        interp_engine, "decompress_volumes",
        lambda items, *a, **k: stacks.append((len(items), items[0][4]))
        or real(items, *a, **k),
    )
    outs = comp.decompress_many(blobs)
    assert stacks == [(2, (8, 24, 20)), (1, (9, 24, 20))]
    for out, exp in zip(outs, expected):
        np.testing.assert_array_equal(out, exp)
