"""Integration tests for the four interpolation-based compressors, with and
without QP.  The contract under test:

1. the point-wise error bound holds;
2. QP changes the compression ratio but NEVER the decompressed bytes;
3. blobs are self-describing and dispatchable.
"""
import numpy as np
import pytest

from repro.compressors import HPEZ, MGARD, SZ3, CompressionState, QoZ, decompress_any
from repro.core import QPConfig

ALL = [SZ3, QoZ, HPEZ, MGARD]
EB = 1e-3


def maxerr(a, b):
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("with_qp", [False, True])
def test_roundtrip_bound_smooth(cls, with_qp, smooth_field):
    c = cls(EB, qp=QPConfig() if with_qp else None)
    blob = c.compress(smooth_field)
    out = c.decompress(blob)
    assert out.shape == smooth_field.shape
    assert out.dtype == smooth_field.dtype
    assert maxerr(out, smooth_field) <= EB * (1 + 1e-9)


@pytest.mark.parametrize("cls", ALL)
def test_roundtrip_layered(cls, layered_field):
    c = cls(EB, qp=QPConfig())
    out = c.decompress(c.compress(layered_field))
    assert maxerr(out, layered_field) <= EB * (1 + 1e-9)


@pytest.mark.parametrize("cls", ALL)
def test_roundtrip_noisy(cls, noisy_field):
    c = cls(1e-2, qp=QPConfig())
    out = c.decompress(c.compress(noisy_field))
    assert maxerr(out, noisy_field) <= 1e-2 * (1 + 1e-9)


@pytest.mark.parametrize("cls", ALL)
def test_qp_preserves_decompressed_data(cls, smooth_field):
    """The paper's central invariant: QP leaves reconstruction bit-identical."""
    base = cls(EB)
    qp = cls(EB, qp=QPConfig())
    out_base = base.decompress(base.compress(smooth_field))
    out_qp = qp.decompress(qp.compress(smooth_field))
    assert np.array_equal(out_base, out_qp)


def test_qp_improves_cr_on_clustered_data(smooth_field):
    """On smooth data at a tight bound QP must improve (or match) SZ3's CR."""
    eb = 1e-4
    base = SZ3(eb, predictor="interp")
    qp = SZ3(eb, predictor="interp", qp=QPConfig())
    size_base = len(base.compress(smooth_field))
    size_qp = len(qp.compress(smooth_field))
    assert size_qp < size_base


@pytest.mark.parametrize("cls", ALL)
def test_float64_input(cls, smooth_field):
    data = smooth_field.astype(np.float64)
    c = cls(EB)
    out = c.decompress(c.compress(data))
    assert out.dtype == np.float64
    assert maxerr(out, data) <= EB * (1 + 1e-9)


@pytest.mark.parametrize("cls", [SZ3, QoZ, MGARD])
def test_2d_data(cls, field_2d):
    c = cls(EB, qp=QPConfig())
    out = c.decompress(c.compress(field_2d))
    assert maxerr(out, field_2d) <= EB * (1 + 1e-9)


def test_1d_data():
    data = np.sin(np.linspace(0, 20, 500)).astype(np.float32)
    c = SZ3(EB, qp=QPConfig())
    out = c.decompress(c.compress(data))
    assert maxerr(out, data) <= EB * (1 + 1e-9)


@pytest.mark.parametrize("cls", ALL)
def test_3d_qp_on_4d_data(cls):
    # 3d QP takes back along axis 0 of a pass array; on rank-4 passes the
    # inverse must walk that same axis or decode leaves the error bound
    rng = np.random.default_rng(0)
    shape = (6, 8, 10, 12)
    coords = np.meshgrid(*(np.linspace(0, 2, s) for s in shape), indexing="ij")
    data = (sum(np.sin(3 * c) for c in coords)
            + 0.05 * rng.standard_normal(shape)).astype(np.float32)
    kwargs = {"predictor": "interp"} if cls is SZ3 else {}
    c = cls(EB, qp=QPConfig(dimension="3d"), **kwargs)
    out = c.decompress(c.compress(data))
    assert maxerr(out, data) <= EB * (1 + 1e-9)


@pytest.mark.parametrize("shape", [(7, 9, 11), (33, 5, 17), (16, 16, 16)])
def test_awkward_shapes(shape):
    rng = np.random.default_rng(0)
    data = np.cumsum(rng.normal(0, 0.1, shape), axis=0).astype(np.float32)
    c = SZ3(EB, qp=QPConfig())
    out = c.decompress(c.compress(data))
    assert maxerr(out, data) <= EB * (1 + 1e-9)


def test_sz3_forced_lorenzo(smooth_field):
    c = SZ3(EB, predictor="lorenzo")
    blob = c.compress(smooth_field)
    out = c.decompress(blob)
    assert maxerr(out, smooth_field) <= EB * (1 + 1e-9)


def test_sz3_lorenzo_switch_on_layered(layered_field):
    c = SZ3(1e-5)
    assert c._select_predictor(layered_field) == "lorenzo"


def test_sz3_interp_on_smooth(smooth_field):
    c = SZ3(1e-3)
    assert c._select_predictor(smooth_field) == "interp"


def test_dispatch_decompress_any(smooth_field):
    blob = QoZ(EB).compress(smooth_field)
    out = decompress_any(blob)
    assert maxerr(out, smooth_field) <= EB * (1 + 1e-9)


def test_wrong_compressor_rejected(smooth_field):
    blob = SZ3(EB).compress(smooth_field)
    with pytest.raises(ValueError):
        QoZ(EB).decompress(blob)


def test_state_collection(smooth_field):
    st = CompressionState()
    c = SZ3(EB, predictor="interp", qp=QPConfig())
    c.compress(smooth_field, state=st)
    assert st.index_volume is not None
    assert st.index_volume.shape == smooth_field.shape
    assert "index_volume_qp" in st.extras
    # QP must lower (or keep) the entropy of the index volume
    from repro.core import shannon_entropy

    assert shannon_entropy(st.extras["index_volume_qp"]) <= shannon_entropy(
        st.index_volume
    ) + 1e-9


def test_mgard_resolution_reduction(smooth_field):
    c = MGARD(EB)
    blob = c.compress(smooth_field)
    full = c.decompress(blob)
    half = c.decompress_resolution(blob, level=1)
    assert half.shape == tuple((n + 1) // 2 for n in smooth_field.shape)
    assert np.array_equal(half, full[::2, ::2, ::2])
    quarter = c.decompress_resolution(blob, level=2)
    assert np.array_equal(quarter, full[::4, ::4, ::4])


def test_mgard_resolution_level0_is_full(smooth_field):
    c = MGARD(EB)
    blob = c.compress(smooth_field)
    assert np.array_equal(c.decompress_resolution(blob, 0), c.decompress(blob))


def test_hpez_level_schemes_recorded(layered_field):
    st = CompressionState()
    c = HPEZ(EB)
    c.compress(layered_field, state=st)
    schemes = st.extras["level_schemes"]
    assert len(schemes) >= 1
    assert all("structure" in s for s in schemes.values())


def test_hpez_blockwise_mode(layered_field):
    st = CompressionState()
    c = HPEZ(EB, block_side=24, qp=QPConfig())
    blob = c.compress(layered_field, state=st)
    out = c.decompress(blob)
    assert maxerr(out, layered_field) <= EB * (1 + 1e-9)
    assert len(st.extras["block_choices"]) >= 2


def test_hpez_picks_reversed_order_on_anisotropic_data():
    """SegSalt-like data prefers the x-first order (the paper's Section IV-B
    observation about HPEZ blocks on SegSalt)."""
    from repro.datasets import generate

    data = generate("segsalt", "Pressure2000", shape=(64, 64, 24))
    vr = float(data.max() - data.min())
    st = CompressionState()
    HPEZ(1e-3 * vr).compress(data, state=st)
    schemes = st.extras["level_schemes"]
    assert any(
        s["structure"] == "sequential" and s.get("axis_order")
        for s in schemes.values()
    ) or any(s["structure"] == "multidim" for s in schemes.values())


def test_invalid_inputs():
    with pytest.raises(ValueError):
        SZ3(EB).compress(np.array([np.nan, 1.0]))
    with pytest.raises(TypeError):
        SZ3(EB).compress(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        SZ3(-1.0)
    with pytest.raises(ValueError):
        SZ3(EB, predictor="magic")


def test_tiny_input():
    data = np.array([1.0, 2.0], dtype=np.float32)
    c = SZ3(EB)
    out = c.decompress(c.compress(data))
    assert maxerr(out, data) <= EB * (1 + 1e-9)


def test_qoz_explicit_alpha_beta(smooth_field):
    c = QoZ(EB, alpha=1.5, beta=2.0)
    out = c.decompress(c.compress(smooth_field))
    assert maxerr(out, smooth_field) <= EB * (1 + 1e-9)


def test_blob_corruption_detected(smooth_field):
    blob = SZ3(EB).compress(smooth_field)
    with pytest.raises(ValueError):
        decompress_any(b"XXXX" + blob[4:])
