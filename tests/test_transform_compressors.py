"""Tests for the transform-based comparators: ZFP, TTHRESH, SPERR."""
import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.base import CompressionState
from repro.compressors.sperr import SPERR, cdf97_forward, cdf97_inverse
from repro.compressors.tthresh import TTHRESH
from repro.compressors.zfp import ZFP, _forward_transform, _from_blocks, _inverse_transform, _to_blocks
from repro.core import QPConfig

ALL = [ZFP, TTHRESH, SPERR]


def maxerr(a, b):
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("eb", [1e-2, 1e-4])
def test_roundtrip_bound_smooth(cls, eb, smooth_field):
    c = cls(eb)
    out = c.decompress(c.compress(smooth_field))
    assert out.shape == smooth_field.shape
    assert out.dtype == smooth_field.dtype
    assert maxerr(out, smooth_field) <= eb


@pytest.mark.parametrize("cls", ALL)
def test_roundtrip_layered(cls, layered_field):
    eb = 1e-3
    c = cls(eb)
    out = c.decompress(c.compress(layered_field))
    assert maxerr(out, layered_field) <= eb


@pytest.mark.parametrize("cls", ALL)
def test_roundtrip_2d(cls, field_2d):
    eb = 1e-3
    c = cls(eb)
    out = c.decompress(c.compress(field_2d))
    assert maxerr(out, field_2d) <= eb


@pytest.mark.parametrize("cls", ALL)
def test_float64(cls, smooth_field):
    data = smooth_field.astype(np.float64)
    c = cls(1e-3)
    out = c.decompress(c.compress(data))
    assert out.dtype == np.float64
    assert maxerr(out, data) <= 1e-3


@pytest.mark.parametrize("cls", ALL)
@pytest.mark.parametrize("shape", [(9, 13, 7), (17, 5)])
def test_awkward_shapes(cls, shape):
    rng = np.random.default_rng(1)
    data = np.cumsum(rng.normal(0, 0.1, shape), axis=0).astype(np.float32)
    c = cls(1e-3)
    out = c.decompress(c.compress(data))
    assert out.shape == shape
    assert maxerr(out, data) <= 1e-3


def test_zfp_block_tiling_roundtrip():
    rng = np.random.default_rng(2)
    padded = rng.normal(0, 1, (8, 12, 4))
    blocks = _to_blocks(padded)
    assert blocks.shape == (2 * 3 * 1, 64)
    assert np.array_equal(_from_blocks(blocks, padded.shape), padded)


def test_zfp_transform_energy_compaction():
    # a smooth ramp should concentrate energy in the first coefficient
    ramp = np.arange(64, dtype=np.int64).reshape(1, 64) * 1000
    coeffs = _forward_transform(ramp, 3)
    assert np.abs(coeffs[0, 0]) > np.abs(coeffs[0, 1:]).max()


def test_zfp_transform_near_invertible():
    rng = np.random.default_rng(3)
    v = rng.integers(-(1 << 30), 1 << 30, (5, 64)).astype(np.int64)
    rec = _inverse_transform(_forward_transform(v, 3), 3)
    # the integer lift loses only low-order bits (~2 bits per axis, values 2^30)
    assert np.abs(rec - v).max() <= 32


def test_cdf97_perfect_reconstruction():
    rng = np.random.default_rng(4)
    data = rng.normal(0, 1, (32, 16))
    rec = cdf97_inverse(cdf97_forward(data, 2), 2)
    assert np.allclose(rec, data, atol=1e-10)


def test_cdf97_energy_compaction_on_smooth():
    x = np.linspace(0, 2 * np.pi, 64)
    data = np.sin(np.outer(x, x) / 4)
    coeffs = cdf97_forward(data, 3)
    detail = coeffs[32:, 32:]
    assert np.abs(detail).max() < 0.1 * np.abs(coeffs[:8, :8]).max()


def test_sperr_outliers_enforce_pointwise_bound():
    rng = np.random.default_rng(5)
    data = rng.normal(0, 1, (24, 24)).astype(np.float32)  # noisy: many outliers
    eb = 1e-3
    c = SPERR(eb)
    st = CompressionState()
    blob = c.compress(data, state=st)
    out = c.decompress(blob)
    assert maxerr(out, data) <= eb
    assert st.extras["outliers"] >= 0


def test_sperr_outlier_values_exact(smooth_field):
    """Outlier positions must reproduce the original value exactly."""
    eb = 1e-4
    c = SPERR(eb)
    st = CompressionState()
    blob = c.compress(smooth_field, state=st)
    out = c.decompress(blob)
    assert maxerr(out, smooth_field) <= eb


def test_sperr_coder_argument_retired():
    # no catch-all: a leftover coder= fails loudly instead of being ignored
    with pytest.raises(TypeError):
        SPERR(1e-3, coder="speck")


@pytest.mark.parametrize("name", ["zfp", "tthresh"])
def test_transform_compressors_reject_unknown_arguments(name):
    # no catch-all: QP belongs to the prediction-based bases only
    with pytest.raises(TypeError):
        get_compressor(name, 1e-3, qp=QPConfig())


@pytest.mark.parametrize("checksum", [False, True], ids=["plain", "sealed"])
def test_sperr_speck_blob_is_typed(checksum, field_2d):
    """Blobs of the retired SPECK coder carry ``coder: speck`` in their
    header; every decode entry point names the coder and how to migrate."""
    import repro
    from repro.compressors import decompress_any
    from repro.compressors.base import Blob
    from repro.errors import CorruptBlobError
    from repro.pipeline.driver import spec_for_blob

    blob = Blob.from_bytes(SPERR(1e-3).compress(field_2d))
    blob.header["coder"] = "speck"
    raw = blob.to_bytes(checksum=checksum)
    for decode in (repro.decompress, decompress_any, SPERR(1e-3).decompress):
        with pytest.raises(CorruptBlobError, match="retired SPECK.*re-compress"):
            decode(raw)
    with pytest.raises(CorruptBlobError, match="retired SPECK"):
        spec_for_blob(blob.header, blob.sections)


def test_tthresh_core_sparsity(smooth_field):
    c = TTHRESH(1e-2)
    st = CompressionState()
    c.compress(smooth_field, state=st)
    # a smooth field has a very sparse Tucker core
    assert st.extras["core_nonzero"] < smooth_field.size * 0.05


def test_tthresh_tiny_1d():
    data = np.sin(np.linspace(0, 6, 40)).astype(np.float32)
    c = TTHRESH(1e-3)
    out = c.decompress(c.compress(data))
    assert maxerr(out, data) <= 1e-3


def test_comparator_profile(smooth_field):
    """Table IV shape: SPERR/TTHRESH lead CR; ZFP overshoots quality."""
    eb = 1e-3
    sizes = {cls.name: len(cls(eb).compress(smooth_field)) for cls in ALL}
    assert sizes["sperr"] < sizes["zfp"]
    assert sizes["tthresh"] < sizes["zfp"]
    zfp_out = ZFP(eb).decompress(ZFP(eb).compress(smooth_field))
    # ZFP's truncation is conservative: achieved error well below the bound
    assert maxerr(zfp_out, smooth_field) < eb
