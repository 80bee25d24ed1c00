"""Tests for PW_REL mode, the parallel block compressor, and the SZ2-style
regression predictor."""
import asyncio
import re
import warnings

import numpy as np
import pytest

import repro
from repro.compressors import SZ3, Blob, decompress_any, decompress_many
from repro.core import QPConfig
from repro.errors import CorruptBlobError
from repro.modes import PointwiseRelativeCompressor, relative_bound
from repro.parallel import ParallelCompressor
from repro.predictors.regression import fit_plane, plane_prediction


class TestRegressionPredictor:
    def test_fit_exact_on_plane(self):
        i, j = np.meshgrid(np.arange(6.0), np.arange(6.0), indexing="ij")
        block = 3.0 + 2.0 * (i - 2.5) - 0.5 * (j - 2.5)
        coeffs = fit_plane(block)
        pred = plane_prediction(block.shape, coeffs)
        assert np.allclose(pred, block, atol=1e-5)

    def test_fit_constant(self):
        block = np.full((4, 4, 4), 7.25)
        coeffs = fit_plane(block)
        assert coeffs[0] == pytest.approx(7.25)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-7)

    def test_sz3_regression_roundtrip(self, smooth_field):
        eb = 1e-3
        comp = SZ3(eb, predictor="regression")
        out = comp.decompress(comp.compress(smooth_field))
        assert np.abs(out.astype(np.float64) - smooth_field).max() <= eb * (1 + 1e-9)

    def test_regression_worse_than_interp_on_smooth(self, smooth_field):
        """The paper's premise: interpolation superseded regression."""
        eb = 1e-3
        s_reg = len(SZ3(eb, predictor="regression").compress(smooth_field))
        s_int = len(SZ3(eb, predictor="interp").compress(smooth_field))
        assert s_int < s_reg

    def test_regression_state_collection(self, smooth_field):
        from repro.compressors import CompressionState

        st = CompressionState()
        SZ3(1e-2, predictor="regression").compress(smooth_field, state=st)
        assert st.extras["predictor"] == "regression"
        assert st.index_volume.shape == smooth_field.shape


class TestPWRelMode:
    def test_relative_bound_helper(self):
        data = np.array([0.0, 10.0])
        assert relative_bound(data, 1e-3) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            relative_bound(data, 0)

    def test_pointwise_relative_bound_holds(self):
        rng = np.random.default_rng(0)
        # values spanning four orders of magnitude
        data = np.exp(rng.uniform(0, 9, (24, 24, 24))).astype(np.float64)
        rel = 1e-3
        comp = PointwiseRelativeCompressor("sz3", rel, qp=QPConfig())
        blob = comp.compress(data)
        out = PointwiseRelativeCompressor.decompress(blob)
        rel_err = np.abs(out - data) / np.abs(data)
        assert rel_err.max() <= rel * (1 + 1e-6)

    def test_rejects_nonpositive(self):
        comp = PointwiseRelativeCompressor("sz3", 1e-3)
        with pytest.raises(ValueError):
            comp.compress(np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ValueError):
            PointwiseRelativeCompressor("sz3", 0.0)

    def test_rejects_integer_data(self):
        # exp of the decoded logs would truncate back to integers
        data = (np.arange(16 ** 3) % 19 + 1).astype(np.int16).reshape(16, 16, 16)
        with pytest.raises(ValueError, match="floating-point"):
            PointwiseRelativeCompressor("sz3", 1e-2).compress(data)

    def test_data_near_the_dtype_max_decodes_finite(self):
        # decoded logs may sit up to the bound above the data's: their exp
        # must not overflow float32 where the data itself did not
        rng = np.random.default_rng(0)
        top = float(np.finfo(np.float32).max)
        data = (top * rng.uniform(0.98, 1.0, (8, 8, 8))).astype(np.float32)
        comp = PointwiseRelativeCompressor("sz3", 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = comp.decompress(comp.compress(data))
        rel_err = np.abs(out.astype(np.float64) - data) / data
        assert rel_err.max() <= 1e-2 * (1 + 1e-5)

    def test_non_pwrel_blob_rejected(self, smooth_field):
        blob = SZ3(1e-3).compress(smooth_field)
        with pytest.raises(ValueError):
            PointwiseRelativeCompressor.decompress(blob)

    @pytest.mark.parametrize(
        "entry", ["repro.decompress", "decompress_any", "decompress_many",
                  "gateway"]
    )
    def test_every_entry_point_decodes_pwrel_to_the_data(self, entry):
        # the base blob holds log(data): each entry point must return exp of
        # the decoded values, in the data's dtype
        rng = np.random.default_rng(5)
        data = np.exp(rng.uniform(-2, 3, (24, 20, 18))).astype(np.float32)
        rel = 1e-2
        blob = PointwiseRelativeCompressor("sz3", rel).compress(data)
        out = _PW_REL_ENTRY_POINTS[entry](blob)
        assert out.dtype == data.dtype and out.shape == data.shape
        rel_err = np.abs(out.astype(np.float64) - data) / data
        assert rel_err.max() <= rel * (1 + 1e-5)
        np.testing.assert_array_equal(
            out, PointwiseRelativeCompressor.decompress(blob)
        )

    @pytest.mark.parametrize(
        "entry", ["repro.decompress", "decompress_any", "decompress_many",
                  "PointwiseRelativeCompressor.decompress"]
    )
    def test_log_values_the_dtype_cannot_hold_are_typed(self, entry):
        # a payload whose logs overflow float32 once exponentiated is corrupt:
        # no real data decodes to them
        rng = np.random.default_rng(5)
        data = np.exp(rng.uniform(-2, 3, (24, 20, 18))).astype(np.float32)
        b = Blob.from_bytes(PointwiseRelativeCompressor("sz3", 1e-2).compress(data))
        anchors = np.frombuffer(b.sections["anchors"], dtype=np.float64)
        b.sections["anchors"] = np.full_like(anchors, 1e6).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptBlobError, match="PW_REL"):
                _PW_REL_ENTRY_POINTS[entry](b.to_bytes())

    @pytest.mark.parametrize("bad", ["zz", "<c8", "O", None])
    def test_bad_pwrel_dtype_is_typed(self, bad):
        data = np.full((8, 8), 2.0, dtype=np.float32)
        b = Blob.from_bytes(PointwiseRelativeCompressor("sz3", 1e-2).compress(data))
        b.header["pw_rel_dtype"] = bad
        with pytest.raises(CorruptBlobError, match="pw_rel_dtype"):
            repro.decompress(b.to_bytes())


def _gateway_decompress(blob: bytes) -> np.ndarray:
    from repro.service import DecompressRequest, Gateway, GatewayConfig

    async def main():
        async with Gateway(GatewayConfig(workers=1)) as gw:
            reply = await gw.submit(DecompressRequest(tenant="t", blob=blob))
            reply.raise_for_status()
            return reply.array()

    return asyncio.run(main())


_PW_REL_ENTRY_POINTS = {
    "repro.decompress": lambda blob: repro.decompress(blob),
    "decompress_any": lambda blob: decompress_any(blob),
    "decompress_many": lambda blob: decompress_many([blob, blob])[1],
    "gateway": _gateway_decompress,
    "PointwiseRelativeCompressor.decompress": PointwiseRelativeCompressor.decompress,
}


class TestParallelCompressor:
    def test_roundtrip_serial_workers(self, smooth_field):
        comp = ParallelCompressor("sz3", 1e-3, workers=1, n_slabs=3,
                                  predictor="interp")
        out = comp.decompress(comp.compress(smooth_field))
        assert np.abs(out.astype(np.float64) - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_roundtrip_multiprocess(self, smooth_field):
        comp = ParallelCompressor("sz3", 1e-3, workers=2, n_slabs=2,
                                  qp=QPConfig(), predictor="interp")
        out = comp.decompress(comp.compress(smooth_field))
        assert np.abs(out.astype(np.float64) - smooth_field).max() <= 1e-3 * (1 + 1e-9)

    def test_slab_count_respects_minimum(self):
        comp = ParallelCompressor("sz3", 1e-3, workers=8, n_slabs=64)
        data = np.sin(np.linspace(0, 6, 40 * 9 * 9)).reshape(40, 9, 9).astype(np.float32)
        out = comp.decompress(comp.compress(data))
        assert out.shape == data.shape

    def test_deterministic_bytes_across_worker_counts(self, smooth_field):
        a = ParallelCompressor("sz3", 1e-3, workers=1, n_slabs=2, predictor="interp")
        b = ParallelCompressor("sz3", 1e-3, workers=2, n_slabs=2, predictor="interp")
        assert a.compress(smooth_field) == b.compress(smooth_field)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelCompressor("sz3", 1e-3, workers=0)

    @pytest.mark.parametrize("ndim", [0, 5])
    def test_rank_is_checked_as_the_bases_check_it(self, ndim):
        # a 0-d array leaves no axis to plan slabs on
        data = np.ones((2,) * ndim)
        message = re.escape(f"expected 1..4-D data, got {ndim}-D")
        for comp in (ParallelCompressor("sz3", 1e-3, workers=1), SZ3(1e-3)):
            with pytest.raises(ValueError, match=message):
                comp.compress(data)

    def test_slab_huffman_block_default_and_override(self, smooth_field):
        from repro.parallel import SLAB_HUFFMAN_BLOCK

        # slab containers default to the small decode-friendly block …
        comp = ParallelCompressor("sz3", 1e-3, workers=1, n_slabs=2)
        assert comp.kwargs["huffman_block_size"] == SLAB_HUFFMAN_BLOCK
        # … an explicit value (including None = codec default) wins …
        plain = ParallelCompressor(
            "sz3", 1e-3, workers=1, n_slabs=2, huffman_block_size=None
        )
        assert plain.kwargs["huffman_block_size"] is None
        # … the choice changes the bytes but not the reconstruction
        a, b = comp.compress(smooth_field), plain.compress(smooth_field)
        assert a != b
        out_a, out_b = comp.decompress(a), plain.decompress(b)
        for out in (out_a, out_b):
            assert np.abs(out.astype(np.float64) - smooth_field).max() <= 1e-3 * (
                1 + 1e-9
            )

    def test_sz3_huffman_block_size_validated(self):
        with pytest.raises(ValueError):
            SZ3(1e-3, huffman_block_size=0)

    def test_corrupt_container(self, smooth_field):
        comp = ParallelCompressor("sz3", 1e-3, workers=1, n_slabs=2)
        blob = comp.compress(smooth_field)
        with pytest.raises(ValueError):
            comp.decompress(b"XXXX" + blob[4:])
