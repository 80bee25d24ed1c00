"""The fixture in conftest.py really forces the numpy path here."""
import numpy as np

from repro import kernels
from repro.codecs import huffman
from repro.compressors import sz3
from repro.core import QPConfig, qp
from repro.predictors import interpolation, lorenzo
from repro.quantize import adaptive
from repro.quantize.linear import LinearQuantizer


def _spy(monkeypatch, calls, owner, name):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_every_stage_reports_numpy():
    assert set(kernels.active_backends().values()) == {"numpy"}


def test_encoders_run_the_numpy_loops(monkeypatch):
    # the re-run suites reach the encoders through HuffmanCodec.encode and
    # qp_forward; under the fixture those must take the numpy reference
    calls = []
    _spy(monkeypatch, calls, huffman, "_huffman_lengths_heap")
    _spy(monkeypatch, calls, huffman, "encode_codes_packed")
    _spy(monkeypatch, calls, qp, "compensation")
    sym = np.arange(300) % 17
    huffman.HuffmanCodec(block_size=64).encode(sym)
    q = (np.arange(6 * 7 * 8).reshape(6, 7, 8) % 5) - 2
    qp.qp_forward(q, -32, QPConfig(), level=1)
    assert calls == ["_huffman_lengths_heap", "encode_codes_packed", "compensation"]


def test_float_stages_run_the_numpy_code(monkeypatch):
    # the re-run quantizer, adaptive-quantizer and interpolation suites go
    # through the quantizers' methods and predict_midpoints, which under
    # the fixture must take the numpy specification, not the C kernels
    calls = []
    _spy(monkeypatch, calls, LinearQuantizer, "_quantize_numpy")
    _spy(monkeypatch, calls, LinearQuantizer, "_dequantize_numpy")
    _spy(monkeypatch, calls, adaptive, "adaptive_encode")
    _spy(monkeypatch, calls, adaptive, "adaptive_decode")
    _spy(monkeypatch, calls, interpolation, "_linear_fill")
    _spy(monkeypatch, calls, interpolation, "_cubic_fill")
    values = np.linspace(0, 3, 40, dtype=np.float32).reshape(5, 8) ** 2
    preds = values + np.float32(0.05)
    for quant in (LinearQuantizer(0.01), adaptive.AdaptiveLinearQuantizer(0.01)):
        res = quant.quantize(values, preds)
        quant.dequantize(res.indices, preds, res.literals)
    interpolation.predict_midpoints(values, 4, "linear", 0)
    interpolation.predict_midpoints(values, 8, "cubic", 1)
    assert calls == [
        "_quantize_numpy", "_dequantize_numpy", "adaptive_encode",
        "adaptive_decode", "_linear_fill", "_cubic_fill",
    ]


def test_lorenzo_and_selection_run_the_numpy_code(monkeypatch):
    # the re-run Lorenzo and selection suites go through lorenzo_encode,
    # lorenzo_decode and SZ3's two estimates, which under the fixture must
    # take the numpy specification, not the C kernels; QP's Case I
    # inverse takes numpy's cumsums
    calls = []
    _spy(monkeypatch, calls, lorenzo, "_encode_numpy")
    _spy(monkeypatch, calls, lorenzo, "_integrate_numpy")
    _spy(monkeypatch, calls, sz3, "_pass_entropy")
    data = np.cumsum(np.linspace(-1, 1, 6 * 7 * 8).reshape(6, 7, 8), axis=0)
    result, _ = lorenzo.lorenzo_encode(data, 1e-3, radius=8)
    lorenzo.lorenzo_decode(result, 1e-3)
    sz3.SZ3(1e-3)._select_predictor(data.astype(np.float32))
    assert calls[:3] == ["_encode_numpy", "_integrate_numpy", "_encode_numpy"]
    assert set(calls[3:]) == {"_pass_entropy"}
    assert qp._prefix_sums_native(result.indices, (1, 6, 7, 8), 12) is None
