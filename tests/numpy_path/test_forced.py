"""The fixture in conftest.py really forces the numpy path here."""
import numpy as np

from repro import kernels
from repro.codecs import huffman
from repro.core import QPConfig, qp


def test_every_stage_reports_numpy():
    assert set(kernels.active_backends().values()) == {"numpy"}


def test_encoders_run_the_numpy_loops(monkeypatch):
    # the re-run suites reach the encoders through HuffmanCodec.encode and
    # qp_forward; under the fixture those must take the numpy reference
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(huffman, "_huffman_lengths_heap")
    spy(huffman, "encode_codes_packed")
    spy(qp, "compensation")
    sym = np.arange(300) % 17
    huffman.HuffmanCodec(block_size=64).encode(sym)
    q = (np.arange(6 * 7 * 8).reshape(6, 7, 8) % 5) - 2
    qp.qp_forward(q, -32, QPConfig(), level=1)
    assert calls == ["_huffman_lengths_heap", "encode_codes_packed", "compensation"]
