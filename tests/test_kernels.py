"""The kernel-path record that benchmark and bench reports carry."""
from repro import kernels


def test_active_backends_maps_every_stage():
    assert kernels.active_backends() == {
        stage: "numpy"
        for stage in ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp")
    }
    assert kernels.__all__ == ["active_backends"]
