"""The benchmark's hooks still find what they wrap.

``perfbench`` times the program by wrapping named entry points of each
layer and records ``repro.kernels.active_backends()`` in its report
envelope.  A refactor that moves or renames one of those names breaks the
traced benchmark run; this probe catches it in the test suite.
"""
from pathlib import Path

from perfbench import common, trace

from repro.codecs.huffman import HuffmanCodec

ROOT = str(Path(__file__).resolve().parents[1])


def test_trace_hooks_install_and_envelope_names_kernel_stages():
    original = HuffmanCodec.__dict__["decode_many"]
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        assert HuffmanCodec.__dict__["decode_many"] is not original
    finally:
        tracer.uninstall()
    assert HuffmanCodec.__dict__["decode_many"] is original

    env = common.envelope(ROOT, "codec-qp", 1, 1, False)
    assert set(env["kernel_backends"]) == {
        "adaptive_quantize", "huffman", "interp", "lorenzo", "qp"
    }
