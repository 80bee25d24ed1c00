"""The benchmark's hooks still find what they wrap.

``perfbench`` times the program by wrapping named entry points of each
layer and records ``repro.kernels.active_backends()`` in its report
envelope.  A refactor that moves or renames one of those names breaks the
traced benchmark run; this probe catches it in the test suite.
"""
from pathlib import Path

from perfbench import common, trace

from repro.codecs.huffman import HuffmanCodec
from repro.pipeline.stages import QPTransform

ROOT = str(Path(__file__).resolve().parents[1])

#: entry points the native kernels run beneath, which the traced run times
WRAPPED = [
    (HuffmanCodec, "encode"),
    (HuffmanCodec, "decode_many"),
    (QPTransform, "forward"),
]


def test_trace_hooks_install_and_envelope_names_kernel_stages():
    originals = [cls.__dict__[attr] for cls, attr in WRAPPED]
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        for (cls, attr), original in zip(WRAPPED, originals):
            assert cls.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (cls, attr), original in zip(WRAPPED, originals):
        assert cls.__dict__[attr] is original, attr

    env = common.envelope(ROOT, "codec-qp", 1, 1, False)
    assert set(env["kernel_backends"]) == {
        "adaptive_quantize", "huffman", "interp", "lorenzo", "qp"
    }
