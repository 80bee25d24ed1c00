"""The benchmark's hooks still find what they wrap.

``perfbench`` times the program by wrapping named entry points of each
layer and records ``repro.kernels.active_backends()`` in its report
envelope.  A refactor that moves or renames one of those names breaks the
traced benchmark run; this probe catches it in the test suite.
"""
from pathlib import Path

from perfbench import common, trace

from repro.codecs.huffman import HuffmanCodec
from repro.core import autotune as autotune_module
from repro.pipeline.stages import InterpPredict, QPTransform
from repro.quantize.adaptive import AdaptiveLinearQuantizer
from repro.quantize.linear import LinearQuantizer

ROOT = str(Path(__file__).resolve().parents[1])

#: entry points the traced run times: those the native kernels run
#: beneath, and the predictors / quantize / autotune layers the tuner's
#: engine runs go through
WRAPPED = [
    (HuffmanCodec, "encode"),
    (HuffmanCodec, "decode_many"),
    (QPTransform, "forward"),
    (InterpPredict, "pass_prediction"),
    (InterpPredict, "pass_prediction_stacked"),
    (InterpPredict, "choose"),
    (LinearQuantizer, "quantize"),
    (AdaptiveLinearQuantizer, "quantize"),
    (autotune_module, "autotune"),
]


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_trace_hooks_install_and_envelope_names_kernel_stages():
    originals = [_bound(owner, attr) for owner, attr in WRAPPED]
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        for (owner, attr), original in zip(WRAPPED, originals):
            assert _bound(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(WRAPPED, originals):
        assert _bound(owner, attr) is original, attr

    env = common.envelope(ROOT, "codec-qp", 1, 1, False)
    assert set(env["kernel_backends"]) == {
        "adaptive_quantize", "huffman", "interp", "lorenzo", "qp", "quantize"
    }
