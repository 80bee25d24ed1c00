"""Which implementation runs each hot loop of the compressor stack.

Every hot loop is plain numpy, called directly in the module that owns it:
the Huffman bit packing and lockstep decode in :mod:`repro.codecs.huffman`,
the QP wavefront walks in :mod:`repro.core.qp`, the Lorenzo diff/cumsum pair
in :mod:`repro.predictors.lorenzo`, the midpoint fills in
:mod:`repro.predictors.interpolation`, and the reserved-index encode/decode
in :mod:`repro.quantize.adaptive`.  Reports record :func:`active_backends`
so a run states which implementation produced its numbers.
"""

__all__ = ["active_backends"]

_STAGES = ("adaptive_quantize", "huffman", "interp", "lorenzo", "qp")


def active_backends() -> dict[str, str]:
    """stage -> implementation of its hot loop (always ``"numpy"``)."""
    return dict.fromkeys(_STAGES, "numpy")
