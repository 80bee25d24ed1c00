"""The stages the interpolation engine and the blob framing call.

:mod:`repro.pipeline.stages` holds the prediction, quantization, QP and
entropy stage classes; :mod:`repro.pipeline.driver` holds the one encode
and decode of an engine blob's sections.  ``stages`` sits below
:mod:`repro.compressors` (the compressor framework wires its entropy
framing and engine walks through it); ``driver`` sits above it.
"""
