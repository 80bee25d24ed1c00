"""The stages the interpolation engine calls, and the engine blob driver.

:mod:`repro.pipeline.stages` holds the prediction and QP stage classes;
:mod:`repro.pipeline.driver` holds the one encode and decode of an engine
blob's sections.  ``stages`` sits below :mod:`repro.compressors` (the
engine walks call it); ``driver`` sits above it.
"""
