"""The fixture in conftest.py really forces the numpy path here."""
from repro import kernels


def test_every_stage_reports_numpy():
    assert set(kernels.active_backends().values()) == {"numpy"}
