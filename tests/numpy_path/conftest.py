"""Re-run the codec suites on the numpy fallback, encoders and decoders.

Each module here imports one suite (all of it, or named tests), so pytest
collects those tests a second time under this directory, where the
autouse fixture below forces the numpy path.  The suites themselves run on whichever path loads (the
native library where a C compiler exists), so together they cover both.
"""
import pytest


@pytest.fixture(autouse=True)
def _force_numpy_path(numpy_path):
    """Every test in this directory encodes and decodes with the numpy loops."""
