"""SZ3's predictor-selection tests of tests/test_interp_compressors.py on
the numpy path (see conftest.py): the Lorenzo trial encoding and the
interpolation estimate in numpy, and the forced-Lorenzo round trip."""
from tests.test_interp_compressors import (  # noqa: F401
    test_sz3_forced_lorenzo,
    test_sz3_interp_on_smooth,
    test_sz3_lorenzo_switch_on_layered,
)
