"""tests/test_adaptive_quantizer.py on the numpy path (see conftest.py)."""
from tests.test_adaptive_quantizer import *  # noqa: F401,F403
