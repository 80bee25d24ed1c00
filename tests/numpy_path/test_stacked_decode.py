"""tests/test_stacked_decode.py on the numpy path (see conftest.py)."""
from tests.test_stacked_decode import *  # noqa: F401,F403
