"""tests/test_stacked_compress.py on the numpy path (see conftest.py)."""
from tests.test_stacked_compress import *  # noqa: F401,F403
