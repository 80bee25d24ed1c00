"""tests/test_stream_exactness.py on the numpy path (see conftest.py)."""
from tests.test_stream_exactness import *  # noqa: F401,F403
