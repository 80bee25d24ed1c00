"""tests/test_golden_decode_fixtures.py on the numpy decode path (see conftest.py)."""
from tests.test_golden_decode_fixtures import *  # noqa: F401,F403
