"""tests/test_engine_levels.py on the numpy path (see conftest.py)."""
from tests.test_engine_levels import *  # noqa: F401,F403
