"""tests/test_interp_engine.py on the numpy path (see conftest.py)."""
from tests.test_interp_engine import *  # noqa: F401,F403
