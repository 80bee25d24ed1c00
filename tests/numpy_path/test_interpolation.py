"""tests/test_interpolation.py on the numpy path (see conftest.py)."""
from tests.test_interpolation import *  # noqa: F401,F403
