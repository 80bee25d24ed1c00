"""tests/test_progressive.py on the numpy path (see conftest.py)."""
from tests.test_progressive import *  # noqa: F401,F403
