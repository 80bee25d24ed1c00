"""tests/test_lorenzo.py on the numpy path (see conftest.py)."""
from tests.test_lorenzo import *  # noqa: F401,F403
