"""tests/test_golden_identity.py on the numpy path (see conftest.py)."""
from tests.test_golden_identity import *  # noqa: F401,F403
