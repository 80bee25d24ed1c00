"""tests/test_fault_injection.py on the numpy path (see conftest.py)."""
from tests.test_fault_injection import *  # noqa: F401,F403
