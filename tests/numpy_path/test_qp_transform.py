"""tests/test_qp_transform.py on the numpy path (see conftest.py)."""
from tests.test_qp_transform import *  # noqa: F401,F403
