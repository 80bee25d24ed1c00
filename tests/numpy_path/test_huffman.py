"""tests/test_huffman.py on the numpy path (see conftest.py)."""
from tests.test_huffman import *  # noqa: F401,F403
