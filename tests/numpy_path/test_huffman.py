"""tests/test_huffman.py on the numpy decode path (see conftest.py)."""
from tests.test_huffman import *  # noqa: F401,F403
