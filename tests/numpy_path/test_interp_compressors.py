"""HPEZ's block layout of tests/test_interp_compressors.py on the numpy path
(see conftest.py): each block encodes and decodes as a stack of one."""
from tests.test_interp_compressors import test_hpez_blockwise_mode  # noqa: F401
